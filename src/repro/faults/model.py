"""Deterministic, seedable PM media fault model.

Real persistent-memory media is not the perfect device the seed
simulator assumed: Optane-class parts take transient write failures the
controller must retry, lines develop ECC-correctable bit errors that
cost a correction cycle, and worn lines go uncorrectable and must be
remapped to a spare region.  :class:`MediaFaultModel` injects exactly
those events, driven by one :class:`random.Random` stream seeded from
:class:`MediaFaultConfig`, so a given (workload, design, seed) triple
produces bit-identical fault sequences — and therefore bit-identical
timing statistics — on every run.

The model is *policy-free*: it only answers "does this media access
fault, and how".  The retry/backoff and spare-line-remap policy lives in
:class:`repro.sim.memory.PMController`, configured by
:class:`repro.sim.config.PMConfig`, so the resilience machinery is part
of the simulated hardware and its cost shows up in stall attribution
like any other controller behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Set

@dataclass(frozen=True)
class MediaFaultConfig:
    """Seeded fault-injection knobs for the PM media.

    All probabilities default to zero, so a default-constructed config
    is the *null* fault model: it never fires, consumes no randomness on
    the access path, and leaves timing bit-identical to a build without
    a fault model attached.
    """

    seed: int = 0
    #: per-media-write probability of a transient failure (the write
    #: consumed a media slot but did not stick; the controller retries).
    write_fail_prob: float = 0.0
    #: per-read probability of an ECC-correctable line error (costs the
    #: controller's correction penalty, data is fine).
    ecc_correctable_prob: float = 0.0
    #: per-write probability the line proves uncorrectable (wear-out):
    #: retries cannot help and the controller must remap to a spare.
    ecc_uncorrectable_prob: float = 0.0

    @property
    def enabled(self) -> bool:
        """True when any fault can ever fire."""
        return (
            self.write_fail_prob > 0
            or self.ecc_correctable_prob > 0
            or self.ecc_uncorrectable_prob > 0
        )

    def describe(self) -> str:
        if not self.enabled:
            return "media-faults(off)"
        return (
            f"media-faults(seed={self.seed} wfail={self.write_fail_prob:g} "
            f"ecc-c={self.ecc_correctable_prob:g} "
            f"ecc-u={self.ecc_uncorrectable_prob:g})"
        )


class MediaFaultModel:
    """One seeded fault stream plus the accounting the stats layer reads.

    The simulator replays accesses in a deterministic order, so drawing
    from a single stream keeps the whole fault sequence reproducible
    from ``cfg.seed`` alone.  Counters are mutated by the PM controller
    as it applies its retry/remap policy; :meth:`summary` is what lands
    in ``repro.stats/1`` under the ``"faults"`` key.
    """

    def __init__(self, cfg: MediaFaultConfig) -> None:
        self.cfg = cfg
        self._rng = random.Random(cfg.seed)
        #: lines already moved to the spare region (their faults are gone).
        self.remapped_lines: Set[int] = set()
        # -- counters the controller maintains --
        self.write_faults = 0  #: transient write failures observed
        self.retries = 0  #: media writes re-issued after a failure
        self.backoff_cycles = 0.0  #: total cycles spent backing off
        self.ecc_corrected = 0  #: correctable read errors fixed
        self.ecc_uncorrectable = 0  #: uncorrectable (wear-out) hits
        self.remaps = 0  #: lines moved to spares
        self.remap_denied = 0  #: uncorrectables with no spare left
        self.exhausted_retries = 0  #: writes that burned the retry budget

    @property
    def enabled(self) -> bool:
        return self.cfg.enabled

    # -- fault draws (called by the controller, in simulated order) -----

    def write_fails(self, line: int) -> bool:
        """Does this media write attempt fail transiently?"""
        if self.cfg.write_fail_prob <= 0 or line in self.remapped_lines:
            return False
        return self._rng.random() < self.cfg.write_fail_prob

    def write_uncorrectable(self, line: int) -> bool:
        """Has this line worn out (no retry can make the write stick)?"""
        if self.cfg.ecc_uncorrectable_prob <= 0 or line in self.remapped_lines:
            return False
        return self._rng.random() < self.cfg.ecc_uncorrectable_prob

    def read_correctable(self, line: int) -> bool:
        """Does this read hit a correctable ECC error?"""
        if self.cfg.ecc_correctable_prob <= 0 or line in self.remapped_lines:
            return False
        return self._rng.random() < self.cfg.ecc_correctable_prob

    # -- remap bookkeeping ---------------------------------------------

    def remap(self, line: int, spare_lines: int) -> bool:
        """Move ``line`` to a spare; False once the spare region is full."""
        if len(self.remapped_lines) >= spare_lines:
            self.remap_denied += 1
            return False
        self.remapped_lines.add(line)
        self.remaps += 1
        return True

    def summary(self) -> Dict[str, object]:
        """Flat record of everything the device suffered (JSON-safe)."""
        return {
            "seed": self.cfg.seed,
            "write_faults": self.write_faults,
            "retries": self.retries,
            "backoff_cycles": round(self.backoff_cycles, 3),
            "ecc_corrected": self.ecc_corrected,
            "ecc_uncorrectable": self.ecc_uncorrectable,
            "remaps": self.remaps,
            "remap_denied": self.remap_denied,
            "exhausted_retries": self.exhausted_retries,
        }
