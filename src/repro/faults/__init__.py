"""Device-level fault model and resilience primitives (repro.faults).

Two layers live here:

* :mod:`repro.faults.model` — a deterministic, seedable media fault
  model (:class:`MediaFaultModel`) the PM controller consults on every
  media write and read: transient write failures the controller retries
  with exponential backoff, ECC-correctable line errors that cost a
  correction penalty, uncorrectable errors that force a spare-line
  remap, and line wear that degrades the device once spares run out.
* :mod:`repro.faults.recovery` — the crash-during-recovery machinery:
  an ordered :class:`RecoveryWriter` protocol recovery persists through,
  plus :class:`CrashingRecoveryWriter`, which kills a recovery pass at a
  seeded write count and materialises the torn intermediate image
  (fenced epochs survive, unfenced writes persist as a seeded subset).

The chaos harness (:mod:`repro.chaos`) threads both through its fault
plans; with neither configured, every hook is absent and the simulator's
timing is bit-identical to a fault-free build.
"""

from repro.faults.model import MediaFaultConfig, MediaFaultModel
from repro.faults.recovery import (
    CrashingRecoveryWriter,
    DirectWriter,
    RecoveryCrashed,
)

__all__ = [
    "CrashingRecoveryWriter",
    "DirectWriter",
    "MediaFaultConfig",
    "MediaFaultModel",
    "RecoveryCrashed",
]
