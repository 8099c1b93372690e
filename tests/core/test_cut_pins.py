"""Pins of the crash-cut samplers on generated programs.

``frontier_cut``, ``random_cut`` and ``prefix_cut`` feed the property
and recovery tests, so what they return for a seed is part of what
those tests check.  Each digest covers the cuts of several seeds and
probabilities together with the generator's next draw, so a change to
how many numbers a sampler draws shows up as well as a change to the
cut.  Re-record only for a deliberate change to a sampler.
"""

import hashlib
import random

import pytest

from repro.chaos.harness import CHAOS_CFG
from repro.core.crash import frontier_cut, prefix_cut, random_cut
from repro.core.model import PersistDag
from repro.workloads import WORKLOADS, generate_for_design
from tests.core.test_model import WORKLOAD_CELLS

#: (benchmark, design) -> node count and sha256 of each sampler's cuts.
CUT_PINS = {
    ("queue", "strandweaver"): {
        "n": 899,
        "frontier_cut": "87e552c5c0a7e8730d16ce19146bab6865bad9268d6438d79d10184d0823d356",
        "random_cut": "a3cebdb110b43550e9bed864573526d1baafc990ac7447a0f216abe6695b7d6b",
        "prefix_cut": "64f2993ee41b1101b44564a7239201977fd36c355b5634dcf717ebbe5d08fbf8",
    },
    ("tpcc", "intel-x86"): {
        "n": 3554,
        "frontier_cut": "87f8a02463bbf53feab9331d0121157ae13cf7c0360cb1b0459e6342292bc36b",
        "random_cut": "7029c82cc845149ba620cf2269df98f02d2df2fa4cba6ab2e093973f09206e53",
        "prefix_cut": "e9b3e8d9d4d567c5f12cf34b3e98a457b48a0b76f77421bc43c3607a7bfd4b86",
    },
    ("rbtree", "hops"): {
        "n": 1421,
        "frontier_cut": "7cdfe295a0f1f53294c7b3fc55adf4d0d692c7f3804cefeb5fb4687575216a37",
        "random_cut": "277ee87e5e92e3f14a880a21245ba4fed77fe1c28083db7ab83104930e599213",
        "prefix_cut": "7c2d727cb96903096454c9f92f3f248154725723cecc69bb72db4a3dacd5e3d5",
    },
    ("hashmap", "non-atomic"): {
        "n": 561,
        "frontier_cut": "a761b873d7d9fa7d1918841f0c1d17e365c74f66ae503d08795d2eeb567609f2",
        "random_cut": "0003a26d4829df207f97efcdc541278edf6194578d977f679049eb96b4edf2cc",
        "prefix_cut": "8f9c1d24f03949aa497d83d7ddb11a9592e0fa169842fbbf134113bfc8bc942d",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sampled(sampler, dag, probabilities):
    """Each seed's cut, sorted, with the draw that follows it."""
    out = []
    for seed in range(8):
        for p in probabilities:
            rng = random.Random(seed)
            out.append((sorted(sampler(dag, rng, p)), rng.random()))
    return out


def cut_pins(dag: PersistDag) -> dict:
    n = len(dag)
    return {
        "n": n,
        "frontier_cut": _sha(repr(_sampled(frontier_cut, dag, (0.02, 0.3)))),
        "random_cut": _sha(repr(_sampled(random_cut, dag, (0.05, 0.5)))),
        "prefix_cut": _sha(
            repr([sorted(prefix_cut(dag, k)) for k in (0, 1, n // 3, n - 1, n, n + 7)])
        ),
    }


@pytest.mark.parametrize("cell", WORKLOAD_CELLS, ids="/".join)
def test_cut_samplers_match_their_pins(cell):
    bench, design = cell
    run = generate_for_design(
        WORKLOADS[bench], CHAOS_CFG, design, "txn", durable_commit=True
    )
    assert cut_pins(PersistDag(run.program)) == CUT_PINS[cell]
