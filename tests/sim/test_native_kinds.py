"""The native core numbers op kinds as :class:`~repro.core.ops.OpKind` does.

``_fastcore.c`` reads each thread's kinds column as raw ints, so its
``K_*`` enum must match ``OpKind`` member for member.  Reading the
source needs no compiler.
"""

import re
from pathlib import Path

from repro.core.ops import OpKind
from repro.sim import cnative

#: the C core's short names for three kinds.
C_NAMES = {"PB": "PERSIST_BARRIER", "NS": "NEW_STRAND", "JS": "JOIN_STRAND"}


def test_c_kind_enum_matches_opkind():
    source = Path(cnative._SRC).read_text()
    block = re.search(r"enum \{\s*(K_STORE\b[^}]*)\}", source).group(1)
    kinds = {
        C_NAMES.get(name, name): int(value)
        for name, value in re.findall(r"K_(\w+)\s*=\s*(\d+)", block)
    }
    assert kinds == {kind.name: kind.value for kind in OpKind}
