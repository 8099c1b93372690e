"""Exhaustive crash-state model checker: declarative vs operational vs oracle.

Three independent formalisations of "which PM states can a crash expose"
coexist in this repo:

1. the **declarative** PMO axioms — Eqs. 1-4 as explicit relations
   (:class:`repro.analysis.pmo.DeclarativePmo`);
2. the **operational** persist DAG the analyzer and chaos harness run on
   (:class:`repro.core.model.PersistDag` over the design projection); and
3. the **machine oracle** — the cycle-accurate simulator's durable
   frontier at injected crash points, materialised through the same
   :func:`repro.chaos.image.durable_cut` machinery ``repro crashtest``
   uses.

This module closes the loop between them, following the method of
*Taming x86-TSO Persistency* (Khyzha & Lahav): for litmus-sized
programs, enumerate **every** reachable crash state under (1) and (2)
and demand the families coincide; additionally demand the full ordered
store-pair relations coincide (which also covers programs too large to
enumerate), and demand every crash frontier the machine actually
produces is reachable in both models.  Any discrepancy becomes a
:class:`Divergence` diagnostic and a non-zero exit — a CI gate over the
litmus corpus.

Deliberate semantics bugs can be injected on the operational side only
(``mutate=``, see :data:`MUTATIONS`) to prove the checker has teeth: a
dropped barrier or an ignored ``NewStrand`` must surface as a
divergence, not pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.pmo import (
    DEFAULT_STATE_LIMIT,
    DeclarativePmo,
    StateSpaceExceeded,
    StoreKey,
)
from repro.analysis.semantics import (
    DesignSemantics,
    effective_program,
    semantics_for,
)
from repro.core.crash import enumerate_cuts
from repro.core.model import STORE, PersistDag
from repro.core.ops import FENCE_KINDS, OpKind, Program

MODELCHECK_SCHEMA = "repro.modelcheck/1"

#: crash-point fractions of the clean run's makespan the oracle samples.
ORACLE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _weaken(sem: DesignSemantics, kinds: FrozenSet[OpKind]) -> DesignSemantics:
    """Stop honouring ``kinds``: the projection silently drops them."""
    return replace(
        sem,
        honored=sem.honored - kinds,
        barrier_kinds=sem.barrier_kinds - kinds,
        drain_kinds=sem.drain_kinds - kinds,
    )


#: seeded semantics bugs, applied to the *operational* side only.  Each
#: makes the operational model disagree with the declarative axioms on
#: any program exercising the dropped primitive — the mutation tests
#: prove such a disagreement is reported, never swallowed.
MUTATIONS = {
    # Persist barriers become no-ops: the operational model loses Eq. 1
    # edges and reaches crash states the axioms forbid.
    "drop-barrier": lambda sem: _weaken(
        sem,
        frozenset({OpKind.PERSIST_BARRIER, OpKind.SFENCE, OpKind.OFENCE}),
    ),
    # Synchronous drains become no-ops: Eq. 2 edges vanish operationally.
    "drop-join": lambda sem: _weaken(
        sem, frozenset({OpKind.JOIN_STRAND, OpKind.DFENCE})
    ),
    # NewStrand becomes a no-op: stores stay on one strand, so the
    # operational model gains Eq. 1 edges the axioms do not impose —
    # a divergence in the *opposite* direction (states the declarative
    # model allows but the operational model forbids).
    "ignore-newstrand": lambda sem: _weaken(
        sem, frozenset({OpKind.NEW_STRAND})
    ),
}


@dataclass(frozen=True)
class Divergence:
    """One disagreement between two of the three crash-state models."""

    #: ``order-pair`` (a PMO edge present in exactly one model),
    #: ``state-family`` (a crash state reachable in exactly one model),
    #: or ``oracle-frontier`` (a machine-produced frontier unreachable in
    #: a model).
    kind: str
    design: str
    message: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "design": self.design,
            "message": self.message,
            "detail": self.detail,
        }

    def render(self) -> str:
        return f"{self.kind:<16} [{self.design}] {self.message}"


@dataclass
class ModelCheckReport:
    """Outcome of model-checking one (program, design) pair."""

    target: str
    design: str
    n_stores: int = 0
    n_ops: int = 0
    #: reachable crash states per model; None when past the budget.
    declarative_states: Optional[int] = None
    operational_states: Optional[int] = None
    #: True when the state families were fully enumerated and compared;
    #: False means the budget was hit and only pairwise + oracle checks ran.
    exhaustive: bool = False
    order_pairs: int = 0  #: ordered store pairs in the declarative PMO
    oracle_samples: int = 0  #: machine crash frontiers cross-checked
    #: set when the oracle cross-check did not run, with the reason.
    oracle_skipped: Optional[str] = None
    mutation: Optional[str] = None
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.divergences

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": MODELCHECK_SCHEMA,
            "target": self.target,
            "design": self.design,
            "n_ops": self.n_ops,
            "n_stores": self.n_stores,
            "declarative_states": self.declarative_states,
            "operational_states": self.operational_states,
            "exhaustive": self.exhaustive,
            "order_pairs": self.order_pairs,
            "oracle_samples": self.oracle_samples,
            "oracle_skipped": self.oracle_skipped,
            "mutation": self.mutation,
            "agree": self.agree,
            "divergences": [d.to_json() for d in self.divergences],
        }

    def render(self) -> str:
        states = (
            f"{self.declarative_states} state(s)"
            if self.exhaustive
            else "states not enumerated (budget)"
        )
        mut = f" mutate={self.mutation}" if self.mutation else ""
        head = (
            f"modelcheck {self.target} [{self.design}]{mut}: "
            f"{self.n_stores} persist(s), {self.order_pairs} ordered pair(s), "
            f"{states}, {self.oracle_samples} oracle frontier(s) — "
            f"{'AGREE' if self.agree else f'{len(self.divergences)} DIVERGENCE(S)'}"
        )
        lines = [head]
        for d in self.divergences:
            lines.append(f"  {d.render()}")
        return "\n".join(lines)


# -- operational projections ------------------------------------------------


def _store_ancestors(dag: PersistDag) -> Dict[StoreKey, FrozenSet[StoreKey]]:
    """Store-to-store ancestor closure of the operational DAG.

    Virtual drain/acquire nodes are folded away: ancestors accumulate in
    one pass because predecessor indices are always smaller than the
    node's own (nodes are created in visibility order).
    """
    keys = [(op.tid, op.seq) if kind == STORE else None for kind, op in zip(dag.kinds, dag.ops)]
    anc: List[Set[StoreKey]] = []
    out: Dict[StoreKey, FrozenSet[StoreKey]] = {}
    for idx, key in enumerate(keys):
        mine: Set[StoreKey] = set()
        for p in dag.preds(idx):
            mine |= anc[p]
            pred_key = keys[p]
            if pred_key is not None:
                mine.add(pred_key)
        anc.append(mine)
        if key is not None:
            out[key] = frozenset(mine)
    return out


def _operational_pairs(
    anc: Dict[StoreKey, FrozenSet[StoreKey]]
) -> Set[Tuple[StoreKey, StoreKey]]:
    return {(a, b) for b, ancs in anc.items() for a in ancs}


def _operational_states(
    dag: PersistDag, limit: int
) -> Set[FrozenSet[StoreKey]]:
    """Every consistent cut of the DAG, projected onto store keys.

    Distinct cuts differing only in virtual nodes project to one state —
    the projection is exactly the crash-visible content.
    """
    out: Set[FrozenSet[StoreKey]] = set()
    for cut in enumerate_cuts(dag, limit=limit):
        out.add(
            frozenset((dag.ops[i].tid, dag.ops[i].seq) for i in cut if dag.kinds[i] == STORE)
        )
    return out


def _is_operationally_reachable(
    keys: Set[StoreKey], anc: Dict[StoreKey, FrozenSet[StoreKey]]
) -> bool:
    """Down-closure under the store-projected operational order.

    Projected cut families are exactly the down-sets of the projected
    order: any down-set extends to a consistent cut by adding every
    virtual node whose store ancestors are all included.
    """
    if not keys <= set(anc):
        return False
    return all(anc[k] <= keys for k in keys)


def _project_for_machine(
    program: Program, sem: DesignSemantics
) -> Tuple[Program, Dict[StoreKey, StoreKey]]:
    """Materialise the design projection as a runnable :class:`Program`.

    The timing simulator rejects foreign-dialect fences outright (each
    persistency domain validates its ISA), so the oracle runs a rebuilt
    trace with un-honoured fences dropped — which is exactly what those
    architectural no-ops mean.  Returns the rebuilt program plus a map
    from rebuilt store coordinates back to source ``(tid, seq)`` keys,
    since dropping ops renumbers per-thread sequences.
    """
    projected = Program(program.n_threads)
    key_map: Dict[StoreKey, StoreKey] = {}
    for op in program.all_ops():
        if op.kind in FENCE_KINDS and op.kind not in sem.honored:
            continue
        new = projected.emit(op.tid, op)
        if op.kind is OpKind.STORE:
            key_map[(new.tid, new.seq)] = (op.tid, op.seq)
    return projected, key_map


def _fmt_state(keys: FrozenSet[StoreKey]) -> str:
    if not keys:
        return "{}"
    return "{" + ", ".join(f"t{t}:{s}" for t, s in sorted(keys)) + "}"


def _fmt_pair(pair: Tuple[StoreKey, StoreKey]) -> str:
    (at, as_), (bt, bs) = pair
    return f"t{at}:{as_} -> t{bt}:{bs}"


# -- the checker ------------------------------------------------------------


def check_program(
    program: Program,
    design: str,
    target: str = "<program>",
    budget: int = DEFAULT_STATE_LIMIT,
    oracle_samples: int = len(ORACLE_FRACTIONS),
    mutate: Optional[str] = None,
    machine_cfg=None,
) -> ModelCheckReport:
    """Model-check one program under one hardware design.

    ``budget`` bounds the exhaustive state enumeration (both models);
    when exceeded the checker degrades to pairwise order comparison plus
    the oracle cross-check and reports ``exhaustive=False``.
    ``oracle_samples`` machine runs are crashed at evenly spread points
    of the clean run's makespan and their durable frontiers checked for
    reachability in both models (0 disables the oracle).  ``mutate``
    names a seeded semantics bug from :data:`MUTATIONS`, applied to the
    operational side only.
    """
    sem = semantics_for(design)
    if mutate is not None:
        if mutate not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutate!r}; choose from {sorted(MUTATIONS)}"
            )
        op_sem = MUTATIONS[mutate](sem)
    else:
        op_sem = sem

    declarative = DeclarativePmo(program, sem)
    dag = PersistDag(effective_program(program, op_sem))
    anc = _store_ancestors(dag)

    report = ModelCheckReport(
        target=target,
        design=design,
        mutation=mutate,
        n_stores=declarative.n_stores,
        n_ops=len(program.all_ops()),
    )
    report.order_pairs = len(declarative.order_pairs())

    # 1. Pairwise: the ordered-store-pair relations must coincide.
    decl_pairs = declarative.order_pairs()
    oper_pairs = _operational_pairs(anc)
    for pair in sorted(decl_pairs - oper_pairs):
        report.divergences.append(
            Divergence(
                kind="order-pair",
                design=design,
                message=(
                    f"declarative PMO orders {_fmt_pair(pair)} but the "
                    f"operational DAG does not"
                ),
                detail={"pair": _fmt_pair(pair), "only_in": "declarative"},
            )
        )
    for pair in sorted(oper_pairs - decl_pairs):
        report.divergences.append(
            Divergence(
                kind="order-pair",
                design=design,
                message=(
                    f"operational DAG orders {_fmt_pair(pair)} but the "
                    f"declarative PMO does not"
                ),
                detail={"pair": _fmt_pair(pair), "only_in": "operational"},
            )
        )

    # 2. Exhaustive: the reachable crash-state families must coincide.
    try:
        decl_states = set(declarative.reachable_states(limit=budget))
        oper_states = _operational_states(dag, limit=budget)
    except (StateSpaceExceeded, ValueError):
        report.exhaustive = False
    else:
        report.exhaustive = True
        report.declarative_states = len(decl_states)
        report.operational_states = len(oper_states)
        for state in sorted(decl_states - oper_states, key=sorted):
            report.divergences.append(
                Divergence(
                    kind="state-family",
                    design=design,
                    message=(
                        f"crash state {_fmt_state(state)} reachable under "
                        f"the declarative axioms but not operationally"
                    ),
                    detail={"state": _fmt_state(state), "only_in": "declarative"},
                )
            )
        for state in sorted(oper_states - decl_states, key=sorted):
            report.divergences.append(
                Divergence(
                    kind="state-family",
                    design=design,
                    message=(
                        f"crash state {_fmt_state(state)} reachable "
                        f"operationally but forbidden by the declarative axioms"
                    ),
                    detail={"state": _fmt_state(state), "only_in": "operational"},
                )
            )

    # 3. Oracle: frontiers the machine actually produces must be
    #    reachable in both models.  The machine and the image builder are
    #    never mutated — they are the ground truth the models must admit.
    #    The PMO only constrains persists the program actually issues
    #    ordering for: an unflushed store can linger dirty in cache while
    #    later flushed persists land, so the machine legitimately escapes
    #    the models on unsynchronized programs — exactly the gap the lint
    #    reports as an ERROR.  The oracle therefore runs on lint-clean
    #    programs only (same division of labour as the chaos harness).
    if oracle_samples > 0:
        from repro.analysis.checks import analyze

        if analyze(program, design=design).ok:
            report.oracle_samples = _check_oracle(
                program, design, declarative, anc, report, oracle_samples,
                machine_cfg,
            )
        else:
            report.oracle_skipped = (
                "program has lint ERRORs under this design; the hardware "
                "makes no ordering promise for unsynchronized persists"
            )

    return report


def _check_oracle(
    program: Program,
    design: str,
    declarative: DeclarativePmo,
    anc: Dict[StoreKey, FrozenSet[StoreKey]],
    report: ModelCheckReport,
    samples: int,
    machine_cfg,
) -> int:
    """Crash real machine runs and check each frontier against both models."""
    from repro.chaos.image import durable_cut
    from repro.chaos.plan import FaultPlan
    from repro.sim.durability import CrashTrigger
    from repro.sim.machine import Machine

    def machine() -> "Machine":
        if machine_cfg is not None:
            return Machine(design, machine_cfg)
        return Machine(design)

    # The machine runs the concrete projection (foreign fences dropped);
    # the image builder's write-back guard consults the *unmutated*
    # operational DAG — the oracle validates the models against real
    # hardware behaviour, not against the seeded bug.
    runnable, key_map = _project_for_machine(program, semantics_for(design))
    horizon = machine().run(runnable).cycles
    if horizon <= 0:
        return 0
    oracle_dag = PersistDag(runnable)

    fractions = ORACLE_FRACTIONS[:samples]
    if len(fractions) < samples:
        fractions = tuple(
            (i + 1) / samples for i in range(samples)
        )
    checked = 0
    for frac in fractions:
        at = max(1, int(frac * horizon))
        plan = FaultPlan(
            trigger=CrashTrigger("cycle", at),
            seed=0,
            writeback_faults=False,
            drop_faults=False,
        )
        stats = machine().run(runnable, fault_plan=plan)
        crash = stats.crash
        if crash is None:
            continue
        ops, _info = durable_cut(crash, plan, oracle_dag)
        frontier = {key_map[(op.tid, op.seq)] for op in ops}
        checked += 1
        where = f"cycle {at}/{horizon}"
        if not declarative.is_reachable(frontier):
            report.divergences.append(
                Divergence(
                    kind="oracle-frontier",
                    design=design,
                    message=(
                        f"machine frontier {_fmt_state(frozenset(frontier))} "
                        f"at {where} is not reachable under the declarative "
                        f"axioms"
                    ),
                    detail={
                        "state": _fmt_state(frozenset(frontier)),
                        "crash_cycle": at,
                        "model": "declarative",
                    },
                )
            )
        if not _is_operationally_reachable(frontier, anc):
            report.divergences.append(
                Divergence(
                    kind="oracle-frontier",
                    design=design,
                    message=(
                        f"machine frontier {_fmt_state(frozenset(frontier))} "
                        f"at {where} is not a consistent cut of the "
                        f"operational DAG"
                    ),
                    detail={
                        "state": _fmt_state(frozenset(frontier)),
                        "crash_cycle": at,
                        "model": "operational",
                    },
                )
            )
    return checked


# -- corpus / CLI-facing entry points ---------------------------------------


def check_litmus(
    name: str,
    designs: Optional[Sequence[str]] = None,
    budget: int = DEFAULT_STATE_LIMIT,
    oracle_samples: int = len(ORACLE_FRACTIONS),
    mutate: Optional[str] = None,
) -> List[ModelCheckReport]:
    """Model-check one litmus case, by default under its native design."""
    from repro.analysis.litmus import LITMUS

    case = LITMUS[name]
    if designs is None:
        designs = [case.design]
    return [
        check_program(
            case.build(),
            design,
            target=name,
            budget=budget,
            oracle_samples=oracle_samples,
            mutate=mutate,
        )
        for design in designs
    ]


def check_corpus(
    designs: Sequence[str],
    budget: int = DEFAULT_STATE_LIMIT,
    oracle_samples: int = len(ORACLE_FRACTIONS),
    mutate: Optional[str] = None,
) -> Iterator[ModelCheckReport]:
    """Model-check every litmus case under every given design (CI gate)."""
    from repro.analysis.litmus import LITMUS

    for name in sorted(LITMUS):
        for report in check_litmus(
            name,
            designs=designs,
            budget=budget,
            oracle_samples=oracle_samples,
            mutate=mutate,
        ):
            yield report
