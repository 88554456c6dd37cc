"""Phase/operation scripts shared by all planners, plus the replay verifier.

Scripts are self-contained (ops carry endpoints and weights) and serialize
to JSON; replay checks them mechanically against a graph and a source
solution, recording validity and quality at every requested boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .dynforest import LinkCutForestIndex
from .graph import ContractError, DataError, Graph, SolutionStats, slack

PROBLEMS = ("mcm", "mwm", "msf")

Group = list[tuple[str, int]]   # one phase's ops as (kind, edge id) pairs
_INVERSE = {"add": "remove", "remove": "add"}


def reversed_groups(groups: list[Group]) -> list[Group]:
    """The undo of groups, as reversed_script undoes a script."""
    return [[(_INVERSE[kind], eid) for kind, eid in reversed(group)]
            for group in reversed(groups)]


@dataclass(frozen=True)
class ChangeOp:
    kind: str  # "add" | "remove"
    u: int
    v: int
    w: float

    def inverted(self) -> "ChangeOp":
        return ChangeOp("remove" if self.kind == "add" else "add", self.u, self.v, self.w)


@dataclass
class Phase:
    ops: list[ChangeOp] = field(default_factory=list)


@dataclass
class TransformationScript:
    problem: str
    budget: int
    epsilon: Optional[float] = None
    phases: list[Phase] = field(default_factory=list)

    @staticmethod
    def from_groups(g: Graph, problem: str, budget: int,
                    epsilon: Optional[float],
                    groups: Iterable[Group]) -> "TransformationScript":
        """The validated script of groups, each op's endpoints and weight
        read from g's edge table: where planned ops become ChangeOp."""
        table = g._edges
        script = TransformationScript(
            problem, budget, epsilon,
            [Phase([ChangeOp(kind, *table[eid]) for kind, eid in group])
             for group in groups])
        script.validate()
        return script

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise DataError(f"unknown problem tag {self.problem!r}")
        for i, ph in enumerate(self.phases):
            if not ph.ops:
                raise ContractError(f"phase {i} is empty")
            if len(ph.ops) > self.budget:
                raise ContractError(
                    f"phase {i} has {len(ph.ops)} ops > declared budget {self.budget}")

    def num_ops(self) -> int:
        return sum(len(p.ops) for p in self.phases)

    def reversed_script(self) -> "TransformationScript":
        """Undo script: phases in reverse order, each op inverted, op order
        within a phase reversed (so removals still precede the adds that
        reuse their endpoints)."""
        phases = [Phase([op.inverted() for op in reversed(ph.ops)])
                  for ph in reversed(self.phases)]
        return TransformationScript(self.problem, self.budget, self.epsilon, phases)

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "problem": self.problem,
            "epsilon": self.epsilon,
            "budget": self.budget,
            "phases": [
                {"ops": [{"op": op.kind, "u": op.u, "v": op.v, "w": op.w}
                         for op in ph.ops]}
                for ph in self.phases
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1, sort_keys=False)

    @staticmethod
    def from_json_obj(obj: dict) -> "TransformationScript":
        try:
            phases = [Phase([ChangeOp(o["op"], int(o["u"]), int(o["v"]), float(o["w"]))
                             for o in ph["ops"]])
                      for ph in obj["phases"]]
            eps = obj.get("epsilon")
            script = TransformationScript(
                obj["problem"],
                int(obj["budget"]),
                None if eps is None else float(eps),
                phases,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed script JSON: {exc}") from exc
        return script

    @staticmethod
    def from_json(text: str) -> "TransformationScript":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"script is not valid JSON: {exc}") from exc
        return TransformationScript.from_json_obj(obj)


@dataclass(frozen=True)
class Boundary:
    index: int
    phase: int           # -1 for the initial snapshot
    op: Optional[int]    # None for phase-end rows and the initial snapshot
    valid: bool
    size: int
    weight: float


@dataclass
class ReplayReport:
    problem: str
    granularity: str
    boundaries: list[Boundary]
    final_edges: frozenset[int]
    worst_size: int
    worst_weight: float
    max_phase_ops: int
    phase_op_counts: list[int]

    def phase_ends(self) -> list[Boundary]:
        return [b for b in self.boundaries if b.op is None and b.phase >= 0]


# Replay's validity checks: told of each edge that enters (add) or leaves
# (remove) the checked set, they answer valid(size of the state) at each
# boundary.


class _MatchingCheck:
    """Matching validity from per-vertex occupancy counts: the counted edges
    form a matching iff no vertex is covered twice."""

    def __init__(self, g: Graph, state: set[int]) -> None:
        self._g = g
        self._occupancy: dict[int, int] = {}
        self._overfull = 0
        for eid in state:
            self.add(eid)

    def add(self, eid: int) -> None:
        occupancy = self._occupancy
        for x in self._g.endpoints(eid):
            c = occupancy.get(x, 0) + 1
            occupancy[x] = c
            if c == 2:
                self._overfull += 1

    def remove(self, eid: int) -> None:
        occupancy = self._occupancy
        for x in self._g.endpoints(eid):
            c = occupancy[x]
            occupancy[x] = c - 1
            if c == 2:
                self._overfull -= 1

    def valid(self, size: int) -> bool:
        return self._overfull == 0


class _ForestCheck:
    """Spanning-forest validity over pending deltas.

    With c(G) components, an edge subset of G spans iff it is acyclic and
    has |V| - c(G) edges. The index always holds an acyclic subset of the
    state; ops only record which edges still need a link or a cut, and a
    boundary whose size is right applies them, cuts first. The first such
    boundary loads the whole state in one bulk load. A link (or that load)
    that would close a cycle raises before it changes the index, so the
    state is invalid and the edge stays pending; a source that fails the
    load is linked one edge at a time instead.
    """

    def __init__(self, g: Graph, state: set[int]) -> None:
        self._g = g
        self._need = g.num_vertices() - len(set(g.components().values()))
        self._index = LinkCutForestIndex()
        self._loaded = False
        self._links: dict[int, None] = dict.fromkeys(state)
        self._cuts: dict[int, None] = {}

    def add(self, eid: int) -> None:
        if eid in self._cuts:
            del self._cuts[eid]
        else:
            self._links[eid] = None

    def remove(self, eid: int) -> None:
        if eid in self._links:
            del self._links[eid]
        else:
            self._cuts[eid] = None

    def valid(self, size: int) -> bool:
        if size != self._need:
            return False
        index, endpoints = self._index, self._g.endpoints
        for eid in self._cuts:
            index.cut(eid)
        self._cuts.clear()
        if not self._loaded:
            self._loaded = True
            try:
                index.load([(eid, *endpoints(eid), 1) for eid in self._links])
            except DataError:
                pass   # a cycle: the loop below links up to the edge closing it
            else:
                self._links.clear()
                return True
        for eid in list(self._links):
            u, v = endpoints(eid)
            try:
                index.link(eid, u, v, 1)
            except DataError:
                return False
            del self._links[eid]
        return True


def transform_granularity(problem: str) -> str:
    """The granularity `transform` replays at: mwm per op, others per phase."""
    return "per-op" if problem == "mwm" else "per-phase"


def replay(
    g: Graph,
    source: Iterable[int],
    script: TransformationScript,
    granularity: str = "per-phase",
) -> ReplayReport:
    """Deterministically apply the script to the source edge set.

    Structural op failures (adding a present edge, removing an absent one,
    referencing an edge missing from g) raise DataError naming the phase
    and op; validity problems are recorded as data in the report.

    Validity is kept incrementally, so a boundary costs time proportional
    to the ops since the previous one (plus link-cut index time for
    forests). A matching's edges that are removed later in the current
    phase are exempt from the check at its op boundaries (phase
    atomicity). `oracles.replay_reference` rescans the whole state at every
    boundary and is the reference this function is tested against.
    """
    if granularity not in ("per-phase", "per-op"):
        raise DataError(f"unknown granularity {granularity!r}")
    script.validate()
    state: set[int] = set(source)
    weight = sum(g.weight(eid) for eid in state)
    boundaries: list[Boundary] = []
    per_op = granularity == "per-op"
    matching = script.problem in ("mcm", "mwm")
    check = (_MatchingCheck if matching else _ForestCheck)(g, state)

    def snapshot(phase: int, op: Optional[int]) -> None:
        valid = check.valid(len(state))
        boundaries.append(Boundary(len(boundaries), phase, op, valid, len(state), weight))

    snapshot(-1, None)
    for pi, phase in enumerate(script.phases):
        # resolve ops against g up front so errors name their location
        resolved: list[tuple[ChangeOp, int]] = []
        for oi, op in enumerate(phase.ops):
            if not g.has_edge(op.u, op.v):
                raise DataError(f"phase {pi} op {oi}: edge ({op.u},{op.v}) not in graph")
            eid = g.edge_id(op.u, op.v)
            gw = g.weight(eid)
            if abs(gw - op.w) > slack(gw):
                raise DataError(f"phase {pi} op {oi}: recorded weight {op.w} "
                                f"!= graph weight {gw}")
            resolved.append((op, eid))
        # At a matching's op boundaries an edge is checked iff it is in the
        # state and not pending removal. Every pending removal runs before
        # the phase ends, so all edges are checked again there.
        exempt = matching and per_op
        pending_removals = {eid for op, eid in resolved if op.kind == "remove"}
        if exempt:
            for eid in pending_removals & state:
                check.remove(eid)
        for oi, (op, eid) in enumerate(resolved):
            if op.kind == "add":
                if eid in state:
                    raise DataError(f"phase {pi} op {oi}: adding present edge "
                                    f"({op.u},{op.v})")
                state.add(eid)
                weight += g.weight(eid)
                if not (exempt and eid in pending_removals):
                    check.add(eid)
            elif op.kind == "remove":
                if eid not in state:
                    raise DataError(f"phase {pi} op {oi}: removing absent edge "
                                    f"({op.u},{op.v})")
                state.remove(eid)
                weight -= g.weight(eid)
                if not (exempt and eid in pending_removals):
                    check.remove(eid)
                pending_removals.discard(eid)
            else:
                raise DataError(f"phase {pi} op {oi}: unknown op kind {op.kind!r}")
            if per_op and oi < len(resolved) - 1:
                snapshot(pi, oi)
        snapshot(pi, None)

    worst_size = min(b.size for b in boundaries)
    worst_weight = min(b.weight for b in boundaries)
    counts = [len(p.ops) for p in script.phases]
    return ReplayReport(
        problem=script.problem,
        granularity=granularity,
        boundaries=boundaries,
        final_edges=frozenset(state),
        worst_size=worst_size,
        worst_weight=worst_weight,
        max_phase_ops=max(counts, default=0),
        phase_op_counts=counts,
    )


@dataclass
class GuaranteeResult:
    ok: bool
    reason: str = ""
    boundary: Optional[Boundary] = None

    def __bool__(self) -> bool:
        return self.ok


def check_guarantee(
    report: ReplayReport,
    source_stats: SolutionStats,
    target_stats: SolutionStats,
    problem: str,
    epsilon: Optional[float] = None,
) -> GuaranteeResult:
    """Check the per-problem quality floor at every boundary of the report.

    mcm: phase-end sizes >= min(|source|, |target|-1), validity at phase
    ends. mwm: phase-end weight >= max(w-W, (1-eps)w) and op-end weight
    >= w-W, both referenced to the lighter of source/target (the reverse
    convention for reversed scripts). msf: phase-end weight <= max of the
    two totals, validity, and phases of at most two ops.
    """
    if problem != report.problem:
        raise DataError(f"problem tag mismatch: report={report.problem!r} "
                        f"check={problem!r}")
    phase_ends = report.phase_ends()

    if problem == "mcm":
        floor = min(source_stats.size, target_stats.size - 1)
        for b in phase_ends:
            if not b.valid:
                return GuaranteeResult(False, "invalid matching at phase end", b)
            if b.size < floor:
                return GuaranteeResult(False, f"size {b.size} < floor {floor}", b)
        return GuaranteeResult(True)

    if problem == "mwm":
        if epsilon is None or not (0 < epsilon <= 0.5):
            raise DataError(f"mwm check needs epsilon in (0, 1/2], got {epsilon}")
        anchor = source_stats if source_stats.total_weight <= target_stats.total_weight \
            else target_stats
        base = anchor.total_weight
        big_w = anchor.max_edge_weight
        tol = slack(base)
        op_floor = base - big_w - tol
        phase_floor = max(base - big_w, (1.0 - epsilon) * base) - tol
        if report.granularity == "per-op":
            for b in report.boundaries:
                if b.weight < op_floor:
                    return GuaranteeResult(
                        False, f"op-end weight {b.weight} < {base} - {big_w}", b)
        for b in phase_ends:
            if not b.valid:
                return GuaranteeResult(False, "invalid matching at phase end", b)
            if b.weight < phase_floor:
                return GuaranteeResult(
                    False, f"phase-end weight {b.weight} < floor {phase_floor}", b)
        return GuaranteeResult(True)

    if problem == "msf":
        ceiling = max(source_stats.total_weight, target_stats.total_weight)
        tol = slack(ceiling)
        for i, count in enumerate(report.phase_op_counts):
            if count > 2:
                return GuaranteeResult(False, f"phase {i} has {count} ops > 2", None)
        for b in phase_ends:
            if not b.valid:
                return GuaranteeResult(False, "invalid forest at phase end", b)
            if b.weight > ceiling + tol:
                return GuaranteeResult(
                    False, f"phase-end weight {b.weight} > ceiling {ceiling}", b)
        return GuaranteeResult(True)

    raise DataError(f"unknown problem {problem!r}")


def report_to_csv_rows(report: ReplayReport) -> list[list]:
    rows = [["boundary_index", "phase", "op", "valid", "size", "weight"]]
    for b in report.boundaries:
        rows.append([b.index, b.phase, "" if b.op is None else b.op,
                     int(b.valid), b.size, repr(b.weight)])
    return rows
