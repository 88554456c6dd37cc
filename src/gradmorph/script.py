"""Phase/operation scripts shared by all planners, plus the replay verifier.

Scripts are self-contained (ops carry endpoints and weights) and serialize
to JSON; replay checks them mechanically against a graph and a source
solution, recording validity and quality at every requested boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional

from .graph import ContractError, DataError, Graph, SolutionStats, slack

PROBLEMS = ("mcm", "mwm", "msf")
MWM_EPS_MAX = 0.5       # mwm plans and checks take epsilon in (0, 1/2]
MCM_PHASE_BUDGET = 3    # ops per mcm phase: one add and two removals
MSF_PHASE_BUDGET = 2    # ops per msf phase: one exchange

Group = list[tuple[str, int]]   # one phase's ops as (kind, edge id) pairs
_INVERSE = {"add": "remove", "remove": "add"}
# one op of a script as json.dumps(..., indent=1) writes it, its four
# values already JSON text
_OP_JSON = '    {{\n     "op": {},\n     "u": {},\n     "v": {},\n     "w": {}\n    }}'


def _json_numbers(values: list) -> list[str]:
    """Each number in values as json.dumps writes it, from one call of its
    C encoder."""
    return json.dumps(values, separators=(",", ":"))[1:-1].split(",") if values else []


def phase_budget(problem: str, epsilon: Optional[float] = None) -> int:
    """Δ, the most ops one phase may make: the one rule that the planners
    plan to and check_guarantee checks. mwm takes epsilon in (0, 1/2]."""
    if problem == "mwm":
        if epsilon is None or not (0 < epsilon <= MWM_EPS_MAX):
            raise DataError(f"mwm needs epsilon in (0, 1/2], got {epsilon}")
        return 3 * math.ceil(1.0 / epsilon) + 3
    if problem not in PROBLEMS:
        raise DataError(f"unknown problem {problem!r}")
    return MCM_PHASE_BUDGET if problem == "mcm" else MSF_PHASE_BUDGET


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


@dataclass
class TransformationScript:
    problem: str
    budget: int
    epsilon: Optional[float] = None
    phases: list[list[ChangeOp]] = field(default_factory=list)   # each phase's ops

    @staticmethod
    def from_groups(g: Graph, problem: str, epsilon: Optional[float],
                    groups: Iterable[Group]) -> "TransformationScript":
        """The validated script of groups, with the problem's phase_budget
        and each op read from g's edge table: where plans become ChangeOp."""
        table = g._edges
        script = TransformationScript(
            problem, phase_budget(problem, epsilon), epsilon,
            [[ChangeOp(kind, *table[eid]) for kind, eid in group]
             for group in groups])
        script.validate()
        return script

    def validate(self) -> None:
        """The structural check: a known problem, non-empty phases within
        the budget, and only add and remove ops."""
        if self.problem not in PROBLEMS:
            raise DataError(f"unknown problem tag {self.problem!r}")
        for i, ops in enumerate(self.phases):
            if not ops:
                raise ContractError(f"phase {i} is empty")
            if len(ops) > self.budget:
                raise ContractError(
                    f"phase {i} has {len(ops)} ops > declared budget {self.budget}")
            for j, op in enumerate(ops):
                if op.kind not in _INVERSE:
                    raise DataError(f"phase {i} op {j}: unknown op kind {op.kind!r}")

    def num_ops(self) -> int:
        return sum(map(len, self.phases))

    def reversed_script(self) -> "TransformationScript":
        """Undo script: phases in reverse order, each op inverted, op order
        within a phase reversed (so removals still precede the adds that
        reuse their endpoints)."""
        self.validate()
        phases = [[ChangeOp(_INVERSE[op.kind], op.u, op.v, op.w)
                   for op in reversed(ops)]
                  for ops in reversed(self.phases)]
        return TransformationScript(self.problem, self.budget, self.epsilon, phases)

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "problem": self.problem,
            "epsilon": self.epsilon,
            "budget": self.budget,
            "phases": [
                {"ops": [{"op": op.kind, "u": op.u, "v": op.v, "w": op.w}
                         for op in ops]}
                for ops in self.phases
            ],
        }

    def to_json(self, manifest: Optional[dict] = None) -> str:
        """json.dumps(obj, indent=1) of to_json_obj(), with manifest as a
        last "manifest" key when given, byte for byte. It is written
        directly, because json.dumps with an indent runs its pure-Python
        encoder: the op values go through its C encoder a column at a time,
        and only the manifest, which is small, takes the indented path."""
        ops = [op for phase in self.phases for op in phase]
        kinds = {kind: json.dumps(kind) for kind in {op.kind for op in ops}}
        columns = [[kinds[op.kind] for op in ops]] + [
            _json_numbers([getattr(op, name) for op in ops]) for name in "uvw"]
        texts = iter(map(_OP_JSON.format, *columns))
        phases = ",\n".join(
            '  {\n   "ops": [\n' + ",\n".join(islice(texts, len(phase)))
            + "\n   ]\n  }" if phase else '  {\n   "ops": []\n  }'
            for phase in self.phases)
        text = (f'{{\n "problem": {json.dumps(self.problem)},'
                f'\n "epsilon": {json.dumps(self.epsilon)},'
                f'\n "budget": {json.dumps(self.budget)},'
                f'\n "phases": ' + (f"[\n{phases}\n ]" if phases else "[]"))
        if manifest is not None:
            # one level deeper than on its own: one more space per line
            nested = json.dumps(manifest, indent=1).replace("\n", "\n ")
            text += ',\n "manifest": ' + nested
        return text + "\n}"

    @staticmethod
    def from_json(text: str) -> "TransformationScript":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"script is not valid JSON: {exc}") from exc
        try:
            phases = [[ChangeOp(o["op"], int(o["u"]), int(o["v"]), float(o["w"]))
                       for o in ph["ops"]]
                      for ph in obj["phases"]]
            eps = obj.get("epsilon")
            return TransformationScript(
                obj["problem"],
                int(obj["budget"]),
                None if eps is None else float(eps),
                phases,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed script JSON: {exc}") from exc


# not frozen: replay makes one per boundary, and a frozen dataclass's
# __init__ costs about five times as much
@dataclass
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
# (remove) the checked set and of each boundary (with the state's size),
# they answer every boundary's validity in verdicts() once the forward
# pass is done.


class _MatchingCheck:
    """Matching validity from per-vertex occupancy counts: the counted edges
    form a matching iff no vertex is covered twice."""

    def __init__(self, g: Graph, state: set[int]) -> None:
        self._table = g._edges
        self._occupancy: dict[int, int] = {}
        self._overfull = 0
        self._valid: list[bool] = []
        for eid in state:
            self.add(eid)

    def add(self, eid: int) -> None:
        occupancy = self._occupancy
        u, v, _ = self._table[eid]
        cu = occupancy[u] = occupancy.get(u, 0) + 1
        cv = occupancy[v] = occupancy.get(v, 0) + 1
        self._overfull += (cu == 2) + (cv == 2)

    def remove(self, eid: int) -> None:
        occupancy = self._occupancy
        u, v, _ = self._table[eid]
        cu = occupancy[u]
        cv = occupancy[v]
        occupancy[u] = cu - 1
        occupancy[v] = cv - 1
        self._overfull -= (cu == 2) + (cv == 2)

    def boundary(self, size: int) -> None:
        self._valid.append(self._overfull == 0)

    def verdicts(self) -> list[bool]:
        return self._valid


class _ForestCheck:
    """Spanning-forest validity, decided offline over edge lifetimes.

    With c(G) components, an edge subset of G spans iff it is acyclic and
    has |V| - c(G) edges, so only boundaries of that size (the candidates)
    can be valid. The forward pass records each edge's lifetime as the
    half-open range of candidates it is alive at. verdicts() stores every
    lifetime on the O(log B) nodes of a segment tree over the B candidates
    that cover it, then walks the tree depth first with a union-find
    (union by rank, no path compression, an undo log): a node whose edges
    close a cycle makes every candidate below it invalid, and a leaf that
    is reached is valid. An edge added and removed between the same two
    candidates has an empty lifetime and is never checked.
    """

    def __init__(self, g: Graph, state: set[int]) -> None:
        self._g = g
        labels = g._component_labels()
        self._need = len(labels) - len(set(labels.values()))
        self._born: dict[int, int] = dict.fromkeys(state, 0)   # eid -> first candidate
        self._lives: list[tuple[int, int, int]] = []          # (first, end, eid)
        self._candidates: list[int] = []                       # their boundary numbers
        self._boundaries = 0

    def add(self, eid: int) -> None:
        self._born[eid] = len(self._candidates)

    def remove(self, eid: int) -> None:
        first = self._born.pop(eid)
        if first < len(self._candidates):
            self._lives.append((first, len(self._candidates), eid))

    def boundary(self, size: int) -> None:
        if size == self._need:
            self._candidates.append(self._boundaries)
        self._boundaries += 1

    def verdicts(self) -> list[bool]:
        valid = [False] * self._boundaries
        candidates = self._candidates
        count = len(candidates)
        if not count:
            return valid
        lives = self._lives
        lives.extend((first, count, eid) for eid, first in self._born.items()
                     if first < count)
        size = 1 << (count - 1).bit_length()   # leaves of a perfect tree
        node_edges: dict[int, list[tuple[int, int]]] = {}
        dense: dict[int, int] = {}            # vertex -> union-find slot
        table = self._g._edges
        for first, end, eid in lives:
            u, v, _ = table[eid]
            edge = (dense.setdefault(u, len(dense)), dense.setdefault(v, len(dense)))
            # a lifetime that runs to the last candidate runs on through the
            # padding leaves, which are never checked, so it lands on fewer
            # nodes: an edge never removed lands on the root alone
            lo = first + size
            hi = (size if end == count else end) + size
            while lo < hi:
                if lo & 1:
                    node_edges.setdefault(lo, []).append(edge)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    node_edges.setdefault(hi, []).append(edge)
                lo >>= 1
                hi >>= 1
        parent = list(range(len(dense)))
        rank = [0] * len(dense)
        # one (attached root, the root it joined or -1) per union, -1
        # unless that root's rank went up
        undo: list[tuple[int, int]] = []

        def rollback(mark: int) -> None:
            for child, ranked in reversed(undo[mark:]):
                parent[child] = child
                if ranked >= 0:
                    rank[ranked] -= 1
            del undo[mark:]

        stack = [1]   # a node to enter, or ~mark: leave a node, undoing to mark
        while stack:
            node = stack.pop()
            if node < 0:
                rollback(~node)
                continue
            depth = node.bit_length() - 1
            if (node - (1 << depth)) * (size >> depth) >= count:
                continue   # the padding beyond the last candidate
            mark = len(undo)
            acyclic = True
            for a, b in node_edges.get(node, ()):
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    acyclic = False
                    break
                if rank[a] < rank[b]:
                    a, b = b, a
                parent[b] = a
                if rank[a] == rank[b]:
                    rank[a] += 1
                    undo.append((b, a))
                else:
                    undo.append((b, -1))
            if not acyclic:
                rollback(mark)
            elif node >= size:
                valid[candidates[node - size]] = True
                rollback(mark)
            else:
                stack += (~mark, 2 * node + 1, 2 * node)
        return valid


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

    Matching validity is kept incrementally, so a boundary costs time
    proportional to the ops since the previous one. A matching's edges that
    are removed later in the current phase are exempt from the check at its
    op boundaries (phase atomicity). Forest validity is decided offline
    once the forward pass is done (see _ForestCheck), in
    O((|S| + q log B) log n) for |S| source edges, q ops, B boundaries and
    n vertices, without the planner's forest index.
    `oracles.replay_reference` rescans the whole state at every boundary
    and is the reference this function is tested against.
    """
    if granularity not in ("per-phase", "per-op"):
        raise DataError(f"unknown granularity {granularity!r}")
    script.validate()
    state: set[int] = set(source)
    weight = sum(map(g.weight, state))
    rows: list[tuple[int, Optional[int], int, float]] = []   # phase, op, size, weight
    per_op = granularity == "per-op"
    matching = script.problem in ("mcm", "mwm")
    check = (_MatchingCheck if matching else _ForestCheck)(g, state)
    # At a matching's op boundaries an edge is checked iff it is in the
    # state and not pending removal. Every pending removal runs before
    # the phase ends, so all edges are checked again there.
    exempt = matching and per_op
    pending_removals: set[int] = set()   # stays empty unless exempt
    by_pair, table = g._by_pair, g._edges

    def snapshot(phase: int, op: Optional[int]) -> None:
        check.boundary(len(state))
        rows.append((phase, op, len(state), weight))

    snapshot(-1, None)
    for pi, ops in enumerate(script.phases):
        # resolve ops against g up front so errors name their location
        resolved: list[tuple[ChangeOp, int, float]] = []
        for oi, op in enumerate(ops):
            u, v = op.u, op.v
            eid = by_pair.get((u, v) if u <= v else (v, u))
            if eid is None:
                raise DataError(f"phase {pi} op {oi}: edge ({u},{v}) not in graph")
            gw = table[eid][2]
            if op.w != gw and abs(gw - op.w) > slack(gw):
                raise DataError(f"phase {pi} op {oi}: recorded weight {op.w} "
                                f"!= graph weight {gw}")
            resolved.append((op, eid, gw))
        if exempt:
            pending_removals = {eid for op, eid, _ in resolved
                                if op.kind == "remove"}
            for eid in pending_removals & state:
                check.remove(eid)
        for oi, (op, eid, gw) in enumerate(resolved):
            if op.kind == "add":
                if eid in state:
                    raise DataError(f"phase {pi} op {oi}: adding present edge "
                                    f"({op.u},{op.v})")
                state.add(eid)
                weight += gw
                if eid not in pending_removals:
                    check.add(eid)
            else:   # a remove: validate() admits no other kind
                if eid not in state:
                    raise DataError(f"phase {pi} op {oi}: removing absent edge "
                                    f"({op.u},{op.v})")
                state.remove(eid)
                weight -= gw
                if eid not in pending_removals:
                    check.remove(eid)
                pending_removals.discard(eid)
            if per_op and oi < len(resolved) - 1:
                snapshot(pi, oi)
        snapshot(pi, None)

    boundaries = [Boundary(i, phase, op, valid, size, w)
                  for i, ((phase, op, size, w), valid)
                  in enumerate(zip(rows, check.verdicts()))]
    worst_size = min(map(itemgetter(2), rows))
    worst_weight = min(map(itemgetter(3), rows))
    counts = [len(ops) for ops in script.phases]
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
    """Check every phase against the problem's phase_budget, then the
    per-problem quality floor at every boundary of the report.

    mcm: phase-end sizes >= min(|source|, |target|-1), validity at phase
    ends. mwm: phase-end weight >= max(w-W, (1-eps)w) and op-end weight
    >= w-W, both referenced to the lighter of source/target (the reverse
    convention for reversed scripts). msf: phase-end weight <= max of the
    two totals, validity.
    """
    if problem != report.problem:
        raise DataError(f"problem tag mismatch: report={report.problem!r} "
                        f"check={problem!r}")
    delta = phase_budget(problem, epsilon)
    for i, count in enumerate(report.phase_op_counts):
        if count > delta:
            return GuaranteeResult(False, f"phase {i} has {count} ops > {delta}")
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

    # msf: phase_budget raised for any problem not in PROBLEMS
    ceiling = max(source_stats.total_weight, target_stats.total_weight)
    tol = slack(ceiling)
    for b in phase_ends:
        if not b.valid:
            return GuaranteeResult(False, "invalid forest at phase end", b)
        if b.weight > ceiling + tol:
            return GuaranteeResult(
                False, f"phase-end weight {b.weight} > ceiling {ceiling}", b)
    return GuaranteeResult(True)


def report_to_csv_rows(report: ReplayReport) -> list[list]:
    rows = [["boundary_index", "phase", "op", "valid", "size", "weight"]]
    for b in report.boundaries:
        rows.append([b.index, b.phase, "" if b.op is None else b.op,
                     int(b.valid), b.size, repr(b.weight)])
    return rows
