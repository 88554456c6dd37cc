"""Phase/operation scripts shared by all planners, plus the replay verifier.

A script holds the planners' own op format, each phase a group of (kind,
edge id) pairs, with the graph whose ids they name. Its JSON form names
each op's edge by its endpoints and weight: to_json reads them from the
graph's edge table, and from_json, the one place where a script's endpoint
pair becomes an edge id, resolves them against the graph it is given.
replay checks a script mechanically against that graph and a source
solution, recording validity and quality at every requested boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional

from .graph import DataError, Graph, SolutionStats, slack

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
    """Δ, the most ops one phase may make: the one (problem, epsilon) rule
    that scripts are made to and check_guarantee checks. mwm takes epsilon
    in (0, 1/2], mcm and msf take none."""
    if problem == "mwm":
        if epsilon is None or not (0 < epsilon <= MWM_EPS_MAX):
            raise DataError(f"mwm needs epsilon in (0, 1/2], got {epsilon}")
        return 3 * math.ceil(1.0 / epsilon) + 3
    if problem not in PROBLEMS:
        raise DataError(f"unknown problem {problem!r}")
    if epsilon is not None:
        raise DataError(f"{problem} takes no epsilon, got {epsilon}")
    return MCM_PHASE_BUDGET if problem == "mcm" else MSF_PHASE_BUDGET


def reversed_groups(groups: list[Group]) -> list[Group]:
    """The undo of groups: groups in reverse order, each op inverted, op
    order within a group reversed (so removals still precede the adds that
    reuse their endpoints)."""
    return [[(_INVERSE[kind], eid) for kind, eid in reversed(group)]
            for group in reversed(groups)]


@dataclass
class TransformationScript:
    g: Graph             # the graph whose edge ids the phases name
    problem: str
    epsilon: Optional[float] = None
    phases: list[Group] = field(default_factory=list)   # each phase's ops

    def __post_init__(self) -> None:
        self.validate()

    @property
    def budget(self) -> int:
        return phase_budget(self.problem, self.epsilon)

    def validate(self) -> None:
        """The structural check, run when the script is made: a problem and
        epsilon that phase_budget accepts, non-empty phases, and only add
        and remove ops. check_guarantee holds each phase to the budget."""
        phase_budget(self.problem, self.epsilon)
        for i, ops in enumerate(self.phases):
            if not ops:
                raise DataError(f"phase {i} is empty")
            for j, (kind, _) in enumerate(ops):
                # a tuple, not a hash lookup: a kind read from JSON may be a list
                if kind not in ("add", "remove"):
                    raise DataError(f"phase {i} op {j}: unknown op kind {kind!r}")

    def num_ops(self) -> int:
        return sum(map(len, self.phases))

    def reversed_script(self) -> "TransformationScript":
        """The undo script: reversed_groups of the phases."""
        self.validate()
        return TransformationScript(self.g, self.problem, self.epsilon,
                                    reversed_groups(self.phases))

    # -- serialization --------------------------------------------------

    def _lost_edge(self) -> DataError:
        """The error naming the first op whose edge id g no longer holds."""
        table = self.g._edges
        i, j, eid = next((i, j, eid) for i, ops in enumerate(self.phases)
                         for j, (_, eid) in enumerate(ops) if eid not in table)
        return DataError(f"phase {i} op {j}: no edge with id {eid}")

    def to_json_obj(self) -> dict:
        table = self.g._edges
        try:
            phases = [{"ops": [{"op": kind, "u": u, "v": v, "w": w}
                               for kind, eid in ops for u, v, w in (table[eid],)]}
                      for ops in self.phases]
        except KeyError:
            raise self._lost_edge() from None
        return {"problem": self.problem, "epsilon": self.epsilon,
                "budget": self.budget, "phases": phases}

    def to_json(self, manifest: Optional[dict] = None) -> str:
        """json.dumps(obj, indent=1) of to_json_obj(), with manifest as a
        last "manifest" key when given, byte for byte. It is written
        directly, because json.dumps with an indent runs its pure-Python
        encoder: the op values go through its C encoder a column at a time,
        and only the manifest, which is small, takes the indented path."""
        ops = [op for phase in self.phases for op in phase]
        kinds = {kind: json.dumps(kind) for kind in set(map(itemgetter(0), ops))}
        try:
            rows = list(map(self.g._edges.__getitem__, map(itemgetter(1), ops)))
        except KeyError:
            raise self._lost_edge() from None
        columns = [[kinds[kind] for kind, _ in ops]] + [
            _json_numbers(list(map(itemgetter(i), rows))) for i in range(3)]
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
    def from_json(text: str, g: Graph) -> "TransformationScript":
        """The script that text holds, on g: each op's endpoint pair is
        resolved to its edge id in g, and its recorded weight must equal
        g's within slack; an error names the phase and op. Phases and ops
        must be JSON arrays, vertex ids and the budget JSON integers, weights
        and a non-null epsilon JSON numbers (never bools or strings), the
        epsilon finite, and the budget the problem's phase_budget."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"script is not valid JSON: {exc}") from exc
        by_pair, table = g._by_pair, g._edges
        try:
            phases = []
            if type(obj["phases"]) is not list:
                raise TypeError("phases is not a list")
            for i, phase in enumerate(obj["phases"]):
                ops = []
                if type(phase["ops"]) is not list:
                    raise TypeError(f"phase {i}: ops is not a list")
                for j, op in enumerate(phase["ops"]):
                    u, v, w = op["u"], op["v"], op["w"]
                    if type(u) is not int or type(v) is not int:   # nor bool
                        raise TypeError(f"phase {i} op {j}: vertex ids "
                                        f"{u!r}, {v!r} are not both integers")
                    if type(w) not in (int, float):
                        raise TypeError(f"phase {i} op {j}: weight {w!r} is not a number")
                    eid = by_pair.get((u, v) if u <= v else (v, u))
                    if eid is None:
                        raise DataError(f"phase {i} op {j}: edge ({u},{v}) not in graph")
                    gw = table[eid][2]
                    # a NaN recorded weight fails this test too
                    if w != gw and not abs(gw - w) <= slack(gw):
                        raise DataError(f"phase {i} op {j}: recorded weight {w} "
                                        f"!= graph weight {gw}")
                    ops.append((op["op"], eid))
                phases.append(ops)
            eps, budget = obj.get("epsilon"), obj["budget"]
            if type(budget) is not int:
                raise TypeError(f"budget {budget!r} is not an integer")
            if eps is not None and (type(eps) not in (int, float)
                                    or not math.isfinite(eps)):
                raise TypeError(f"epsilon {eps!r} is not a finite number")
            script = TransformationScript(
                g, obj["problem"], None if eps is None else float(eps), phases)
            if budget != script.budget:
                raise ValueError(f"budget {budget} is not the {script.problem} "
                                 f"phase budget {script.budget}")
            return script
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    phase_op_counts: list[int]

    @property
    def worst_size(self) -> int:
        return min(b.size for b in self.boundaries)

    @property
    def worst_weight(self) -> float:
        return min(b.weight for b in self.boundaries)

    @property
    def max_phase_ops(self) -> int:
        return max(self.phase_op_counts, default=0)

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

    The script must be on g itself: its phases name g's edge ids. Structural
    op failures (adding a present edge, removing an absent one, an id that
    g no longer holds) raise DataError naming the phase and op; validity
    problems are recorded as data in the report.

    Matching validity is kept incrementally, so a boundary costs time
    proportional to the ops since the previous one. A matching's edges that
    are removed later in the current phase are exempt from the check at its
    op boundaries (phase atomicity). Forest validity is decided offline
    once the forward pass is done (see _ForestCheck), in
    O((|S| + q log B) log n) for |S| source edges, q ops, B boundaries and
    n vertices, without the planner's forest index.
    tests/replay_reference.py rescans the whole state at every boundary
    and is the reference this function is tested against.
    """
    if granularity not in ("per-phase", "per-op"):
        raise DataError(f"unknown granularity {granularity!r}")
    if script.g is not g:
        raise DataError("the script names the edge ids of another graph")
    script.validate()
    state: set[int] = set(source)
    weight = sum(map(g.weight, state), 0.0)
    rows: list[tuple[int, Optional[int], int, float]] = []   # phase, op, size, weight
    per_op = granularity == "per-op"
    matching = script.problem in ("mcm", "mwm")
    check = (_MatchingCheck if matching else _ForestCheck)(g, state)
    # At a matching's op boundaries an edge is checked iff it is in the
    # state and not pending removal. Every pending removal runs before
    # the phase ends, so all edges are checked again there.
    exempt = matching and per_op
    pending_removals: set[int] = set()   # stays empty unless exempt
    table = g._edges

    def snapshot(phase: int, op: Optional[int]) -> None:
        check.boundary(len(state))
        rows.append((phase, op, len(state), weight))

    snapshot(-1, None)
    for pi, ops in enumerate(script.phases):
        if exempt:
            # state holds only g's ids: weighing the source checked its own
            pending_removals = {eid for kind, eid in ops if kind == "remove"}
            for eid in pending_removals & state:
                check.remove(eid)
        last = len(ops) - 1
        for oi, (kind, eid) in enumerate(ops):
            row = table.get(eid)
            if row is None:
                raise DataError(f"phase {pi} op {oi}: no edge with id {eid}")
            if kind == "add":
                if eid in state:
                    raise DataError(f"phase {pi} op {oi}: adding present edge "
                                    f"({row[0]},{row[1]})")
                state.add(eid)
                weight += row[2]
                if eid not in pending_removals:
                    check.add(eid)
            else:   # a remove: validate() admits no other kind
                if eid not in state:
                    raise DataError(f"phase {pi} op {oi}: removing absent edge "
                                    f"({row[0]},{row[1]})")
                state.remove(eid)
                weight -= row[2]
                if eid not in pending_removals:
                    check.remove(eid)
                pending_removals.discard(eid)
            if per_op and oi < last:
                snapshot(pi, oi)
        snapshot(pi, None)

    boundaries = [Boundary(i, phase, op, valid, size, w)
                  for i, ((phase, op, size, w), valid)
                  in enumerate(zip(rows, check.verdicts()))]
    return ReplayReport(script.problem, granularity, boundaries,
                        frozenset(state), list(map(len, script.phases)))


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
    per-problem quality floor at every boundary of the report, then that
    the final state holds every target edge.

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
    elif problem == "mwm":
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
    else:   # msf: phase_budget raised for any problem not in PROBLEMS
        ceiling = max(source_stats.total_weight, target_stats.total_weight)
        tol = slack(ceiling)
        for b in phase_ends:
            if not b.valid:
                return GuaranteeResult(False, "invalid forest at phase end", b)
            if b.weight > ceiling + tol:
                return GuaranteeResult(
                    False, f"phase-end weight {b.weight} > ceiling {ceiling}", b)
    # mcm and a heavier mwm target end at a superset of the target, a
    # lighter mwm target and msf at the target itself
    lacking = len(target_stats.edges - report.final_edges)
    if lacking:
        return GuaranteeResult(False, f"final state lacks {lacking} of "
                               f"{len(target_stats.edges)} target edges")
    return GuaranteeResult(True)


def report_to_csv_rows(report: ReplayReport) -> list[list]:
    rows = [["boundary_index", "phase", "op", "valid", "size", "weight"]]
    for b in report.boundaries:
        rows.append([b.index, b.phase, "" if b.op is None else b.op,
                     int(b.valid), b.size, repr(b.weight)])
    return rows
