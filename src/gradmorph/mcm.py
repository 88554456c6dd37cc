"""Unweighted matching transformation planner.

Each phase adds one target-only edge (edges blocked by at most one current
edge take strict precedence) and then removes the current edges incident
on it, so every phase makes at most three changes and phase-end size never
drops below min(|source|, |target| - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ContractError, DataError, Graph, Matching, validate_matching
from .script import ChangeOp, Phase, TransformationScript

MCM_PHASE_BUDGET = 3


class _LinkedList:
    """Intrusive doubly-linked list over edge ids; O(1) detach by id."""

    __slots__ = ("prev", "next", "head", "tail")

    def __init__(self) -> None:
        self.prev: dict[int, int | None] = {}
        self.next: dict[int, int | None] = {}
        self.head: int | None = None
        self.tail: int | None = None

    def __bool__(self) -> bool:
        return self.head is not None

    def __contains__(self, eid: int) -> bool:
        return eid in self.prev

    def __len__(self) -> int:
        return len(self.prev)

    def append(self, eid: int) -> None:
        self.prev[eid] = self.tail
        self.next[eid] = None
        if self.tail is None:
            self.head = eid
        else:
            self.next[self.tail] = eid
        self.tail = eid

    def detach(self, eid: int) -> None:
        p, n = self.prev.pop(eid), self.next.pop(eid)
        if p is None:
            self.head = n
        else:
            self.next[p] = n
        if n is None:
            self.tail = p
        else:
            self.prev[n] = p

    def pop_head(self) -> int:
        eid = self.head
        if eid is None:
            raise ContractError("pop from empty list")
        self.detach(eid)
        return eid

    def ids(self) -> list[int]:
        out = []
        x = self.head
        while x is not None:
            out.append(x)
            x = self.next[x]
        return out


@dataclass
class EdgeClassification:
    """Target-only edges split by how many current edges block them."""

    good: _LinkedList
    bad: _LinkedList
    blocker_count: dict[int, int]        # target-only eid -> #blocking edges
    blocked_by: dict[int, list[int]]     # current eid -> target-only eids it blocks

    def good_ids(self) -> list[int]:
        return self.good.ids()

    def bad_ids(self) -> list[int]:
        return self.bad.ids()


def classify(g: Graph, current: Matching, target: Matching) -> EdgeClassification:
    """Split target-only edges into good (blocked by at most one current
    edge) and bad (blocked by two). O(|current| + |target|)."""
    for name, m in (("current", current), ("target", target)):
        report = validate_matching(g, m)
        if not report:
            raise DataError(f"{name} matching invalid: {report.reason}")
    good, bad = _LinkedList(), _LinkedList()
    blocker_count: dict[int, int] = {}
    blocked_by: dict[int, list[int]] = {}
    table, matched, held = g._edges, current.vertex_index, current.edges
    for eid in [e for e in target.edges if e not in held]:
        u, v, _ = table[eid]
        blockers = {b for b in (matched.get(u), matched.get(v)) if b is not None}
        blocker_count[eid] = len(blockers)
        for b in blockers:
            blocked_by.setdefault(b, []).append(eid)
        (good if len(blockers) <= 1 else bad).append(eid)
    return EdgeClassification(good, bad, blocker_count, blocked_by)


def plan_mcm(g: Graph, source: Matching, target: Matching) -> TransformationScript:
    """Plan phases transforming source into a superset of target.

    Runs in O(|source| + |target|); the emitted script passes
    check_guarantee("mcm").
    """
    cls = classify(g, source, target)
    work = source.copy()
    phases: list[Phase] = []
    target_size = len(target)

    def on_removed(blocker: int) -> None:
        for te in cls.blocked_by.pop(blocker, ()):
            if te not in cls.blocker_count:
                continue  # already planned
            cls.blocker_count[te] -= 1
            if cls.blocker_count[te] == 1 and te in cls.bad:
                cls.bad.detach(te)
                cls.good.append(te)

    while cls.good or cls.bad:
        if cls.good:
            eid = cls.good.pop_head()
        else:
            # every remaining target-only edge is blocked twice
            if len(work) < target_size:
                raise ContractError(
                    f"bad-edge invariant breach: |work| = {len(work)} < "
                    f"|target| = {target_size} with no good edges")
            eid = cls.bad.pop_head()
        del cls.blocker_count[eid]
        u, v, w = g.edge(eid)
        blockers = sorted({b for b in (work.matched_edge(u), work.matched_edge(v))
                           if b is not None})
        ops = [ChangeOp("add", u, v, w)]
        for b in blockers:
            bu, bv, bw = g.edge(b)
            ops.append(ChangeOp("remove", bu, bv, bw))
        for b in blockers:
            work.remove(b)
            on_removed(b)
        work.add(eid)
        phases.append(Phase(ops))

    script = TransformationScript("mcm", MCM_PHASE_BUDGET, None, phases)
    script.validate()
    return script
