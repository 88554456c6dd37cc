"""Lower-bound harness: update streams forcing high recourse on accurate
matching maintainers.

Paths grown two edges at a time force an accurate maintainer to flip its
whole matching every growth step. The incremental variant builds many
vertex-disjoint copies adaptively, halting a copy as soon as the subject's
matching restricted to it stops being the unique maximum and resuming it
if the subject ever repairs it. Every stream is measured by
sim.run_simulation; the incremental one is generated lazily as it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Iterator, Optional

from .graph import (ContractError, DataError, DeltaReport, Graph, Matching,
                    UpdateEvent)
from .sim import SimulationResult, run_simulation
from .wrapper import InnerAlgorithm, OutputDelta

PATH_SCALE = 0.25     # l = max(1, floor(PATH_SCALE / eps))
COPY_SCALE = 0.5      # copies = max(1, floor(COPY_SCALE * eps * n))


def path_length_param(eps: float) -> int:
    if eps <= 0:
        raise DataError(f"epsilon {eps} must be positive")
    if not math.isfinite(eps):
        raise DataError(f"epsilon {eps} must be finite")
    return max(1, math.floor(PATH_SCALE / eps))


def gen_fully_dynamic(eps: float, rounds: int, n: int) -> list[UpdateEvent]:
    """Non-adaptive stream: per round, grow one path from empty to length
    4l - 1 (extending both ends two edges at a time past length 2l - 1),
    then tear it down."""
    l = path_length_param(eps)
    span = 4 * l  # vertices of the final path
    if span > n:
        raise DataError(f"need {span} vertices for eps={eps}, have n={n}")
    events: list[UpdateEvent] = []
    # vertex positions 0..span-1; initial segment sits in the middle
    lo, hi = l, 3 * l - 1
    for _ in range(rounds):
        present: list[tuple[int, int]] = []

        def ins(a: int, b: int) -> None:
            events.append(UpdateEvent.edge_insert(a, b, 1.0))
            present.append((a, b))

        for x in range(lo, hi):
            ins(x, x + 1)
        left, right = lo, hi
        while left > 0:
            ins(left - 1, left)
            ins(right, right + 1)
            left -= 1
            right += 1
        for a, b in present:
            events.append(UpdateEvent.edge_delete(a, b))
    return events


def canonical_path_matching(path_edges: list[int]) -> set[int]:
    """Edges at odd positions along the path (first, third, ...): the
    maximum matching, unique when the path length is odd."""
    return set(path_edges[0::2])


class ExactPathMaintainer(InnerAlgorithm):
    """Maintains the canonical maximum matching on disjoint-path graphs.

    The harness's streams only ever form vertex-disjoint paths; anything
    else is a contract error.
    """

    beta = 1.0

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.matching = Matching(g)

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        out = OutputDelta()
        touched: set[int] = set()
        for eid, u, v, _ in delta.removed:
            if self.matching.discard_dead(eid, (u, v)):
                out.removed.append(eid)
            touched.update((u, v))
        for eid, u, v, _ in delta.added:
            touched.update((u, v))
        done: set[int] = set()
        for x in sorted(touched):
            if x in done or not self.g.has_vertex(x) or not self.g.incident(x):
                continue
            # find an end of x's path, then recompute its canonical matching
            path = self._path_from_any(x)
            for e, a, b in [(e, *self.g.endpoints(e)) for e in path]:
                done.update((a, b))
            want = canonical_path_matching(path)
            have = {e for e in path if e in self.matching}
            for e in sorted(have - want):
                self.matching.remove(e)
                out.removed.append(e)
            for e in sorted(want - have):
                self.matching.add(e)
                out.added.append(e)
        return out

    def _path_from_any(self, v: int) -> list[int]:
        """Ordered edge list of v's path, from the end that the walk from v
        reaches first in incident-set order, not by id. On even lengths the
        maintained matching depends on it; the adversary checks odd ones."""
        g = self.g
        # walk to one end
        x = v
        prev = None
        while True:
            step = [e for e in g.incident(x) if e != prev]
            if len(step) + (1 if prev is not None else 0) > 2:
                raise ContractError("adversary graph is not a disjoint union of paths")
            if not step:
                break
            prev = step[0]
            a, b, _ = g.edge(prev)
            x = b if a == x else a
        # x is an end; walk the full path
        ordered = []
        prev = None
        while True:
            step = [e for e in g.incident(x) if e != prev]
            if not step:
                break
            e = step[0]
            ordered.append(e)
            a, b, _ = g.edge(e)
            x = b if a == x else a
            prev = e
        return ordered


class StaticSubject(InnerAlgorithm):
    """Zero-recourse straw man: never changes its (empty) matching."""

    beta = float("inf")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.matching = Matching(g)

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        return OutputDelta()


@dataclass
class CopyState:
    index: int
    base: int                 # first vertex id of the copy's block
    length: int = 0           # current number of edges
    edges: list[int] = field(default_factory=list)   # eids, left to right
    lo: int = 0
    hi: int = 0
    status: str = "empty"     # empty | growing | suspended | halted | complete
    halt_witness: Optional[tuple[int, int]] = None   # (restricted size, canonical size)


@dataclass
class AdversaryRun:
    l: int
    copies: list[CopyState]
    result: SimulationResult     # the measured run of the stream

    def complete_fraction(self) -> float:
        done = sum(1 for c in self.copies if c.status == "complete")
        return done / len(self.copies) if self.copies else 0.0


class IncrementalAdversary:
    """Adaptive insertion-only adversary for (1+eps)-accurate maintainers.

    stream() is a lazy event stream for sim.run_simulation: it yields one
    insert at a time and resumes once the insert has been applied to g and
    fed to the subject, so each decision reads the subject's current
    matching.
    """

    def __init__(self, g: Graph, subject: InnerAlgorithm, eps: float, n: int) -> None:
        self.g = g
        self.subject = subject
        self.l = path_length_param(eps)
        copies = max(1, math.floor(COPY_SCALE * eps * n))
        span = 4 * self.l
        if copies * span > n:
            raise DataError(f"need {copies * span} vertices "
                            f"(copies={copies}, span={span}), have n={n}")
        self.copies = [CopyState(i, base=i * span) for i in range(copies)]
        self.events: list[UpdateEvent] = []   # the inserts applied so far
        self._stack: list[int] = []           # suspended copy indexes
        # the subject's matching as a set, read once per applied insert
        # rather than copied once per copy checked
        self._matching: Optional[set[int]] = None

    # -- copy geometry ------------------------------------------------

    def _grow(self, copy: CopyState, side: str) -> Iterator[UpdateEvent]:
        """Insert the next edge at one end of the copy's path."""
        if copy.status == "empty":
            copy.lo = copy.hi = copy.base + self.l
            copy.status = "growing"
        if side == "left":
            copy.lo -= 1
            ev = UpdateEvent.edge_insert(copy.lo, copy.lo + 1, 1.0)
        else:
            copy.hi += 1
            ev = UpdateEvent.edge_insert(copy.hi - 1, copy.hi, 1.0)
        yield ev
        # ev is now in g, and the subject has handled it
        self._matching = None
        eid = self.g.edge_id(ev.u, ev.v)
        if side == "left":
            copy.edges.insert(0, eid)
        else:
            copy.edges.append(eid)
        copy.length += 1
        self.events.append(ev)

    def _restricted_ok(self, copy: CopyState) -> bool:
        """Is the subject's matching restricted to the copy the unique
        maximum? Only checked at odd lengths, where the closed form holds."""
        if self._matching is None:
            self._matching = set(self.subject.matching_ids())
        want = canonical_path_matching(copy.edges)
        have = self._matching.intersection(copy.edges)
        if have == want:
            return True
        copy.halt_witness = (len(have), len(want))
        return False

    # -- protocol -------------------------------------------------------

    def _advance(self, copy: CopyState) -> Generator[UpdateEvent, None, bool]:
        """Grow the copy by one conceptual step; returns True when complete."""
        l = self.l
        if copy.length < 2 * l - 1:
            yield from self._grow(copy, "right")
            if copy.length == 2 * l - 1 and not self._restricted_ok(copy):
                copy.status = "halted"
            return False
        yield from self._grow(copy, "left")
        yield from self._grow(copy, "right")
        if copy.length >= 4 * l - 1:
            copy.status = "complete"
            return True
        if not self._restricted_ok(copy):
            copy.status = "halted"
        return False

    def _find_resumable(self) -> Optional[CopyState]:
        for copy in self.copies:
            if copy.status == "halted" and self._restricted_ok(copy):
                copy.halt_witness = None
                return copy
        return None

    def stream(self) -> Iterator[UpdateEvent]:
        current: Optional[CopyState] = None
        while True:
            # a copy that just halted failed this same check on this same
            # matching, so the resumable copy is never current
            resumable = self._find_resumable()
            if resumable is not None:
                if current is not None and current.status == "growing":
                    current.status = "suspended"
                    self._stack.append(current.index)
                current = resumable
                current.status = "growing"
            if current is None or current.status != "growing":
                if self._stack:
                    current = self.copies[self._stack.pop()]
                    current.status = "growing"
                else:
                    current = next((c for c in self.copies
                                    if c.status == "empty"), None)
                    if current is None:
                        return
            if (yield from self._advance(current)):
                current = None


def run_incremental_adversary(subject_factory, eps: float, n: int,
                              ) -> tuple[AdversaryRun, list[UpdateEvent]]:
    """Drive the adaptive incremental adversary against a fresh subject."""
    g = Graph()
    subject = subject_factory(g)
    adv = IncrementalAdversary(g, subject, eps, n)
    result = run_simulation(g, subject, adv.stream())
    return AdversaryRun(adv.l, adv.copies, result), adv.events


def run_decremental_mirror(subject_factory, eps: float, n: int,
                           ) -> AdversaryRun:
    """Replay the incremental stream in reverse as deletions.

    The graph is seeded silently (setup is not measured), then each edge is
    deleted in reverse insertion order under run_simulation. The run keeps
    the mirrored stream's copies and l.
    """
    base, events = run_incremental_adversary(ExactPathMaintainer, eps, n)
    g = Graph()
    subject = subject_factory(g)
    for ev in events:
        subject.handle_update(ev, g.apply_update(ev))
    result = run_simulation(g, subject, [UpdateEvent.edge_delete(ev.u, ev.v)
                                         for ev in reversed(events)])
    return AdversaryRun(base.l, base.copies, result)
