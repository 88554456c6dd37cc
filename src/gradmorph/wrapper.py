"""Recourse-bounding wrapper for dynamic matching algorithms.

The wrapper re-uses its output matching across a window of updates while a
snapshot of the inner algorithm's matching is gradually transformed in: the
first half of the window makes no output changes, and the second half
plans the transformation at its first step and then plays its ops against
the output under a fixed per-step budget. Adversarial deletions propagate
into the output and the snapshot through O(1) tombstones. Tiny instances
skip the window and resync instantly, which already meets the trivial
recourse budget.

A window's open and its unweighted plan cost O(k) Python work for the k
snapshot edges outside the output, plus a few C-level passes over the
snapshot's ids: the open reads and checks only those target-only edges
(the shared ones are output edges, live and disjoint), and the plan runs
the mcm core on them over the output's own vertex index, with no copy.
The weighted plan still builds the snapshot matching and runs
plan_mwm_auto whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import itemgetter
from typing import Optional

from . import mcm
from .graph import (ContractError, DataError, DeltaReport, Graph, Matching,
                    UpdateEvent)
from .mwm import plan_mwm_auto
from .script import TransformationScript

EPS_MAX = 0.4                 # keeps the internal window ratio <= 1/2
WINDOW_RATIO_FACTOR = 1.25    # window length ~ 1.25 * eps * matching size
RECOURSE_FACTOR = 16          # asserted per-step output-change bound
SIM_FACTOR = 15               # per-step transformation op budget
SMALL_FACTOR = 12             # instant-switch threshold
BOOTSTRAP_CAP = 8             # snapshot floor so an empty output can grow


@dataclass
class OutputDelta:
    added: list[int] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)

    def recourse(self) -> int:
        return len(self.added) + len(self.removed)


@dataclass
class TraceRow:
    step: int
    event: str
    recourse_added: int
    recourse_removed: int
    output_size: int
    output_weight: float
    inner_size: int
    window_phase: str
    opt_size: Optional[int] = None


class InnerAlgorithm:
    """Contract for wrapped dynamic matching algorithms.

    handle_update runs after the shared graph g has been mutated and
    returns the change to the algorithm's own matching, held in
    self.matching. emit_edges(l) returns a new list of up to l edge ids of
    the current matching; the wrapper keeps it as a window's snapshot.
    """

    beta: float = 1.0
    g: Graph
    matching: Matching

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        raise NotImplementedError

    def matching_ids(self) -> list[int]:
        return self.matching.edge_ids()

    def current_size(self) -> int:
        return len(self.matching)

    def current_weight(self) -> float:
        return self.matching.weight()

    def emit_edges(self, count: int) -> list[int]:
        ids = self.matching_ids()
        return ids[:count]


class GreedyMaximalMatching(InnerAlgorithm):
    """Maximal matching under updates: a 2-MCM with O(1) recourse."""

    beta = 2.0

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.matching = Matching(g)

    def _try_match(self, v: int, out: OutputDelta) -> None:
        if not self.g.has_vertex(v) or self.matching.matched_edge(v) is not None:
            return
        for eid in sorted(self.g.incident(v)):
            a, b, _ = self.g.edge(eid)
            other = b if a == v else a
            if self.matching.matched_edge(other) is None:
                self.matching.add(eid)
                out.added.append(eid)
                return

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        out = OutputDelta()
        freed: list[int] = []
        for eid, u, v, _ in delta.removed:
            if self.matching.discard_dead(eid, (u, v)):
                out.removed.append(eid)
                freed.extend((u, v))
        for x in freed:
            self._try_match(x, out)
        for eid, u, v, _ in delta.added:
            if (self.matching.matched_edge(u) is None
                    and self.matching.matched_edge(v) is None):
                self.matching.add(eid)
                out.added.append(eid)
        return out


class BatchRecompute(InnerAlgorithm):
    """Periodic from-scratch approximate matching with instant swaps.

    Recomputes a (1 + eps_in/4)-MCM by bounded-length augmenting-path
    search every floor(eps_in/4 * |M|) steps and swaps the whole output at
    once, so its worst-case recourse is as large as the matching. Between
    recomputes the frozen matching only loses deleted edges.
    """

    def __init__(self, g: Graph, eps_in: float = 0.5) -> None:
        if not (0 < eps_in <= 2.0):
            raise DataError(f"eps_in {eps_in} outside (0, 2]")
        self.g = g
        self.eps_in = eps_in
        self.beta = 1.0 + eps_in
        # no augmenting path of length <= 2k-1 => (1 + 1/k)-approximate;
        # k = ceil(4/eps_in) gives a (1 + eps_in/4) static matching, and the
        # staleness factor (1 + eps_in/2) keeps the product within beta
        self.max_free_steps = math.ceil(4.0 / eps_in)
        self.matching = Matching(g)
        self._steps_until_recompute = 1

    def _find_augmenting_path(self, root: int) -> Optional[list[int]]:
        """Exhaustive DFS over simple alternating paths from a free vertex.

        Branches only at non-matching edges (the matched continuation is
        forced), so a path using j non-matching edges has length 2j - 1.
        Sound on general graphs: unlike layered BFS it cannot be blinded
        by odd cycles.
        """
        m = self.matching
        g = self.g
        on_path = {root}
        free_edges: list[int] = []

        def dfs(x: int, steps_left: int) -> bool:
            for eid in sorted(g.incident(x)):
                if eid in m.edges:
                    continue
                a, b, _ = g.edge(eid)
                y = b if a == x else a
                if y in on_path:
                    continue
                mate_edge = m.matched_edge(y)
                free_edges.append(eid)
                if mate_edge is None:
                    return True
                if steps_left > 1:
                    ma, mb, _ = g.edge(mate_edge)
                    z = mb if ma == y else ma
                    if z not in on_path:
                        on_path.add(y)
                        on_path.add(z)
                        if dfs(z, steps_left - 1):
                            return True
                        on_path.discard(y)
                        on_path.discard(z)
                free_edges.pop()
            return False

        if dfs(root, self.max_free_steps):
            return free_edges
        return None

    def _recompute(self) -> None:
        # newest-first greedy seed: deliberately unanchored to the previous
        # output, so a swap can replace the whole matching
        m = Matching(self.g)
        for eid in sorted(self.g.edge_ids(), reverse=True):
            u, v, _ = self.g.edge(eid)
            if m.matched_edge(u) is None and m.matched_edge(v) is None:
                m.add(eid)
        self.matching = m
        improved = True
        while improved:
            improved = False
            for root in sorted(self.g.vertices):
                if m.matched_edge(root) is not None:
                    continue
                path = self._find_augmenting_path(root)
                if path is not None:
                    self._augment(path)
                    improved = True

    def _augment(self, free_edges: list[int]) -> None:
        """Flip along an augmenting path given its non-matching edges."""
        m = self.matching
        for eid in free_edges:
            u, v, _ = self.g.edge(eid)
            for x in (u, v):
                blocked = m.matched_edge(x)
                if blocked is not None:
                    m.remove(blocked)
        for eid in free_edges:
            m.add(eid)

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        out = OutputDelta()
        for eid, u, v, _ in delta.removed:
            if self.matching.discard_dead(eid, (u, v)):
                out.removed.append(eid)
        self._steps_until_recompute -= 1
        if self._steps_until_recompute <= 0:
            before = set(self.matching.edges)
            self._recompute()
            after = set(self.matching.edges)
            out.added.extend(sorted(after - before))
            out.removed.extend(sorted(before - after))
            cadence = math.floor(self.eps_in / 4.0 * len(self.matching))
            self._steps_until_recompute = max(1, cadence)
        return out


@dataclass
class WindowState:
    length: int
    first_half: int
    frozen: set[int]                 # live ids of the truncated inner snapshot
    order: list[int]                 # the snapshot's ids as emitted
    target_only: list[int]           # snapshot ids outside the output at open
    groups: Optional[list[list[tuple[str, int]]]] = None   # phase-atomic ops
    group_cursor: int = 0
    elapsed: int = 0


def emitted_ids(inner: InnerAlgorithm, cap: int) -> list[int]:
    """inner.emit_edges(cap), refused when it returns more than cap ids."""
    ids = inner.emit_edges(cap)
    if len(ids) > cap:
        raise ContractError(f"inner emitted {len(ids)} edges for cap {cap}")
    return ids


def checked_snapshot(g: Graph, output: Matching,
                     ids: list[int]) -> tuple[set[int], list[int]]:
    """The set of ids and, in the ids' order, those outside output, once
    ids are checked to be a matching of g; accepts exactly what
    Matching(g, ids) accepts.

    output must be a matching of g, so the ids it shares are live and
    disjoint and need no check of their own. The k others are read in one
    pass: they must be live and, with the shared edges, cover 2|ids|
    distinct endpoints. A fault reruns the check edge by edge, as
    Matching(g, ids), to name the first faulty id. O(k) plus C-level
    passes over ids."""
    frozen = set(ids)
    target_only = list(filterfalse(output.edges.__contains__, ids))
    try:
        rows = list(map(g._edges.__getitem__, target_only))
    except KeyError:
        ok = False
    else:
        ends = set(map(itemgetter(0), rows))
        ends.update(map(itemgetter(1), rows))
        ok = (len(frozen) == len(ids) and len(ends) == 2 * len(rows)
              and frozen.isdisjoint(map(output.vertex_index.get, ends)))
    if not ok:
        try:
            Matching(g, ids)
        except DataError as exc:
            raise ContractError(
                f"inner emitted an invalid sub-matching: {exc}") from None
    return frozen, target_only


@dataclass
class WindowScript(TransformationScript):
    """An mcm script with its ops as (kind, edge id) pairs, as planned:
    groups[i][j] names phases[i].ops[j]."""

    groups: list[list[tuple[str, int]]] = field(default_factory=list)


def plan_mcm(g: Graph, output: Matching, target_only: list[int],
             target_size: int) -> WindowScript:
    """A window's unweighted plan from the output to a snapshot of
    target_size live edges, target_only of them outside the output. Checks
    the output in a whole-set pass, then runs the mcm core: O(k) Python
    work for k target-only edges."""
    mcm.require_valid(g, "current", output)
    phases, groups = mcm.plan_target_only(g, output, target_only, target_size)
    script = WindowScript("mcm", mcm.MCM_PHASE_BUDGET, None, phases, groups)
    script.validate()
    return script


class WrappedMatching:
    """Bounds the per-step output recourse of any inner matching algorithm
    to RECOURSE_FACTOR * ceil(psi_eff / eps) changes."""

    def __init__(self, g: Graph, inner: InnerAlgorithm, eps: float,
                 weighted: bool = False, psi: float = 1.0) -> None:
        if not (0 < eps <= EPS_MAX):
            raise DataError(f"epsilon {eps} outside (0, {EPS_MAX}]")
        if weighted and psi < 1.0:
            raise DataError(f"aspect-ratio bound psi {psi} < 1")
        self.g = g
        self.inner = inner
        self.eps = eps
        self.weighted = weighted
        self.psi_eff = psi if weighted else 1.0
        self.window_ratio = WINDOW_RATIO_FACTOR * eps
        self.recourse_budget = RECOURSE_FACTOR * math.ceil(self.psi_eff / eps)
        self.sim_budget = SIM_FACTOR * math.ceil(self.psi_eff / eps)
        self.small_threshold = SMALL_FACTOR * math.ceil(self.psi_eff / eps)
        self.declared_beta = inner.beta * (1.0 + 2.0 * self.window_ratio) ** 2
        self.output = Matching(g)
        self.window: Optional[WindowState] = None
        self.windows = 0      # windows opened
        self.switches = 0     # instant switches
        self.step_count = 0
        self.last_window_phase = "idle"

    # -- window machinery ----------------------------------------------

    def _open_window(self, out: OutputDelta) -> None:
        src_size = len(self.output)
        cap = max(2 * src_size, BOOTSTRAP_CAP)
        ids = emitted_ids(self.inner, cap)
        frozen, target_only = checked_snapshot(self.g, self.output, ids)
        if src_size + len(ids) <= self.small_threshold:
            # instant switch: trivial recourse, no window
            for eid in list(self.output.edges):
                if eid not in frozen:
                    self.output.remove(eid)
                    out.removed.append(eid)
            for eid in target_only:
                self.output.add(eid)
                out.added.append(eid)
            self.switches += 1
            self.last_window_phase = "switch"
            return
        length = max(2, math.floor(
            self.window_ratio * min(src_size, len(ids)) / self.psi_eff))
        self.window = WindowState(
            length=length,
            first_half=length // 2,
            frozen=frozen,
            order=ids,
            target_only=target_only,
        )
        self.windows += 1
        self.last_window_phase = "first"

    def _plan_window_ops(self, win: WindowState) -> list[list[tuple[str, int]]]:
        """Phase-atomic op groups with edge ids resolved at plan time, so
        edges deleted (or deleted and reincarnated under the same endpoint
        pair) later in the window are skipped rather than misapplied.

        Plans from the output itself: until this first playback step the
        window has changed it only by tombstones, so the target-only edges
        are those of the open that are still live."""
        if self.weighted:
            target = Matching(self.g, filter(win.frozen.__contains__, win.order))
            script = plan_mwm_auto(self.g, self.output, target, min(self.eps, 0.5))
            return [[(op.kind, self.g.edge_id(op.u, op.v)) for op in ph.ops]
                    for ph in script.phases]
        target_only = list(filter(win.frozen.__contains__, win.target_only))
        return plan_mcm(self.g, self.output, target_only, len(win.frozen)).groups

    def _window_step(self, out: OutputDelta) -> None:
        win = self.window
        if win is None:
            return
        if win.elapsed < win.first_half:
            self.last_window_phase = "first"
        else:
            if win.groups is None:
                win.groups = self._plan_window_ops(win)
            spent = 0
            while win.group_cursor < len(win.groups):
                group = win.groups[win.group_cursor]
                if spent > 0 and spent + len(group) > self.sim_budget:
                    break  # group stays atomic; finish it next step
                win.group_cursor += 1
                # removals first: the group's adds then land on free vertices
                for kind, eid in group:
                    if kind == "remove" and eid in self.output.edges:
                        self.output.remove(eid)
                        out.removed.append(eid)
                        spent += 1
                for kind, eid in group:
                    if kind != "add" or not self.g.has_edge_id(eid) \
                            or eid in self.output.edges:
                        continue
                    u, v = self.g.endpoints(eid)
                    if self.output.matched_edge(u) is not None or \
                            self.output.matched_edge(v) is not None:
                        raise ContractError(
                            f"window op add ({u},{v}) conflicts with output")
                    self.output.add(eid)
                    out.added.append(eid)
                    spent += 1
            self.last_window_phase = "second"
        win.elapsed += 1
        if win.elapsed >= win.length:
            if win.groups is None or win.group_cursor < len(win.groups):
                raise ContractError("window closed before its ops completed")
            left = win.frozen - self.output.edges.keys()
            if any(map(self.g.has_edge_id, left)):
                eid = next(e for e in win.order
                           if e in left and self.g.has_edge_id(e))
                raise ContractError(
                    f"window closed without absorbing target edge {eid}")
            self.window = None

    # -- update entry point ----------------------------------------------

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        """Process one update (graph already mutated; delta names the dead
        and new edges). Returns the change to the output matching."""
        self.step_count += 1
        out = OutputDelta()
        self.inner.handle_update(ev, delta)
        # tombstones: a deletion leaves every held matching in O(1)
        win = self.window
        for eid, u, v, _ in delta.removed:
            if self.output.discard_dead(eid, (u, v)):
                out.removed.append(eid)
            if win is not None:
                win.frozen.discard(eid)
        if self.window is None:
            # snapshot-and-switch or open; never combined with playback, so
            # one step is charged at most one kind of work
            self._open_window(out)
        else:
            self._window_step(out)
        if out.recourse() > self.recourse_budget:
            raise ContractError(
                f"recourse {out.recourse()} exceeds budget {self.recourse_budget} "
                f"at step {self.step_count}")
        return out

    # -- queries -----------------------------------------------------------

    def matching_ids(self) -> list[int]:
        return self.output.edge_ids()

    def current_size(self) -> int:
        return len(self.output)

    def current_weight(self) -> float:
        return self.output.weight()
