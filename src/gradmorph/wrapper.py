"""Recourse-bounding wrapper for dynamic matching algorithms.

The wrapper re-uses its output matching across a window of updates while a
snapshot of the inner algorithm's matching is gradually transformed in: the
first half of the window makes no output changes, and the second half
plans the transformation at its first step and then plays its ops against
the output under a fixed per-step budget. Adversarial deletions propagate
into the output through O(1) tombstones. Tiny instances
skip the window and resync instantly, which already meets the trivial
recourse budget.

The wrapper mirrors the inner matching from the deltas that the inner's
handle_update returns (see InnerAlgorithm), checking each reported edge in
O(1), and keeps both differences, inner minus output and output minus
inner, up to date as either side changes. A window's snapshot is the
mirror in the order its edges entered it, capped at its first cap ids.
A window is one generator of its steps. With k the snapshot's ids outside
the output, a window:

- opens by reading the k target-only ids and the output-only ids;
- plans after the one matching gate has checked the whole output in
  C-level passes. Unweighted, it runs the mcm core on the k target-only
  edges over the output's own vertex index; weighted, it runs the mwm
  planner, whose gate it is, from the output to the snapshot's live edges.
  Both plan (kind, edge id) groups;
- closes by checking the k target-only edges.

`mwm` is imported inside plan_mwm_auto, the one function that only weighted
windows call, so an unweighted wrapper never loads the weighted planner.
"""

from __future__ import annotations

import math
import weakref
from itertools import count, filterfalse, islice
from typing import Generator, Iterable, Optional

from . import mcm
from .graph import (ContractError, DataError, DeltaReport, Graph, Matching,
                    UpdateEvent, require_valid)
from .script import TransformationScript

EPS_MAX = 0.4                 # keeps the internal window ratio <= 1/2
WINDOW_RATIO_FACTOR = 1.25    # window length ~ 1.25 * eps * matching size
RECOURSE_FACTOR = 16          # asserted per-step output-change bound
SIM_FACTOR = 15               # per-step transformation op budget
SMALL_FACTOR = 12             # instant-switch threshold
BOOTSTRAP_CAP = 8             # snapshot floor so an empty output can grow
STEP_WORK_FACTOR = 16         # reported per-step work budget, see step_work_budget


class OutputDelta:
    """The change to a matching: edge ids removed, then edge ids added."""

    __slots__ = ("added", "removed")

    def __init__(self, added: Optional[list[int]] = None,
                 removed: Optional[list[int]] = None) -> None:
        self.added = [] if added is None else added
        self.removed = [] if removed is None else removed

    def recourse(self) -> int:
        return len(self.added) + len(self.removed)


class InnerAlgorithm:
    """Contract for wrapped dynamic matching algorithms.

    handle_update runs after the shared graph g has been mutated and
    returns the change to the algorithm's own matching, held in
    self.matching. The change must be complete and in application order:
    its removals applied in order, then its adds in order, take the
    matching before the update to the matching after it, and every held
    edge that the update deleted is among the removals. The wrapper
    mirrors the matching from these deltas, seeded once from
    matching_ids(), and checks the mirror's size against current_size()
    at every step.

    A window's snapshot is the mirror in the order its edges entered it,
    and a snapshot capped at cap edges is the first cap of that order. For
    an inner whose matching keeps insertion order and that applies its
    removals before its adds, as greedy does, this is the order of
    matching_ids().
    """

    beta: float = 1.0
    g: Graph
    matching: Matching

    def matching_ids(self) -> list[int]:
        return self.matching.edge_ids()

    def current_size(self) -> int:
        return len(self.matching.edges)

    def current_weight(self) -> float:
        return self.matching.weight()


class GreedyMaximalMatching(InnerAlgorithm):
    """Maximal matching under updates: a 2-MCM with O(1) recourse."""

    beta = 2.0

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.matching = Matching(g)

    def _try_match(self, v: int, out: OutputDelta) -> None:
        matched = self.matching.vertex_index
        if v in matched or not self.g.has_vertex(v):
            return
        table = self.g._edges
        for eid in sorted(self.g.incident(v)):
            a, b, _ = table[eid]
            if (b if a == v else a) not in matched:
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
        matched = self.matching.vertex_index
        for eid, u, v, _ in delta.added:
            if u not in matched and v not in matched:
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


def _invalid(fault: object) -> ContractError:
    return ContractError(f"inner emitted an invalid sub-matching: {fault}")


def plan_mcm(g: Graph, output: Matching, target_only: list[int],
             target_size: int) -> TransformationScript:
    """A window's unweighted plan from the output to a snapshot of
    target_size live edges, target_only of them outside the output: the
    mcm core, O(k) Python work for k target-only edges. The output must
    already be checked, as the window's plan step does."""
    return TransformationScript(
        g, "mcm", None, mcm.plan_target_only(g, output, target_only, target_size))


def plan_mwm_auto(g: Graph, output: Matching, target: Matching,
                  eps: float) -> TransformationScript:
    """A window's weighted plan from the output to the snapshot's live
    edges, target: mwm.plan_mwm_groups's groups, checking both matchings."""
    from . import mwm
    return TransformationScript(g, "mwm", eps,
                                mwm.plan_mwm_groups(g, output, target, eps))


class WrappedMatching:
    """Bounds the per-step output recourse of any inner matching algorithm
    to RECOURSE_FACTOR * ceil(psi_eff / eps) changes.

    max_step_work is the most work one step has spent on the differences
    between the inner matching and the output: ids read at a window's open
    and close, and ops planned. It is reported against step_work_budget,
    not enforced: an open and a plan read the k target-only ids in one
    step, and k grows with the inner's changes over a window of about
    eps * |M| steps. A weighted plan step counts |output| + |snapshot| for
    its build and check of both matchings; an unweighted plan step's check
    of the whole output is apart from it.

    Weighted, every weight the wrapper sees, g's at construction and each
    inserted one, must keep the ratio of the greatest to the least within
    psi, or the update raises DataError naming the edge."""

    def __init__(self, g: Graph, inner: InnerAlgorithm, eps: float,
                 weighted: bool = False, psi: float = 1.0) -> None:
        if not (0 < eps <= EPS_MAX):
            raise DataError(f"epsilon {eps} outside (0, {EPS_MAX}]")
        if weighted and psi < 1.0:
            raise DataError(f"aspect-ratio bound psi {psi} < 1")
        if weighted and not math.isfinite(psi):
            raise DataError(f"aspect-ratio bound psi {psi} is not finite")
        self.g = g
        self.inner = inner
        self.eps = eps
        self.weighted = weighted
        self.psi_eff = psi if weighted else 1.0
        self.window_ratio = WINDOW_RATIO_FACTOR * eps
        self.recourse_budget = RECOURSE_FACTOR * math.ceil(self.psi_eff / eps)
        self.sim_budget = SIM_FACTOR * math.ceil(self.psi_eff / eps)
        self.small_threshold = SMALL_FACTOR * math.ceil(self.psi_eff / eps)
        self.step_work_budget = STEP_WORK_FACTOR * math.ceil(self.psi_eff / eps)
        self.declared_beta = inner.beta * (1.0 + 2.0 * self.window_ratio) ** 2
        if weighted:
            # an inner's beta is for cardinality: for weight it is within
            # psi times that, and a weighted window loses 1/(1 - eps) more
            self.declared_beta *= psi / (1.0 - eps)
        try:
            seed = Matching(g, inner.matching_ids())
        except DataError as exc:
            raise _invalid(exc) from None
        # the inner matching as its deltas give it: edge id -> (entry
        # number, u, v) in entry order, and vertex -> edge id
        self._entries = count()
        self.mirror = {eid: (next(self._entries), *g.endpoints(eid))
                       for eid in seed.edges}
        self.mirror_index = seed.vertex_index
        self.inner_size = len(self.mirror)   # as checked at the last step
        self.window: Optional[Generator[None, OutputDelta, None]] = None
        self.windows = 0      # windows opened
        self.switches = 0     # instant switches
        self.step_count = 0
        self.max_step_work = 0
        self._work = 0        # this step's work, see max_step_work
        self.last_window_phase = "idle"
        self._w_lo, self._w_hi = math.inf, 0.0   # the weights seen
        if weighted:
            for u, v, w in g._edges.values():
                self._see_weight(w, u, v)
        self.adopt_output(())

    def adopt_output(self, ids: Iterable[int]) -> None:
        """Make the matching of g given by ids the output, outside any
        window, and rebuild its two differences from the mirror.
        O(|ids| + |inner|); for starting a wrapper from a known output."""
        if self.window is not None:
            raise ContractError("cannot replace the output inside a window")
        self.output = Matching(self.g, ids)
        held, mirrored = self.output.edges, self.mirror
        self._inner_only = set(filterfalse(held.__contains__, mirrored))
        self._output_only = set(filterfalse(mirrored.__contains__, held))

    def _see_weight(self, w: float, u: int, v: int) -> None:
        """Widen the weights seen to w, on edge (u, v), within ratio psi."""
        lo, hi = min(self._w_lo, w), max(self._w_hi, w)
        if hi > self.psi_eff * lo:
            raise DataError(f"weight {w} on edge ({u},{v}) breaks psi "
                            f"{self.psi_eff}: weights seen span [{lo}, {hi}]")
        self._w_lo, self._w_hi = lo, hi

    # -- the mirror and the output ----------------------------------------

    def _follow_inner(self, change: OutputDelta) -> None:
        """Feed the inner's change to the mirror, removals then adds, and
        keep both differences. Each reported edge is checked in O(1): a
        removal must be held, an add live and disjoint within the mirror."""
        mirror, index, table = self.mirror, self.mirror_index, self.g._edges
        in_output = self.output.edges
        inner_only, output_only = self._inner_only, self._output_only
        for eid in change.removed:
            entry = mirror.pop(eid, None)
            if entry is None:
                raise _invalid(f"edge {eid} not in matching")
            del index[entry[1]], index[entry[2]]
            if eid in in_output:
                output_only.add(eid)
            else:
                inner_only.discard(eid)
        for eid in change.added:
            row = table.get(eid)
            if row is None:
                raise _invalid(f"no edge with id {eid}")
            u, v, _ = row
            if eid in mirror:
                raise _invalid(f"edge {eid} already in matching")
            if u in index or v in index:
                x = u if u in index else v
                raise _invalid(f"vertex {x} already matched by edge {index[x]}")
            mirror[eid] = (next(self._entries), u, v)
            index[u] = index[v] = eid
            if eid in in_output:
                output_only.discard(eid)
            else:
                inner_only.add(eid)

    def _output_add(self, eid: int) -> None:
        self.output.add(eid)
        if eid in self.mirror:
            self._inner_only.discard(eid)
        else:
            self._output_only.add(eid)

    def _output_remove(self, eid: int) -> None:
        self.output.remove(eid)
        if eid in self.mirror:
            self._inner_only.add(eid)
        else:
            self._output_only.discard(eid)

    # -- the window --------------------------------------------------------

    def _window(self) -> Generator[None, OutputDelta, None]:
        """One window as a generator of its steps, each sent the step's
        output change. The first step takes the snapshot: the mirror, or its
        first cap ids in entry order, so it reads the k target-only and the
        output-only ids, or the cap ids when capped (then k >= cap -
        |output| >= |output|). A tiny instance switches to it there, and the
        window ends. Otherwise length // 2 steps make no change; the plan
        step checks the output and plans; playback runs in phase-atomic
        groups under sim_budget; and the last step ends with the close check."""
        out = yield   # primed when made: the first send is the first step
        # through a proxy, the window holds no reference to the wrapper that
        # holds it, so a wrapper dropped mid-window is freed at once
        self = weakref.proxy(self)
        g, output, mirror = self.g, self.output, self.mirror
        src_size = len(output)
        cap = max(2 * src_size, BOOTSTRAP_CAP)
        if len(mirror) <= cap:
            target_only = sorted(self._inner_only, key=mirror.__getitem__)
            output_only = set(self._output_only)
            size = len(mirror)
            self._work += len(target_only) + len(output_only)
        else:
            ids = list(islice(mirror, cap))
            target_only = list(filterfalse(output.edges.__contains__, ids))
            frozen = set(ids)
            output_only = set(filterfalse(frozen.__contains__, output.edges))
            size = cap
            self._work += cap + src_size
        if src_size + size <= self.small_threshold:
            # instant switch: trivial recourse, no window
            for eid in [e for e in output.edges if e in output_only]:
                self._output_remove(eid)
                out.removed.append(eid)
            for eid in target_only:
                self._output_add(eid)
                out.added.append(eid)
            self.switches += 1
            self.last_window_phase = "switch"
            return
        length = max(2, math.floor(
            self.window_ratio * min(src_size, size) / self.psi_eff))
        self.windows += 1
        self.last_window_phase = "first"
        for _ in range(length // 2 + 1):
            out = yield   # the open and the first half make no change
        self.last_window_phase = "second"
        # Only tombstones have changed the output, so the snapshot's live
        # edges are the live target-only ones and the output's edges outside
        # output_only. Ids resolved now make playback skip edges deleted
        # (and maybe reincarnated under the same endpoints) later on.
        output_only = set(filter(output.edges.__contains__, output_only))
        live = list(filter(g._edges.__contains__, target_only))
        if self.weighted:
            # a dead output edge, which only a fault leaves, is for the
            # planner's gate to name
            kept = filterfalse(output_only.__contains__, output.edges)
            target = Matching(g, [*filter(g._edges.__contains__, kept), *live])
            self._work += len(output) + len(target)
            plan = plan_mwm_auto(g, output, target, self.eps)
        else:
            require_valid(g, "source", output)
            plan = plan_mcm(g, output, live,
                            len(output) - len(output_only) + len(live))
        groups = plan.phases
        self._work += plan.num_ops()
        cursor = 0
        for step in range(length - length // 2):
            if step:
                out = yield
            spent = 0
            while cursor < len(groups):
                group = groups[cursor]
                if spent > 0 and spent + len(group) > self.sim_budget:
                    break  # group stays atomic; finish it next step
                cursor += 1
                # removals first: the group's adds then land on free vertices
                for kind, eid in group:
                    if kind == "remove" and eid in output.edges:
                        if eid not in output_only:
                            u, v = g.endpoints(eid)
                            raise ContractError(
                                f"window op remove ({u},{v}) drops a snapshot edge")
                        self._output_remove(eid)
                        out.removed.append(eid)
                        spent += 1
                for kind, eid in group:
                    if kind != "add" or not g.has_edge_id(eid) \
                            or eid in output.edges:
                        continue
                    u, v = g.endpoints(eid)
                    if output.matched_edge(u) is not None or \
                            output.matched_edge(v) is not None:
                        raise ContractError(
                            f"window op add ({u},{v}) conflicts with output")
                    self._output_add(eid)
                    out.added.append(eid)
                    spent += 1
        if cursor < len(groups):
            raise ContractError("window closed before its ops completed")
        # playback removes only output-only edges, so a live snapshot edge
        # outside the output can only be a target-only one
        self._work += len(target_only)
        table, held = g._edges, output.edges
        for eid in target_only:
            if eid in table and eid not in held:
                raise ContractError(
                    f"window closed without absorbing target edge {eid}")

    # -- update entry point ----------------------------------------------

    def handle_update(self, ev: UpdateEvent, delta: DeltaReport) -> OutputDelta:
        """Process one update (graph already mutated; delta names the dead
        and new edges). Returns the change to the output matching."""
        self.step_count += 1
        self._work = 0
        if self.weighted:
            for _, u, v, w in delta.added:
                self._see_weight(w, u, v)
        out = OutputDelta()
        change = self.inner.handle_update(ev, delta)
        if change.removed or change.added:
            self._follow_inner(change)
        mirror = self.mirror
        self.inner_size = size = self.inner.current_size()
        if size != len(mirror):
            raise ContractError(f"inner reports {size} matched edges but its "
                                f"deltas give {len(mirror)}")
        # tombstones: a deletion leaves the output in O(1)
        output = self.output
        for eid, u, v, _ in delta.removed:
            if eid in mirror:
                raise _invalid(f"no edge with id {eid}")
            if eid in output.edges:
                output.discard_dead(eid, (u, v))
                out.removed.append(eid)
                self._output_only.discard(eid)
        window = self.window
        if window is None:
            # the snapshot, then the switch or the open: never combined
            # with playback, so one step is charged one kind of work
            window = self.window = self._window()
            next(window)
        elif window.gi_frame is None:
            # a step of this window raised, so it can never close checked
            raise ContractError("window failed at an earlier step")
        try:
            window.send(out)
        except StopIteration:
            self.window = None
        recourse = len(out.added) + len(out.removed)
        if recourse > self.recourse_budget:
            raise ContractError(
                f"recourse {recourse} exceeds budget {self.recourse_budget} "
                f"at step {self.step_count}")
        if self._work > self.max_step_work:
            self.max_step_work = self._work
        return out

    # -- queries -----------------------------------------------------------

    def matching_ids(self) -> list[int]:
        return self.output.edge_ids()

    def current_size(self) -> int:
        return len(self.output.edges)

    def current_weight(self) -> float:
        return self.output.weight()
