"""Black/white coloring state with constraint propagation.

Black vertices are matched (each has exactly one black neighbor, its
mate, in a complete coloring), white vertices are unmatched and form an
independent set.  Reductions remove decided vertices from the working
graph while keeping ids stable; removed vertices keep their colors for
certificate extraction.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from . import patterns

UNKNOWN, BLACK, WHITE = 0, 1, 2

COLOR_NAMES = {UNKNOWN: "unknown", BLACK: "black", WHITE: "white"}

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")   # removed -> live


class ColoringState:
    """Mutable coloring over a shared immutable graph.  `trail` logs each
    change: a color set on v (from UNKNOWN) as v, a mating of v (both
    ends from -1) as ~v, a removal as ~(n + v).  `undo(mark)` takes back
    the changes since a `mark()` in the time they took, which restores a
    settled state exactly.  `propagate` works on the changes after
    `propagated`, and `settle` removes the whites colored after `settled`.
    `seen_by[w]` names the last unmated black that counted w among its
    mate candidates (rule (d) of `propagate`).  A mark is read only
    while the vertex it names is black, so `undo` leaves the marks alone."""

    __slots__ = ("n", "color", "mate", "removed", "contradiction", "trail",
                 "propagated", "settled", "inq", "seen_by")

    def __init__(self, n: int):
        self.n = n
        self.color = bytearray(n)
        self.mate = [-1] * n
        self.removed = bytearray(n)
        self.contradiction: str | None = None
        self.trail: list[int] = []
        self.propagated = self.settled = 0  # trail lengths at the last call
        self.inq = bytearray(n)     # propagate's queue flags, 0 between calls
        self.seen_by = [-1] * n

    def clone(self) -> "ColoringState":
        s = ColoringState(self.n)
        s.color[:], s.mate[:] = self.color, self.mate
        s.removed[:], s.trail[:] = self.removed, self.trail
        s.seen_by[:] = self.seen_by
        s.contradiction = self.contradiction
        s.propagated, s.settled = self.propagated, self.settled
        return s

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        """Take back every change after `mark`, and the contradiction."""
        n, color, mate, removed = self.n, self.color, self.mate, self.removed
        for e in self.trail[mark:]:
            if e >= 0:
                color[e] = UNKNOWN
            elif e >= -n:
                mate[mate[~e]] = mate[~e] = -1      # both ends of the pair
            else:
                removed[~e - n] = 0
        del self.trail[mark:]
        self.contradiction = None
        self.propagated = min(self.propagated, mark)
        self.settled = min(self.settled, mark)

    # -- queries ---------------------------------------------------------

    def live_mask(self) -> bytearray:
        """1 for every vertex still in the working graph, 0 otherwise."""
        return self.removed.translate(_FLIP)

    def mate_pairs(self) -> list[tuple[int, int]]:
        """All matched pairs recorded so far, live or removed."""
        return [(v, self.mate[v]) for v in range(self.n)
                if 0 <= v < self.mate[v]]

    def fail(self, reason: str) -> None:
        if self.contradiction is None:
            self.contradiction = reason


def assign(state: ColoringState, v: int, color: int) -> None:
    """Record a color; a conflicting reassignment sets the contradiction."""
    if state.contradiction is not None:
        return
    cur = state.color[v]
    if cur == color:
        return
    if cur != UNKNOWN:
        state.fail(f"vertex {v} is {COLOR_NAMES[cur]}, cannot become "
                   f"{COLOR_NAMES[color]}")
        return
    state.color[v] = color
    state.trail.append(v)


def _set_mate(state: ColoringState, u: int, v: int) -> bool:
    mu, mv = state.mate[u], state.mate[v]
    if mu == v and mv == u:
        return True
    if mu not in (-1, v):
        state.fail(f"vertex {u} already mated to {mu}, cannot mate {v}")
        return False
    if mv not in (-1, u):
        state.fail(f"vertex {v} already mated to {mv}, cannot mate {u}")
        return False
    state.mate[u] = v
    state.mate[v] = u
    state.trail.append(~u)
    return True


def propagate(g: Graph, state: ColoringState) -> None:
    """Run the forcing rules to fixpoint (the rules are monotone, so the
    fixpoint does not depend on processing order):

      (a) every neighbor of a white vertex is black;
      (b) two adjacent blacks are mates and all their other neighbors
          are white;
      (c) an unmated black with a single remaining mate candidate forces
          that candidate black;
      (d) an unknown vertex with two unmated black neighbors is white,
          since a black has exactly one black neighbor.

    Contradictions: adjacent whites, a black with two black neighbors, a
    black with no remaining mate candidate.

    Work comes from the colors on the trail after `state.propagated`
    (each white, removed or not, and each live black) and from the
    vertices colored here.  Coloring only logs and queues a vertex; its
    adjacency is scanned once, when it is popped:

      - a white blackens its unknown neighbors (rule (a)) and re-queues
        its unmated black ones: each lost a mate candidate, so rule (c)
        may now fire there;
      - an unmated black's own scan finds every black that borders it,
        so nothing need queue a fresh black's black neighbors: it mates
        one (rule (b));
      - an unmated black v with no black neighbor makes one more pass
        over its candidates: it whitens a candidate w whose
        `seen_by[w]` names another black (rule (d)), marks every other
        one with `seen_by[w] = v`, then applies (c) to those left.

    An unmated black is popped after each loss of a candidate, so at the
    fixpoint each one has marked all its candidates, and a mark is
    overwritten only once the vertex it names is no longer black: of two
    blacks around an unknown w, the later pass finds the earlier's mark.

    A removed black, an end of `edge_reduction`, has no live black
    neighbor left, so no work.  The queue flags `state.inq` end all zero.

    Removing a white needs no further call: no rule reads a white as a
    black neighbor or a mate candidate (see `settle`).
    """
    trail = state.trail
    pending, state.propagated = trail[state.propagated:], len(trail)
    if state.contradiction is not None:
        return
    adj, push = g.adj, trail.append
    color, removed, mate, inq, seen_by = (state.color, state.removed,
                                          state.mate, state.inq,
                                          state.seen_by)
    queue: deque[int] = deque()
    for v in pending:
        # a color entry appears once; a removed black has no work left
        if v >= 0 and (not removed[v] or color[v] == WHITE):
            inq[v] = 1
            queue.append(v)
    # each contradiction below returns at once: no turn starts after one;
    # each vertex colored below is live and unknown, so not yet queued
    try:
        while queue:
            v = queue.popleft()
            inq[v] = 0
            if color[v] == WHITE:
                for w in adj[v]:
                    if removed[w]:
                        continue
                    cw = color[w]
                    if cw == UNKNOWN:
                        color[w] = BLACK
                        push(w)
                    elif cw == WHITE:
                        state.fail(f"adjacent white vertices {v} and {w}")
                        return
                    elif mate[w] >= 0 or inq[w]:
                        continue
                    inq[w] = 1      # fresh, or unmated and one candidate short
                    queue.append(w)
            else:
                m = mate[v]
                if m >= 0 and color[m] == BLACK and not removed[m]:
                    # mating already whitened every other neighbor; whites
                    # are final, so nothing new can fire here
                    continue
                black_nbr = -1
                for w in adj[v]:
                    if not removed[w] and color[w] == BLACK:
                        if black_nbr >= 0:
                            state.fail(f"black vertex {v} has two black "
                                       f"neighbors {black_nbr} and {w}")
                            return
                        black_nbr = w
                if black_nbr >= 0:
                    w = black_nbr
                    if not _set_mate(state, v, w):
                        return
                    for (a, b) in ((v, w), (w, v)):
                        for z in adj[a]:
                            if z == b or removed[z]:
                                continue
                            cz = color[z]
                            if cz == BLACK:
                                state.fail(f"black vertex {a} has black "
                                           f"neighbors {b} and {z}")
                                return
                            if cz == UNKNOWN:
                                color[z] = WHITE
                                push(z)
                                inq[z] = 1
                                queue.append(z)
                elif m >= 0:
                    # mate was removed together with v in reductions only,
                    # so a live mated black always keeps a live black mate
                    state.fail(f"black vertex {v} lost its mate {m}")
                    return
                else:
                    cand, left = -1, 0
                    for w in adj[v]:
                        if removed[w] or color[w] != UNKNOWN:
                            continue
                        s = seen_by[w]
                        if s != v and s >= 0 and color[s] == BLACK:
                            color[w] = WHITE        # rule (d)
                            push(w)
                            inq[w] = 1
                            queue.append(w)
                        else:
                            seen_by[w] = v
                            cand, left = w, left + 1
                    if left > 1:
                        continue
                    if cand < 0:
                        state.fail(f"black vertex {v} has no mate candidate")
                        return
                    color[cand] = BLACK
                    push(cand)
                    inq[cand] = 1
                    queue.append(cand)
    finally:
        for v in queue:
            inq[v] = 0
        state.propagated = len(trail)


def edge_reduction(g: Graph, state: ColoringState, u: int, v: int) -> None:
    """Commit the edge (u, v) to the matching: mate the endpoints, whiten
    their other neighbors, remove both from the working graph, then
    propagate.  The committed pair shows in `state.mate_pairs()`."""
    if state.contradiction is not None:
        return
    if not g.has_edge(u, v) or state.removed[u] or state.removed[v]:
        raise ValueError(f"({u}, {v}) is not a live edge")
    assign(state, u, BLACK)
    assign(state, v, BLACK)
    if state.contradiction is not None:
        return
    if not _set_mate(state, u, v):
        return
    for a, b in ((u, v), (v, u)):
        for w in g.adj[a]:
            if w == b or state.removed[w]:
                continue
            cw = state.color[w]
            if cw == BLACK:
                state.fail(f"black vertex {w} borders forced edge ({u}, {v})")
                return
            if cw == UNKNOWN:
                assign(state, w, WHITE)
    state.removed[u] = state.removed[v] = 1
    state.trail += (~(state.n + u), ~(state.n + v))
    propagate(g, state)


def settle(g: Graph, state: ColoringState) -> bool:
    """Propagate to fixpoint and remove from the working graph every white
    colored since the last settle; False on contradiction.

    This is the fixpoint of propagating and vertex-reducing each white,
    reached without a propagation per white: at the fixpoint every live
    neighbor of a live white is already black (rule (a)), so the vertex
    reduction would color nothing, and removing a white changes the
    premise of no rule, since a white is nobody's black neighbor and
    nobody's mate candidate.
    """
    propagate(g, state)
    if state.contradiction is not None:
        return False
    trail, n, color, removed = state.trail, state.n, state.color, state.removed
    for v in trail[state.settled:]:
        if v >= 0 and color[v] == WHITE and not removed[v]:
            removed[v] = 1
            trail.append(~(n + v))
    state.propagated = state.settled = len(trail)
    return True


def preprocess(g: Graph) -> ColoringState:
    """Reject graphs with a K4 and reduce every diamond mid-edge and
    butterfly peripheral edge to fixpoint; returns the reduced state.

    The residual working graph is (K4, diamond, butterfly)-free, so every
    live neighborhood is a disjoint union of isolated vertices and at
    most one edge.  The forced pairs are the state's `mate_pairs()`.  A
    contradiction (or the K4) is reported through the state; it means
    the graph has no d.i.m.
    """
    state = ColoringState(g.n)
    w = patterns.find_induced(g, patterns.K4)
    if w is not None:
        state.fail(f"K4 found on vertices {w.vertices}")
        return state
    # reductions only remove vertices, which creates no new pattern, so
    # one resumable scan per pattern reaches the fixpoint
    if settle(g, state):
        for w in patterns.diamonds(g, state.removed):
            _, u, _, mid = w.vertices
            edge_reduction(g, state, u, mid)
            if not settle(g, state):
                break
    if state.contradiction is None:
        for w in patterns.butterflies(g, state.removed):
            v1, v2, v3, v4, _ = w.vertices
            edge_reduction(g, state, v1, v2)
            edge_reduction(g, state, v3, v4)
            if not settle(g, state):
                break
    return state
