"""Black/white coloring state with constraint propagation.

Black vertices are matched (each has exactly one black neighbor, its
mate, in a complete coloring), white vertices are unmatched and form an
independent set.  A white vertex is outside the working graph: no rule
reads it again, and it keeps its color, as each black keeps its mate,
for certificate extraction.  Ids stay stable throughout.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from . import patterns

UNKNOWN, BLACK, WHITE = 0, 1, 2

COLOR_NAMES = {UNKNOWN: "unknown", BLACK: "black", WHITE: "white"}

_LIVE = bytes.maketrans(b"\x00\x01\x02", b"\x01\x01\x00")   # color -> live


class ColoringState:
    """Mutable coloring over a shared immutable graph.  `trail` logs each
    change: a color set on v (from UNKNOWN) as v, a mating of v (both
    ends from -1) as ~v.  `undo(mark)` takes back the changes since a
    `mark()` in the time they took, which restores a propagated state
    exactly.  `propagate` works on the changes after `propagated`.
    `seen_by[w]` names the last unmated black that counted w among its
    mate candidates (rule (d) of `propagate`).  A mark is read only
    while the vertex it names is black, so `undo` leaves the marks alone."""

    __slots__ = ("n", "color", "mate", "contradiction", "trail",
                 "propagated", "inq", "seen_by")

    def __init__(self, n: int):
        self.n = n
        self.color = bytearray(n)
        self.mate = [-1] * n
        self.contradiction: str | None = None
        self.trail: list[int] = []
        self.propagated = 0         # trail length at the last propagate
        self.inq = bytearray(n)     # propagate's queue flags, 0 between calls
        self.seen_by = [-1] * n

    def clone(self) -> "ColoringState":
        s = ColoringState(self.n)
        s.color[:], s.mate[:] = self.color, self.mate
        s.trail[:], s.seen_by[:] = self.trail, self.seen_by
        s.contradiction = self.contradiction
        s.propagated = self.propagated
        return s

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        """Take back every change after `mark`, and the contradiction."""
        color, mate = self.color, self.mate
        for e in self.trail[mark:]:
            if e >= 0:
                color[e] = UNKNOWN
            else:
                mate[mate[~e]] = mate[~e] = -1      # both ends of the pair
        del self.trail[mark:]
        self.contradiction = None
        self.propagated = min(self.propagated, mark)

    # -- queries ---------------------------------------------------------

    def live_mask(self) -> bytearray:
        """1 for every vertex still in the working graph (not white), 0
        otherwise."""
        return self.color.translate(_LIVE)

    def mate_pairs(self) -> list[tuple[int, int]]:
        """All matched pairs recorded so far."""
        return [(v, w) for v, w in enumerate(self.mate) if v < w]

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


def propagate(g: Graph, state: ColoringState) -> bool:
    """Run the forcing rules to fixpoint; False on a contradiction (the
    rules are monotone, so the fixpoint does not depend on processing
    order):

      (a) every neighbor of a white vertex is black;
      (b) two adjacent blacks are mates and all their other neighbors
          are white;
      (c) an unmated black with a single remaining mate candidate forces
          that candidate black;
      (d) an unknown vertex with two unmated black neighbors is white,
          since a black has exactly one black neighbor.

    Contradictions: adjacent whites, a black with two black neighbors, a
    black with no remaining mate candidate.

    Work comes from the colors on the trail after `state.propagated` and
    from the vertices colored here.  Coloring only logs and queues a
    vertex; its adjacency is scanned once, when it is popped:

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

    A mating colors every other neighbor of both mates white or fails,
    so a mated black borders no black but its mate, and a black
    neighbor of an unmated black is unmated too.  No rule reads a white
    as a black neighbor or a mate candidate, so a white is outside the
    working graph.  The queue flags `state.inq` end all zero.
    """
    trail = state.trail
    pending, state.propagated = trail[state.propagated:], len(trail)
    if state.contradiction is not None:
        return False
    adj, push = g.adj, trail.append
    color, mate, inq, seen_by = (state.color, state.mate, state.inq,
                                 state.seen_by)
    queue: deque[int] = deque()
    for v in pending:
        if v >= 0:              # a color entry appears once
            inq[v] = 1
            queue.append(v)
    # each contradiction below returns at once: no turn starts after one;
    # each vertex colored below was unknown, so not yet queued
    try:
        while queue:
            v = queue.popleft()
            inq[v] = 0
            if color[v] == WHITE:
                for w in adj[v]:
                    cw = color[w]
                    if cw == UNKNOWN:
                        color[w] = BLACK
                        push(w)
                    elif cw == WHITE:
                        state.fail(f"adjacent white vertices {v} and {w}")
                        return False
                    elif mate[w] >= 0 or inq[w]:
                        continue
                    inq[w] = 1      # fresh, or unmated and one candidate short
                    queue.append(w)
            elif mate[v] >= 0:
                # mating already whitened every other neighbor; whites
                # are final, so nothing new can fire here
                continue
            else:
                black_nbr = -1
                for w in adj[v]:
                    if color[w] == BLACK:
                        if black_nbr >= 0:
                            state.fail(f"black vertex {v} has two black "
                                       f"neighbors {black_nbr} and {w}")
                            return False
                        black_nbr = w
                if black_nbr >= 0:
                    w = black_nbr
                    mate[v], mate[w] = w, v
                    push(~v)
                    for (a, b) in ((v, w), (w, v)):
                        for z in adj[a]:
                            if z == b:
                                continue
                            cz = color[z]
                            if cz == BLACK:
                                state.fail(f"black vertex {a} has black "
                                           f"neighbors {b} and {z}")
                                return False
                            if cz == UNKNOWN:
                                color[z] = WHITE
                                push(z)
                                inq[z] = 1
                                queue.append(z)
                else:
                    cand, left = -1, 0
                    for w in adj[v]:
                        if color[w] != UNKNOWN:
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
                        return False
                    color[cand] = BLACK
                    push(cand)
                    inq[cand] = 1
                    queue.append(cand)
        return True
    finally:
        for v in queue:
            inq[v] = 0
        state.propagated = len(trail)


def preprocess(g: Graph, xy: tuple[int, int] | None = None) -> ColoringState:
    """Reject graphs with a K4, settle false twins, then force every
    diamond mid-edge and butterfly peripheral edge to fixpoint; returns
    the propagated state.

    False twins u and v (N(u) = N(v)) of degree 2 or more are white in
    every d.i.m.: were u matched to w, v could not be, so every neighbor
    of v, u among them, would be matched.  The pendant leaves of one
    vertex are swapped by automorphisms, so whitening all but one is a
    symmetry break, not a forcing: it keeps some d.i.m. if there is one,
    and one through `xy`, as an end of xy in the class is the leaf kept
    (else the first in id order).

    An edge is forced by coloring both ends black and propagating, which
    mates them and whitens their other neighbors, so each forced pair
    stays in the working graph as a two-vertex component.  The working
    graph is then (K4, diamond, butterfly)-free, so every live
    neighborhood is a disjoint union of isolated vertices and at most
    one edge, and no two live vertices are false twins.  The forced
    pairs are the state's `mate_pairs()`.  A contradiction (or the K4)
    is reported through the state: the graph has no d.i.m. (through xy).
    """
    state = ColoringState(g.n)
    w = patterns.find_induced(g, patterns.K4)
    if w is not None:
        state.fail(f"K4 found on vertices {w.vertices}")
        return state
    adj = g.adj
    # twins share an adj tuple, so one set finds any (isolated ones share ())
    if len(set(adj)) + max(adj.count(()) - 1, 0) < g.n:
        classes: dict[tuple[int, ...], list[int]] = {}
        for v, nbrs in enumerate(adj):
            classes.setdefault(nbrs, []).append(v)
        for nbrs, twins in classes.items():
            if len(twins) > 1 and nbrs:
                if len(nbrs) == 1:      # pendant leaves: keep one
                    twins.remove(next((t for t in twins if xy and t in xy),
                                      twins[0]))
                for v in twins:
                    assign(state, v, WHITE)
        if not propagate(g, state):
            return state
    # forcing only whitens vertices, which creates no new pattern, so one
    # resumable scan per pattern reaches the fixpoint
    for w in patterns.diamonds(g, state.color):
        _, u, _, mid = w.vertices
        assign(state, u, BLACK)
        assign(state, mid, BLACK)
        if not propagate(g, state):
            return state
    for w in patterns.butterflies(g, state.color):
        for v in w.vertices[:4]:        # both peripheral edges
            assign(state, v, BLACK)
        if not propagate(g, state):
            break
    return state
