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
    """Mutable per-branch coloring over a shared immutable graph."""

    __slots__ = ("n", "color", "mate", "removed", "contradiction",
                 "fresh_whites", "pending")

    def __init__(self, n: int):
        self.n = n
        self.color = bytearray(n)
        self.mate = [-1] * n
        self.removed = bytearray(n)
        self.contradiction: str | None = None
        self.fresh_whites: list[int] = []
        self.pending: list[int] = []      # touched since the last propagate

    def clone(self) -> "ColoringState":
        s = ColoringState.__new__(ColoringState)
        s.n = self.n
        s.color = bytearray(self.color)
        s.mate = list(self.mate)
        s.removed = bytearray(self.removed)
        s.contradiction = self.contradiction
        s.fresh_whites = list(self.fresh_whites)
        s.pending = list(self.pending)
        return s

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
    state.pending.append(v)
    if color == WHITE:
        state.fresh_whites.append(v)


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
    return True


def propagate(g: Graph, state: ColoringState) -> None:
    """Run the forcing rules to fixpoint (the rules are monotone, so the
    fixpoint does not depend on processing order):

      (a) every neighbor of a white vertex is black;
      (b) two adjacent blacks are mates and all their other neighbors
          are white;
      (c) an unmated black with a single remaining mate candidate forces
          that candidate black.

    Contradictions: adjacent whites, a black with two black neighbors, a
    black with no remaining mate candidate.

    Work comes from `state.pending`: `assign` appends the vertex it
    colors, and the removal in `edge_reduction` the removed vertices.
    This call drains the list: it queues each colored pending vertex and
    the live black neighbors of every pending vertex (rules (b) and (c)
    fire there).  Colors forced here feed the queue directly.

    Removing a white needs no further call: no rule reads a white as a
    black neighbor or a mate candidate (see `settle`).
    """
    pending, state.pending = state.pending, []
    if state.contradiction is not None:
        return
    adj = g.adj
    color, removed, mate = state.color, state.removed, state.mate
    fresh_whites = state.fresh_whites
    queue: deque[int] = deque()
    inq = bytearray(g.n)

    for v in dict.fromkeys(pending):
        if color[v] != UNKNOWN and not inq[v] and not removed[v]:
            inq[v] = 1              # no rule fires on an unknown
            queue.append(v)
        for w in adj[v]:
            if color[w] == BLACK and not inq[w] and not removed[w]:
                inq[w] = 1
                queue.append(w)

    def set_color(v: int, c: int) -> None:
        # v is live and unknown, so it cannot conflict or be queued yet
        color[v] = c
        if c == WHITE:
            fresh_whites.append(v)
        inq[v] = 1
        queue.append(v)
        for w in adj[v]:
            if color[w] == BLACK and not inq[w] and not removed[w]:
                inq[w] = 1
                queue.append(w)

    # each contradiction below returns at once: no turn starts after one
    while queue:
        v = queue.popleft()
        inq[v] = 0
        c = color[v]
        if c == WHITE:
            for w in adj[v]:
                if removed[w]:
                    continue
                cw = color[w]
                if cw == WHITE:
                    state.fail(f"adjacent white vertices {v} and {w}")
                    return
                if cw == UNKNOWN:
                    set_color(w, BLACK)
        elif c == BLACK:
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
                            set_color(z, WHITE)
            else:
                if m >= 0:
                    # mate was removed together with v in reductions only,
                    # so a live mated black always keeps a live black mate
                    state.fail(f"black vertex {v} lost its mate {m}")
                    return
                cand = -1
                many = False
                for w in adj[v]:
                    if removed[w] or color[w] != UNKNOWN:
                        continue
                    if cand >= 0:
                        many = True
                    else:
                        cand = w
                if cand < 0:
                    state.fail(f"black vertex {v} has no mate candidate")
                    return
                if not many:
                    set_color(cand, BLACK)


def edge_reduction(g: Graph, state: ColoringState, u: int, v: int) -> None:
    """Commit the edge (u, v) to the matching: mate the endpoints, whiten
    their other neighbors, remove both from the working graph, then
    propagate.  The committed pair shows in `state.mate_pairs()`."""
    if state.contradiction is not None:
        return
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
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
    state.removed[u] = 1
    state.removed[v] = 1
    state.pending += (u, v)
    propagate(g, state)


def settle(g: Graph, state: ColoringState) -> bool:
    """Propagate to fixpoint and remove every fresh white from the working
    graph; False on contradiction.

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
    color, removed = state.color, state.removed
    for v in state.fresh_whites:
        if color[v] == WHITE:
            removed[v] = 1
    state.fresh_whites.clear()
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
