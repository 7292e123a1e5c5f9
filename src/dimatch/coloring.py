"""Black/white coloring state with constraint propagation.

Black vertices are matched (each has exactly one black neighbor, its
mate, in a complete coloring), white vertices are unmatched and form an
independent set.  An excluded edge may not join two blacks.  Reductions
remove decided vertices from the working graph while keeping ids stable;
removed vertices keep their colors for certificate extraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph import Graph, edge_key
from . import patterns

UNKNOWN, BLACK, WHITE = 0, 1, 2

COLOR_NAMES = {UNKNOWN: "unknown", BLACK: "black", WHITE: "white"}

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")   # removed -> live


@dataclass
class LogEntry:
    kind: str                 # "edge" or "vertex"
    data: tuple
    rule: str


@dataclass
class ReductionLog:
    """Accumulated forced matched edges and removed vertices."""

    entries: list[LogEntry] = field(default_factory=list)

    def add_edge(self, u: int, v: int, rule: str) -> None:
        self.entries.append(LogEntry("edge", edge_key(u, v), rule))

    def add_vertex(self, v: int, rule: str) -> None:
        self.entries.append(LogEntry("vertex", (v,), rule))

    @property
    def forced_edges(self) -> list[tuple[int, int]]:
        return [e.data for e in self.entries if e.kind == "edge"]

    @property
    def removed(self) -> set[int]:
        out: set[int] = set()
        for e in self.entries:
            out.update(e.data)
        return out


class ColoringState:
    """Mutable per-branch coloring over a shared immutable graph."""

    __slots__ = ("n", "color", "mate", "removed", "excluded",
                 "contradiction", "fresh_whites", "pending")

    def __init__(self, n: int):
        self.n = n
        self.color = bytearray(n)
        self.mate = [-1] * n
        self.removed = bytearray(n)
        self.excluded: set[int] = set()
        self.contradiction: str | None = None
        self.fresh_whites: list[int] = []
        self.pending: list[int] = []      # touched since the last propagate

    def clone(self) -> "ColoringState":
        s = ColoringState.__new__(ColoringState)
        s.n = self.n
        s.color = bytearray(self.color)
        s.mate = list(self.mate)
        s.removed = bytearray(self.removed)
        s.excluded = set(self.excluded)
        s.contradiction = self.contradiction
        s.fresh_whites = list(self.fresh_whites)
        s.pending = list(self.pending)
        return s

    # -- queries ---------------------------------------------------------

    def live_mask(self) -> bytearray:
        """1 for every vertex still in the working graph, 0 otherwise."""
        return self.removed.translate(_FLIP)

    def is_excluded(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return a * self.n + b in self.excluded

    def exclude(self, u: int, v: int) -> None:
        a, b = (u, v) if u < v else (v, u)
        self.excluded.add(a * self.n + b)
        self.pending += (u, v)

    def live_unknowns(self) -> list[int]:
        c, r = self.color, self.removed
        return [v for v in range(self.n) if not r[v] and c[v] == UNKNOWN]

    def mate_pairs(self) -> list[tuple[int, int]]:
        """All matched pairs recorded so far, live or removed."""
        return [(v, self.mate[v]) for v in range(self.n)
                if 0 <= v < self.mate[v]]

    def fail(self, reason: str) -> None:
        if self.contradiction is None:
            self.contradiction = reason

    def complete(self) -> bool:
        """No contradiction, nothing uncolored, every live black mated."""
        if self.contradiction is not None:
            return False
        c, r, m = self.color, self.removed, self.mate
        for v in range(self.n):
            if r[v]:
                continue
            if c[v] == UNKNOWN:
                return False
            if c[v] == BLACK and m[v] < 0:
                return False
        return True


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
          that candidate black;
      (d) an excluded edge with a black endpoint has a white endpoint.

    Contradictions: adjacent whites, a black with two black neighbors, a
    black with no remaining mate candidate, an excluded edge joining two
    blacks.

    Work comes from `state.pending`: `assign` appends the vertex it
    colors, `ColoringState.exclude` both endpoints, and the removals in
    `edge_reduction` / `vertex_reduction` the removed vertices.  This
    call drains the list: it queues each colored pending vertex and the
    live black neighbors of every pending vertex (rules (b) and (c) fire
    there).  Colors forced here feed the queue directly.
    """
    pending, state.pending = state.pending, []
    if state.contradiction is not None:
        return
    color, removed, mate = state.color, state.removed, state.mate
    queue: deque[int] = deque()
    inq = bytearray(g.n)

    def push(v: int) -> None:
        if not inq[v] and not removed[v]:
            inq[v] = 1
            queue.append(v)

    for v in dict.fromkeys(pending):
        if color[v] != UNKNOWN:         # no rule fires on an unknown
            push(v)
        for w in g.adj[v]:
            if color[w] == BLACK:
                push(w)

    def set_color(v: int, c: int) -> None:
        cur = color[v]
        if cur == c:
            return
        if cur != UNKNOWN:
            state.fail(f"vertex {v} is {COLOR_NAMES[cur]}, cannot become "
                       f"{COLOR_NAMES[c]}")
            return
        color[v] = c
        if c == WHITE:
            state.fresh_whites.append(v)
        push(v)
        for w in g.adj[v]:
            if not removed[w] and color[w] == BLACK:
                push(w)

    while queue:
        if state.contradiction is not None:
            return
        v = queue.popleft()
        inq[v] = 0
        if removed[v]:
            continue
        c = color[v]
        if c == WHITE:
            for w in g.adj[v]:
                if removed[w]:
                    continue
                cw = color[w]
                if cw == WHITE:
                    state.fail(f"adjacent white vertices {v} and {w}")
                    return
                if cw == UNKNOWN:
                    set_color(w, BLACK)
        elif c == BLACK:
            if mate[v] >= 0 and color[mate[v]] == BLACK \
                    and not removed[mate[v]]:
                # mating already whitened every other neighbor; whites
                # are final, so nothing new can fire here
                continue
            black_nbr = -1
            for w in g.adj[v]:
                if not removed[w] and color[w] == BLACK:
                    if black_nbr >= 0:
                        state.fail(f"black vertex {v} has two black "
                                   f"neighbors {black_nbr} and {w}")
                        return
                    black_nbr = w
            if black_nbr >= 0:
                w = black_nbr
                if state.is_excluded(v, w):
                    state.fail(f"excluded edge ({v}, {w}) joins two blacks")
                    return
                if not _set_mate(state, v, w):
                    return
                for (a, b) in ((v, w), (w, v)):
                    for z in g.adj[a]:
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
                if mate[v] >= 0:
                    # mate was removed together with v in reductions only,
                    # so a live mated black always keeps a live black mate
                    state.fail(f"black vertex {v} lost its mate {mate[v]}")
                    return
                cand = -1
                many = False
                for w in g.adj[v]:
                    if removed[w] or color[w] != UNKNOWN:
                        continue
                    if state.is_excluded(v, w):
                        set_color(w, WHITE)
                        continue
                    if cand >= 0:
                        many = True
                    else:
                        cand = w
                if state.contradiction is not None:
                    return
                if cand < 0:
                    state.fail(f"black vertex {v} has no mate candidate")
                    return
                if not many:
                    set_color(cand, BLACK)
    return


def vertex_reduction(g: Graph, state: ColoringState, log: ReductionLog,
                     v: int, rule: str = "vertex-reduction") -> None:
    """Remove a white-forced vertex after blackening its neighbors."""
    if state.contradiction is not None:
        return
    assign(state, v, WHITE)
    if state.contradiction is not None:
        return
    for w in g.adj[v]:
        if not state.removed[w]:
            assign(state, w, BLACK)
            if state.contradiction is not None:
                return
    state.removed[v] = 1
    state.pending.append(v)
    log.add_vertex(v, rule)
    propagate(g, state)


def edge_reduction(g: Graph, state: ColoringState, log: ReductionLog,
                   u: int, v: int, rule: str = "edge-reduction") -> None:
    """Commit the edge (u, v) to the matching: mate the endpoints, whiten
    their other neighbors, and remove both from the working graph."""
    if state.contradiction is not None:
        return
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if state.is_excluded(u, v):
        state.fail(f"cannot force excluded edge ({u}, {v})")
        return
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
    log.add_edge(u, v, rule)
    propagate(g, state)


def sweep_whites(g: Graph, state: ColoringState, log: ReductionLog) -> None:
    """Vertex-reduce every live white until none remain."""
    while state.fresh_whites and state.contradiction is None:
        v = state.fresh_whites.pop()
        if state.removed[v] or state.color[v] != WHITE:
            continue
        vertex_reduction(g, state, log, v, "white-sweep")


def settle(g: Graph, state: ColoringState, log: ReductionLog) -> bool:
    """Propagate and sweep whites to a joint fixpoint; False on contradiction."""
    propagate(g, state)
    sweep_whites(g, state, log)
    return state.contradiction is None


def _install_c4_exclusions(g: Graph, state: ColoringState) -> None:
    """Exclude every edge lying on an induced 4-cycle (optional strictness)."""
    for (u, v) in g.edges:
        if state.removed[u] or state.removed[v]:
            continue
        for w in g.adj[u]:
            if w == v or state.removed[w] or g.has_edge(w, v):
                continue
            hit = False
            for z in g.adj[v]:
                if z == u or z == w or state.removed[z]:
                    continue
                if g.has_edge(w, z) and not g.has_edge(z, u):
                    hit = True
                    break
            if hit:
                state.exclude(u, v)
                break


def preprocess(g: Graph, strict_c4: bool = False
               ) -> tuple[ColoringState, ReductionLog]:
    """Reject graphs with a K4 and reduce every diamond mid-edge and
    butterfly peripheral edge to fixpoint.

    The residual working graph is (K4, diamond, butterfly)-free, so every
    live neighborhood is a disjoint union of isolated vertices and at
    most one edge.  A contradiction (or the K4) is reported through the
    state; it means the graph has no d.i.m.
    """
    state = ColoringState(g.n)
    log = ReductionLog()
    w = patterns.find_induced(g, patterns.K4)
    if w is not None:
        state.fail(f"K4 found on vertices {w.vertices}")
        return state, log
    while state.contradiction is None:
        if not settle(g, state, log):
            break
        alive = state.live_mask()
        w = patterns.find_induced(g, patterns.DIAMOND, alive)
        if w is not None:
            a, u2, b, mid_u = w.vertices
            edge_reduction(g, state, log, u2, mid_u, "diamond-mid-edge")
            continue
        w = patterns.find_induced(g, patterns.BUTTERFLY, alive)
        if w is not None:
            v1, v2, v3, v4, _ = w.vertices
            edge_reduction(g, state, log, v1, v2, "butterfly-peripheral")
            if state.contradiction is None:
                edge_reduction(g, state, log, v3, v4, "butterfly-peripheral")
            continue
        break
    if strict_c4 and state.contradiction is None:
        _install_c4_exclusions(g, state)
        settle(g, state, log)
    return state, log
