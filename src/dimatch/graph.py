"""Immutable simple undirected graph plus the d.i.m. certificate verifier.

Vertices are dense integer ids 0..n-1.  A dominating induced matching
(d.i.m.) of a graph is an edge set M such that every edge of the graph
shares an endpoint with exactly one member of M (members intersect
themselves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from itertools import chain
from operator import eq, lt


class GraphInputError(ValueError):
    """Raised for malformed graph input (bad ids, self-loops, duplicates)."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph: adjacency sets, sorted edge list, and
    a triangle index built on first use."""

    __slots__ = ("n", "adj", "adjset", "edges", "m", "_triangles")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...],
                 edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.adj = adj
        self.adjset = tuple(map(frozenset, adj))
        self.edges = edges
        self.m = len(edges)
        self._triangles = None

    def wide_edges(self):
        """Iterate `(u, v, common)`, in edge order, over the edges whose
        common neighborhood `common` has two or more vertices: only such
        an edge lies on a K4 or is a diamond's mid-edge.  They come from
        the triangle index, built in one pass over the edges with one
        common-neighborhood intersection per edge (Chiba and Nishizeki's
        triangle listing).  Until the index is complete the iterator runs
        that pass as it goes, and a caller that stops early leaves the
        rest of it undone."""
        if self._triangles is None:
            return self._triangle_pass()
        return iter(self._triangles[0])

    def triangle_centers(self) -> tuple[int, ...]:
        """The vertices on four or more edges that lie on a triangle,
        ascending: only such a vertex is a butterfly's center."""
        if self._triangles is None:
            for _ in self._triangle_pass():
                pass
        return self._triangles[1]

    def _triangle_pass(self):
        # yields the wide edges as it finds them and keeps the index once
        # the pass is complete: the wide edges and the centers, and no
        # tuple per triangle edge for the garbage collector to track
        adjset = self.adjset
        on = [0] * self.n               # edges on a triangle, per vertex
        wide = []
        for u, v in self.edges:
            common = adjset[u] & adjset[v]
            if common:
                on[u] += 1
                on[v] += 1
                if len(common) > 1:
                    entry = (u, v, common)
                    wide.append(entry)
                    yield entry
        self._triangles = (wide,
                           tuple([x for x, c in enumerate(on) if c > 3]))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjset[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_pairs) -> Graph:
    """Build a canonical Graph from a vertex count and unordered pairs.

    Rejects a vertex count that is not a nonnegative int, pairs that are
    not two ints, self-loops, ids out of range and duplicates: in bulk, and
    pair by pair only on rejected input, to name the first offending pair.
    A vertex count whose adjacency does not fit in memory is rejected too.
    """
    if type(n) is not int:
        raise GraphInputError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    pairs = list(edge_pairs)
    try:
        us, vs = zip(*pairs) if pairs else ((), ())
        valid = {2}.issuperset(map(len, pairs)) \
            and {int}.issuperset(map(type, chain(us, vs))) \
            and not any(map(eq, us, vs))
    except (TypeError, ValueError):     # a pair is not a sequence of two
        valid = False
    if valid:
        if not all(map(lt, us, vs)):
            us, vs = list(map(min, us, vs)), list(map(max, us, vs))
        edges = tuple(sorted(zip(us, vs)))
        if not any(map(eq, edges, edges[1:])) \
                and (not edges or (edges[0][0] >= 0 and max(vs) < n)):
            try:
                adj: list[list[int]] = [[] for _ in range(n)]
                for u, v in edges:      # sorted edges leave each list sorted
                    adj[u].append(v)
                    adj[v].append(u)
                return Graph(n, tuple(map(tuple, adj)), edges)
            except MemoryError:
                raise GraphInputError(f"vertex count {n} is too large: no "
                                      "memory for its adjacency") from None
    raise _first_bad_pair(n, pairs)


def _first_bad_pair(n: int, pairs) -> GraphInputError:
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        try:
            u, v = pair if len(pair) == 2 else ()
        except (TypeError, ValueError):
            return GraphInputError(f"malformed edge pair: {pair!r}")
        if not (type(u) is int and type(v) is int):
            return GraphInputError(f"edge endpoints must be integers: {pair!r}")
        if u == v:
            return GraphInputError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            return GraphInputError(f"vertex id out of range 0..{n - 1}: ({u}, {v})")
        e = edge_key(u, v)
        if e in seen:
            return GraphInputError(f"duplicate edge rejected: {e}")
        seen.add(e)


def connected_components(g: Graph, alive=None) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by minimum id."""
    seen = bytearray(g.n)
    comps: list[tuple[int, ...]] = []
    for s in range(g.n):
        if seen[s] or (alive is not None and not alive[s]):
            continue
        seen[s] = 1
        comp = [s]
        q = deque((s,))
        while q:
            v = q.popleft()
            for w in g.adj[v]:
                if not seen[w] and (alive is None or alive[w]):
                    seen[w] = 1
                    comp.append(w)
                    q.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class DimCertificate:
    """A set of edges claimed to be a d.i.m.; must be a matching."""

    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        canon = frozenset(edge_key(u, v) for (u, v) in self.edges)
        object.__setattr__(self, "edges", canon)
        used: set[int] = set()
        for (u, v) in canon:
            if u in used or v in used:
                raise ValueError("certificate edges are not vertex-disjoint")
            used.add(u)
            used.add(v)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def verify_dim_report(g: Graph, cert) -> tuple[bool, str | None]:
    """Check the d.i.m. condition; on failure report the first violation.

    True iff every edge of g shares an endpoint with exactly one member
    of the certificate.  Equivalently the non-matched vertices form an
    independent set and every matched vertex has exactly one matched
    neighbor.
    """
    edges = cert.edges if isinstance(cert, DimCertificate) else \
        frozenset(edge_key(u, v) for (u, v) in cert)
    owner: dict[int, tuple[int, int]] = {}
    for e in sorted(edges):
        u, v = e
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False, f"certificate member {e} is not an edge of the graph"
        for w in e:
            if w in owner:
                return False, f"vertex {w} lies in two certificate edges"
            owner[w] = e
    for (u, v) in g.edges:
        a = owner.get(u)
        b = owner.get(v)
        hits = (a is not None) + (b is not None and b is not a)
        if hits == 0:
            return False, f"edge ({u}, {v}) is dominated by no certificate edge"
        if hits > 1:
            return False, f"edge ({u}, {v}) is dominated by {a} and {b}"
    return True, None


def verify_dim(g: Graph, cert) -> bool:
    """True iff the certificate is a dominating induced matching of g."""
    ok, _ = verify_dim_report(g, cert)
    return ok
