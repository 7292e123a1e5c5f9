"""Immutable simple undirected graph plus the d.i.m. certificate verifier.

Vertices are dense integer ids 0..n-1.  A dominating induced matching
(d.i.m.) of a graph is an edge set M such that every edge of the graph
shares an endpoint with exactly one member of M (members intersect
themselves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque


class GraphInputError(ValueError):
    """Raised for malformed graph input (bad ids, self-loops, duplicates)."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected graph: adjacency sets, sorted edge list."""

    __slots__ = ("n", "adj", "adjset", "edges", "m")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...],
                 edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.adj = adj
        self.adjset = tuple(frozenset(a) for a in adj)
        self.edges = edges
        self.m = len(edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjset[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_pairs) -> Graph:
    """Build a canonical Graph from a vertex count and unordered pairs.

    Rejects ids out of range, self-loops, and duplicate pairs.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for pair in edge_pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise GraphInputError(f"malformed edge pair: {pair!r}")
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphInputError(f"edge endpoints must be integers: {pair!r}")
        if u == v:
            raise GraphInputError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"vertex id out of range 0..{n - 1}: ({u}, {v})")
        e = edge_key(u, v)
        if e in seen:
            raise GraphInputError(f"duplicate edge rejected: {e}")
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    edges = tuple(sorted(seen))
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), edges)


def distance_levels(g: Graph, xy: tuple[int, int], alive=None,
                    limit: int | None = None) -> list[tuple[int, ...]]:
    """BFS distance levels of an edge: level 0 is {x, y}, level i the
    vertices at distance i from the edge.  Only the reachable set appears.

    `alive` optionally restricts the graph to a subset of vertices, and
    `limit` stops the search after that level.
    """
    x, y = xy
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge of the graph")
    if alive is not None and not (alive[x] and alive[y]):
        raise ValueError(f"({x}, {y}) is not in the working graph")
    dist = [-1] * g.n
    dist[x] = dist[y] = 0
    q = deque((x, y))
    levels: list[list[int]] = [[x, y] if x < y else [y, x]]
    while q:
        v = q.popleft()
        d = dist[v] + 1
        if limit is not None and d > limit:
            break
        for w in g.adj[v]:
            if dist[w] < 0 and (alive is None or alive[w]):
                dist[w] = d
                if d == len(levels):
                    levels.append([])
                levels[d].append(w)
                q.append(w)
    return [tuple(sorted(lv)) for lv in levels]


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
