"""Immutable simple undirected graph plus the d.i.m. certificate verifier.

Vertices are dense integer ids 0..n-1.  A dominating induced matching
(d.i.m.) of a graph is an edge set M such that every edge of the graph
shares an endpoint with exactly one member of M (members intersect
themselves).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, starmap
from operator import eq, lt, truth


class GraphInputError(ValueError):
    """Raised for input the program rejects: a malformed graph (bad ids,
    self-loops, duplicates) or a parameter out of range."""


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
        raise _first_bad_pair(n, ())
    pairs = list(edge_pairs)
    try:
        us, vs = zip(*pairs) if pairs else ((), ())
        valid = {2}.issuperset(map(len, pairs)) \
            and {int}.issuperset(map(type, chain(us, vs)))
    except (TypeError, ValueError):     # a pair is not a sequence of two
        valid = False
    if not valid:
        raise _first_bad_pair(n, pairs)
    return _from_ends(n, us, vs)


def _from_ends(n: int, us, vs) -> Graph:
    """The Graph on n vertices whose i-th edge joins us[i] and vs[i], for
    an int n and sequences of ints: the checks and the adjacency that the
    parse and `build_graph` share, raising what `build_graph` raises."""
    if all(map(lt, us, vs)):
        edges = list(zip(us, vs))
    elif any(map(eq, us, vs)):
        raise _first_bad_pair(n, zip(us, vs))
    else:
        edges = list(zip(map(min, us, vs), map(max, us, vs)))
    if not all(map(lt, edges, edges[1:])):      # else sorted and distinct
        edges.sort()
        if any(map(eq, edges, edges[1:])):
            raise _first_bad_pair(n, zip(us, vs))
    try:
        if n < 0 or edges and edges[0][0] < 0:
            raise IndexError
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:          # sorted edges leave each list sorted
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:              # a count or an id below 0, an id >= n
        raise _first_bad_pair(n, zip(us, vs)) from None
    except MemoryError:
        raise GraphInputError(f"vertex count {n} is too large: no "
                              "memory for its adjacency") from None
    return Graph(n, tuple(map(tuple, adj)), tuple(edges))


def _first_bad_pair(n: int, pairs) -> GraphInputError:
    if n < 0:
        return GraphInputError(f"vertex count must be nonnegative, got {n}")
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


def connected_components(g: Graph, alive=None, within=None
                         ) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by minimum id;
    given `alive`, any sequence indexed by vertex, those of the vertices
    whose entry is truthy (a 2 is as live as a 1), joined by their edges.
    Given `within` in place of `alive`, vertex ids in ascending order,
    those of the subgraph they induce, in time linear in its size, not
    in n."""
    adj, comps = g.adj, []
    if within is None:
        # 1 for a live vertex not yet placed in a component
        left = bytearray(map(truth, b"\x01" * g.n if alive is None else alive))
        within = compress(range(g.n), left)     # reads `left` as it goes
    else:
        left = defaultdict(int, dict.fromkeys(within, 1))
    for s in within:
        if not left[s]:
            continue
        left[s] = 0
        comp = [s]
        for v in comp:              # grows while it is read: a search
            for w in adj[v]:
                if left[w]:
                    left[w] = 0
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class DimCertificate:
    """A set of edges claimed to be a d.i.m.; must be a matching."""

    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        canon = self.edges if type(self.edges) is frozenset else \
            frozenset(map(tuple, self.edges))
        if not all(starmap(lt, canon)):
            canon = frozenset([edge_key(u, v) for (u, v) in canon])
        object.__setattr__(self, "edges", canon)
        # a member (u, u) holds one vertex, which no other may share
        if len(set(chain.from_iterable(canon))) + sum(starmap(eq, canon)) \
                != 2 * len(canon):
            raise ValueError("certificate edges are not vertex-disjoint")

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
    owner: list[tuple[int, int] | None] = [None] * g.n
    for e in sorted(edges):
        u, v = e
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False, f"certificate member {e} is not an edge of the graph"
        for w in e:
            if owner[w] is not None:
                return False, f"vertex {w} lies in two certificate edges"
            owner[w] = e
    for (u, v) in g.edges:
        a = owner[u]
        b = owner[v]
        if a is None:
            if b is None:
                return False, f"edge ({u}, {v}) is dominated by no certificate edge"
        elif b is not None and b is not a:
            return False, f"edge ({u}, {v}) is dominated by {a} and {b}"
    return True, None


def verify_dim(g: Graph, cert) -> bool:
    """True iff the certificate is a dominating induced matching of g."""
    ok, _ = verify_dim_report(g, cert)
    return ok
