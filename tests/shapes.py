"""Named graphs and reference checks that only the tests use.

The pattern kinds the solver searches for (`K4`, `DIAMOND`, `BUTTERFLY`
and `S115`) live in `dimatch.patterns`; the claw, paths, cycles and
general spiders S_{i,j,k} (three induced paths of lengths i, j, k glued
at a center; S_{1,1,1} is the claw) are built here with the same
`PatternKind` record: tags `Claw`, `P_k` with params (k,), `C_k` with
(k,) and `S_ijk` with (i, j, k).  `check_witness` re-checks a
`PatternWitness` against the named graph, and `dims_by_subset_filter`
is the second, dumber oracle the branching one is compared with.
"""

from itertools import combinations

from dimatch import DimCertificate, Graph, build_graph, verify_dim
from dimatch.patterns import PatternKind, PatternWitness

CLAW = PatternKind("Claw")


def spider(i: int, j: int, k: int) -> PatternKind:
    return PatternKind("S_ijk", (i, j, k))


def path(k: int) -> PatternKind:
    return PatternKind("P_k", (k,))


def cycle(k: int) -> PatternKind:
    return PatternKind("C_k", (k,))


def make_named(kind: PatternKind) -> Graph:
    """Construct the canonical graph of a pattern, ids in role order."""
    t, p = kind.tag, kind.params
    if t == "K4":
        return build_graph(4, list(combinations(range(4), 2)))
    if t == "Diamond":
        # P3 (0,1,2) plus 3 joined to all of it; mid-edge (1, 3)
        return build_graph(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    if t == "Butterfly":
        # peripheral edges (0,1) and (2,3); 4 joined to all
        return build_graph(5, [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    if t == "Claw":
        return build_graph(4, [(0, 1), (0, 2), (0, 3)])
    if t == "P_k":
        k = p[0]
        return build_graph(k, [(i, i + 1) for i in range(k - 1)])
    if t == "C_k":
        k = p[0]
        return build_graph(k, [(i, (i + 1) % k) for i in range(k)])
    # spider: center 0, legs numbered consecutively
    i, j, k = p
    pairs = []
    nxt = 1
    for leg in (i, j, k):
        prev = 0
        for _ in range(leg):
            pairs.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(1 + i + j + k, pairs)


def check_witness(g: Graph, w: PatternWitness) -> bool:
    """Re-check that the listed vertices induce exactly the named pattern."""
    model = make_named(w.kind)
    vs = w.vertices
    if len(vs) != model.n or len(set(vs)) != model.n:
        return False
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if model.has_edge(i, j) != g.has_edge(vs[i], vs[j]):
                return False
    return True


def dims_by_subset_filter(g: Graph, max_edges: int = 18) -> list[DimCertificate]:
    """Second, dumber oracle: filter every subset of the edge list."""
    if g.m > max_edges:
        raise ValueError(f"subset filter limited to {max_edges} edges, graph has {g.m}")
    out = []
    for mask in range(1 << g.m):
        subset = [g.edges[i] for i in range(g.m) if mask >> i & 1]
        try:
            cert = DimCertificate(frozenset(subset))
        except ValueError:
            continue
        if verify_dim(g, cert):
            out.append(cert)
    out.sort(key=lambda c: c.sorted_edges())
    return out
