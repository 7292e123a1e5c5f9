import random

import pytest

from dimatch import (DimCertificate, GraphInputError, build_graph,
                     connected_components, verify_dim, verify_dim_report)
from dimatch.patterns import BUTTERFLY
from shapes import cycle, make_named, path


def test_build_p2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)


def test_build_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.m == 2 and g.adj[1] == (0, 2)


def test_build_rejects_self_loop():
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 0)])


def test_build_rejects_duplicates_and_range():
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, pairs, message", [
    (-1, [], "vertex count must be nonnegative, got -1"),
    (3.0, [(0, 1)], "vertex count must be an integer, got 3.0"),
    (True, [], "vertex count must be an integer, got True"),
    (3, [(0, 1, 2)], "malformed edge pair: (0, 1, 2)"),
    (3, [(0, 1), 5], "malformed edge pair: 5"),
    (3, [(0, 1), (x for x in (1, 2))], "malformed edge pair: <generator"),
    (3, [(0, 1.0)], "edge endpoints must be integers: (0, 1.0)"),
    # True == 1, so a bool id used to pass and leave `True` in the edges,
    # which emit_graph then wrote out
    (3, [(True, 2)], "edge endpoints must be integers: (True, 2)"),
    (3, [(0, 1), (False, 2)], "edge endpoints must be integers: (False, 2)"),
    (3, [(0, 1), (2, 2), (0, 3)], "self-loop rejected: (2, 2)"),
    (3, [(0, 1), (0, 3), (2, 2)], "vertex id out of range 0..2: (0, 3)"),
    (3, [(-1, 0)], "vertex id out of range 0..2: (-1, 0)"),
    (3, [(2, 1), (0, 1), (1, 2)], "duplicate edge rejected: (1, 2)"),
])
def test_build_names_the_first_offending_pair(n, pairs, message):
    # the bulk checks reject the input, and the pair-by-pair rescan names
    # the first pair a check fails on
    with pytest.raises(GraphInputError) as err:
        build_graph(n, pairs)
    assert str(err.value).startswith(message)


def test_build_is_canonical_in_any_pair_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 9)
        keys = sorted({(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < 0.4})
        adj = [[] for _ in range(n)]
        for u, v in keys:
            adj[u].append(v)
            adj[v].append(u)
        pairs = [(u, v) if rng.random() < 0.5 else [v, u] for u, v in keys]
        rng.shuffle(pairs)
        g = build_graph(n, iter(pairs))
        assert g.n == n and g.edges == tuple(keys) and g.m == len(keys)
        assert g.adj == tuple(tuple(sorted(a)) for a in adj)
        assert g.adjset == tuple(frozenset(a) for a in adj)


def test_verify_dim_p3():
    g = make_named(path(3))
    assert verify_dim(g, [(0, 1)])
    assert verify_dim(g, [(1, 2)])
    assert not verify_dim(g, [])


def test_verify_dim_c4_single_edge():
    g = make_named(cycle(4))
    ok, why = verify_dim_report(g, [(0, 1)])
    assert not ok and "(2, 3)" in why


def test_verify_dim_butterfly_peripherals():
    g = make_named(BUTTERFLY)
    assert verify_dim(g, [(0, 1), (2, 3)])


def test_verify_dim_non_edge_reports():
    g = make_named(path(3))
    ok, why = verify_dim_report(g, [(0, 2)])
    assert not ok and "not an edge" in why


def test_verify_dim_overlap_rejected_by_certificate():
    with pytest.raises(ValueError):
        DimCertificate(frozenset({(0, 1), (1, 2)}))


def test_verify_dim_matches_definition_small():
    # independent definitional count over all edge subsets
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = build_graph(n, pairs)
        for mask in range(1 << g.m):
            subset = [g.edges[i] for i in range(g.m) if mask >> i & 1]
            try:
                cert = DimCertificate(frozenset(subset))
            except ValueError:
                continue
            byhand = all(
                sum(1 for f in subset if set(f) & set(e)) == 1
                for e in g.edges)
            assert verify_dim(g, cert) == byhand


def test_empty_certificate_on_edgeless_graph():
    g = build_graph(3, [])
    assert verify_dim(g, DimCertificate())


def test_connected_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [(0, 1), (2, 3)]
    g = make_named(path(6))
    assert connected_components(g) == [(0, 1, 2, 3, 4, 5)]
    g = build_graph(3, [])
    assert connected_components(g) == [(0,), (1,), (2,)]


def _reference_components(n, edges, alive):
    """Components of the live vertices by union-find: sorted tuples,
    ordered by minimum id."""
    live = [alive is None or bool(alive[v]) for v in range(n)]
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        if live[u] and live[v]:
            root[find(u)] = find(v)
    groups = {}
    for v in range(n):
        if live[v]:
            groups.setdefault(find(v), []).append(v)
    return sorted(tuple(g) for g in groups.values())


def test_connected_components_reads_any_truthy_alive_entry():
    from dimatch.coloring import ColoringState
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 30)
        p = rng.uniform(0.0, 0.3)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        state = ColoringState(n)
        state.color[:] = bytes(rng.choice((0, 0, 1, 2)) for _ in range(n))
        flags = [rng.random() < 0.7 for _ in range(n)]
        masks = [None, state.live_mask(), flags,
                 # any truthy entry is alive: a 2 or a 255 as much as a 1
                 bytearray(rng.choice((1, 2, 255)) if f else 0
                           for f in flags),
                 [rng.choice((1, 2, -1, 7)) if f else 0 for f in flags]]
        for alive in masks:
            comps = connected_components(g, alive)
            assert comps == _reference_components(n, g.edges, alive)
            assert all(type(c) is tuple and list(c) == sorted(c)
                       for c in comps)
            assert [c[0] for c in comps] == sorted(c[0] for c in comps)


def test_connected_components_within_splits_the_induced_subgraph():
    # the ascending ids given as `within` split as the mask that holds
    # exactly them, and no vertex outside them is reached, though many
    # are neighbors of vertices inside
    rng = random.Random(31)
    reached_out = 0
    for _ in range(300):
        n = rng.randint(0, 30)
        p = rng.uniform(0.0, 0.3)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        within = [v for v in range(n) if rng.random() < 0.6]
        mask = [v in within for v in range(n)]
        comps = connected_components(g, within=within)
        assert comps == connected_components(g, mask)
        assert comps == _reference_components(n, g.edges, mask)
        assert sorted(v for c in comps for v in c) == within
        reached_out += any(not mask[w] for v in within for w in g.adj[v])
    assert reached_out > 100
    assert connected_components(g, within=[]) == []


# P6: 0-1-2-3-4-5
@pytest.mark.parametrize("cert, message", [
    # a non-edge member comes first in sorted order, before a shared
    # vertex and before the edges it leaves undominated
    ([(3, 4), (0, 5), (4, 5)],
     "certificate member (0, 5) is not an edge of the graph"),
    # a vertex shared by two members, before a later non-edge member
    ([(3, 5), (1, 2), (0, 1)], "vertex 1 lies in two certificate edges"),
    ([(2, 1), (0, 1)], "vertex 1 lies in two certificate edges"),
    # the members are edges: the first edge of the graph at fault is named
    ([(4, 5), (2, 3)], "edge (0, 1) is dominated by no certificate edge"),
    ([(0, 1), (3, 2)], "edge (1, 2) is dominated by (0, 1) and (2, 3)"),
    ([(1, 0)], "edge (2, 3) is dominated by no certificate edge"),
    ([(1, 2), (3, 4)], "edge (2, 3) is dominated by (1, 2) and (3, 4)"),
])
def test_verify_dim_report_names_the_first_fault(cert, message):
    g = make_named(path(6))
    assert verify_dim_report(g, cert) == (False, message)


def test_dim_certificate_canonical_form():
    assert DimCertificate(frozenset({(1, 0), (2, 3)})).edges == \
        frozenset({(0, 1), (2, 3)})
    assert DimCertificate([(5, 4)]).sorted_edges() == [(4, 5)]
    assert DimCertificate([[5, 4], [0, 1]]).edges == {(0, 1), (4, 5)}
    assert DimCertificate().edges == frozenset() == \
        DimCertificate(frozenset()).edges
    assert len(DimCertificate()) == 0
    for shared in ({(0, 1), (2, 1)}, {(0, 1), (1, 0), (1, 2)},
                   {(3, 3), (3, 4)}, {(3, 3), (4, 3)}):
        with pytest.raises(ValueError, match="not vertex-disjoint"):
            DimCertificate(frozenset(shared))
    # a self-loop member holds one vertex: it constructs, and the check
    # reports it as no edge of the graph
    cert = DimCertificate(frozenset({(3, 3), (0, 1)}))
    assert cert.sorted_edges() == [(0, 1), (3, 3)]
    g = make_named(path(6))
    assert verify_dim_report(g, cert) == (
        False, "certificate member (3, 3) is not an edge of the graph")
