import random

from dimatch import build_graph, distance_levels, enumerate_dims
from dimatch.coloring import BLACK, WHITE, assign, preprocess, propagate
from dimatch.levels import decompose, normalize
from dimatch.solver import _undecided_parts
from dimatch.patterns import cycle, make_named, path


def _start(g, xy):
    st = preprocess(g)
    assert st.contradiction is None
    x, y = xy
    assign(st, x, BLACK)
    assign(st, y, BLACK)
    propagate(g, st)
    assert st.contradiction is None
    return st


def test_decompose_p6_middle():
    g = make_named(path(6))
    st = _start(g, (1, 2))
    d = decompose(g, st, (1, 2))
    assert d.levels == [(1, 2), (0, 3), (4,), (5,)]
    assert d.s2(st) == [4]
    assert d.blocks(st).members == {4: [5]}
    assert d.m2_pairs(st) == []


def test_decompose_places_nothing_past_the_fourth_level():
    # no caller reads deeper levels; distance_levels without a limit still
    # returns every level
    g = make_named(path(40))
    st = _start(g, (19, 20))
    d = decompose(g, st, (19, 20))
    assert len(d.levels) == 5 and d.level(4) == (15, 24) and d.level(5) == ()
    placed = {v for lv in d.levels for v in lv}
    assert placed == set(range(15, 25))
    assert all(d.level_of[v] == -1 for v in range(40) if v not in placed)
    full = distance_levels(g, (19, 20))
    assert len(full) == 20 and full[19] == (0, 39)
    assert full[:5] == d.levels == distance_levels(g, (19, 20), limit=4)


def test_decompose_p5_end():
    g = make_named(path(5))
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    assert d.levels == [(0, 1), (2,), (3,), (4,)]
    assert d.blocks(st).members == {3: [4]}


def test_decompose_c6():
    g = make_named(cycle(6))
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    assert d.levels == [(0, 1), (2, 5), (3, 4)]
    assert d.m2_pairs(st) == [(3, 4)] and d.s2(st) == []


def test_decompose_installs_exclusions():
    # P7 from the middle: third level {5}, fourth {6}
    g = make_named(path(7))
    st = _start(g, (1, 2))
    d = decompose(g, st, (1, 2))
    assert st.is_excluded(5, 6)


def test_normalize_p6_forces_everything():
    g = make_named(path(6))
    st = _start(g, (1, 2))
    d = decompose(g, st, (1, 2))
    assert normalize(g, st, d)
    assert st.contradiction is None
    assert not _undecided_parts(g, st, range(g.n))
    assert st.mate_pairs() == [(1, 2), (4, 5)]


def test_normalize_p5_forces_everything():
    g = make_named(path(5))
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    assert normalize(g, st, d)
    assert st.mate_pairs() == [(0, 1), (3, 4)]


def test_normalize_fails_on_empty_block():
    # P6 with xy in the middle position (2, 3): the second level is a
    # pair of leaves with no third-level mates; the failure may surface
    # as early as the first propagation
    g = make_named(path(6))
    st = preprocess(g)
    assign(st, 2, BLACK)
    assign(st, 3, BLACK)
    propagate(g, st)
    if st.contradiction is None:
        d = decompose(g, st, (2, 3))
        assert d is None or not normalize(g, st, d)


def test_normalize_three_cross_edges_fail():
    # two blocks of three joined by a perfect matching of three edges
    edges = [(0, 1), (0, 2), (2, 3), (2, 4)]
    edges += [(3, 5), (3, 6), (3, 7), (4, 8), (4, 9), (4, 10)]
    edges += [(5, 8), (6, 9), (7, 10)]
    g = build_graph(11, edges)
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    assert d is not None
    assert not normalize(g, st, d)


def test_normalize_two_cross_edges_whiten_rest():
    edges = [(0, 1), (0, 2), (2, 3), (2, 4)]
    edges += [(3, 5), (3, 6), (3, 7), (4, 8), (4, 9), (4, 10)]
    edges += [(5, 8), (6, 9)]
    g = build_graph(11, edges)
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    assert normalize(g, st, d)
    # 7 and 10 sit off the two cross edges, so they turned white and the
    # sweep removed them
    assert st.removed[7] and st.removed[10]
    assert st.color[7] == WHITE and st.color[10] == WHITE


def test_normalize_bipartite_check():
    # odd cycle across three blocks inside the third level
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5)]
    edges += [(3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11)]
    edges += [(6, 8), (8, 10), (10, 6)]
    g = build_graph(12, edges)
    st = _start(g, (0, 1))
    d = decompose(g, st, (0, 1))
    if d is not None:
        assert not normalize(g, st, d)


def test_forced_colors_agree_with_all_solutions():
    # every color fixed by decompose + normalize + propagation must hold
    # in every solution that contains xy
    rng = random.Random(41)
    graphs = 0
    branches = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        g = build_graph(n, pairs)
        dims = enumerate_dims(g)
        st0 = preprocess(g)
        if st0.contradiction is not None:
            assert not dims
            continue
        graphs += 1
        for xy in g.edges:
            x, y = xy
            if st0.removed[x] or st0.removed[y]:
                continue
            st = st0.clone()
            assign(st, x, BLACK)
            assign(st, y, BLACK)
            propagate(g, st)
            holding = [d for d in dims if xy in d.edges]
            if st.contradiction is not None:
                assert not holding
                continue
            d = decompose(g, st, xy)
            if d is None or not normalize(g, st, d):
                assert not holding
                continue
            branches += 1
            # every live third-level vertex keeps exactly one live
            # second-level neighbor once normalization is done
            for t in d.live_level(st, 3):
                owners = [w for w in g.adj[t]
                          if d.level_of[w] == 2 and not st.removed[w]]
                assert len(owners) == 1
            for dim in holding:
                matched = {v for e in dim.edges for v in e}
                for v in range(n):
                    if st.color[v] == BLACK:
                        assert v in matched
                    elif st.color[v] == WHITE:
                        assert v not in matched
    assert graphs > 100 and branches > 100
