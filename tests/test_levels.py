"""The xy branch on the distance-level shapes of the paper.

The level normalization these tests were first written for is gone: a
branch assigns x and y black, propagates, and completes each undecided part
with the exact subsolver.  Each test keeps its shape and checks that the
branch forces, or rules out, what the level rules did.
"""

import random

from dimatch import build_graph, enumerate_dims
from dimatch.coloring import BLACK, WHITE, assign, preprocess, propagate
from dimatch.solver import SolveStats, _solve_xy_branch, _undecided_parts
from dimatch.patterns import make_named, path


def _propagated(g, xy):
    """The preprocessed state with x and y black, propagated, or None on
    a contradiction."""
    st = preprocess(g)
    assert st.contradiction is None
    assign(st, xy[0], BLACK)
    assign(st, xy[1], BLACK)
    return st if propagate(g, st) else None


def _branch(g, xy):
    """The pairs of a d.i.m. through xy found by the solver's branch on
    xy, or None when it finds that no d.i.m. matches xy."""
    st = preprocess(g)
    if _solve_xy_branch(g, st, range(g.n), xy, SolveStats()):
        return set(st.mate_pairs())
    return None


def test_normalize_p6_forces_everything():
    g = make_named(path(6))
    st = _propagated(g, (1, 2))
    assert st is not None
    assert not _undecided_parts(g, st, range(g.n))
    assert st.mate_pairs() == [(1, 2), (4, 5)]


def test_normalize_p5_forces_everything():
    g = make_named(path(5))
    st = _propagated(g, (0, 1))
    assert st is not None
    assert not _undecided_parts(g, st, range(g.n))
    assert st.mate_pairs() == [(0, 1), (3, 4)]


def test_normalize_fails_on_empty_block():
    # P6 with xy in the middle position (2, 3): the second level is a
    # pair of leaves with no third-level mates
    assert _propagated(make_named(path(6)), (2, 3)) is None


def _two_blocks(cross):
    # xy = (0, 1), 2 on x, owners 3 and 4 with blocks {5, 6, 7} and
    # {8, 9, 10}, joined by the given cross edges
    edges = [(0, 1), (0, 2), (2, 3), (2, 4)]
    edges += [(3, 5), (3, 6), (3, 7), (4, 8), (4, 9), (4, 10)]
    return build_graph(11, edges + cross)


def test_normalize_three_cross_edges_fail():
    # two blocks of three joined by a perfect matching of three edges:
    # the two mates cover at most two of them
    g = _two_blocks([(5, 8), (6, 9), (7, 10)])
    assert _propagated(g, (0, 1)) is not None
    assert _branch(g, (0, 1)) is None


def test_normalize_two_cross_edges_whiten_rest():
    # 7 and 10 sit off the two cross edges, so they are white in every
    # d.i.m. through xy, and in the one the branch finds
    g = _two_blocks([(5, 8), (6, 9)])
    dims = [d.edges for d in enumerate_dims(g) if (0, 1) in d.edges]
    pairs = _branch(g, (0, 1))
    assert dims and pairs is not None and frozenset(pairs) in dims
    for d in dims:
        matched = {v for e in d for v in e}
        assert 7 not in matched and 10 not in matched


def test_normalize_bipartite_check():
    # odd cycle across three blocks inside the third level
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5)]
    edges += [(3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11)]
    edges += [(6, 8), (8, 10), (10, 6)]
    g = build_graph(12, edges)
    assert _branch(g, (0, 1)) is None


def test_forced_colors_agree_with_all_solutions():
    # every color the branch's propagate fixes must hold in every solution
    # that contains xy, and a contradiction means there is none
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
            if WHITE in (st0.color[x], st0.color[y]):
                continue
            st = st0.clone()
            assign(st, x, BLACK)
            assign(st, y, BLACK)
            holding = [d for d in dims if xy in d.edges]
            if not propagate(g, st):
                assert not holding
                continue
            branches += 1
            for dim in holding:
                matched = {v for e in dim.edges for v in e}
                for v in range(n):
                    if st.color[v] == BLACK:
                        assert v in matched
                    elif st.color[v] == WHITE:
                        assert v not in matched
    assert graphs > 100 and branches > 100
