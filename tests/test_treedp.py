"""Small chordal pieces completed to a d.i.m. coloring, as the chordal
site of the solver completes them.  The clique-tree dynamic program
these cases were written for is gone; they now run on the exact
subsolver that replaced it (`solver.constrained_subsolver`)."""
from dimatch import build_graph
from dimatch.coloring import BLACK, WHITE, ColoringState
from dimatch.patterns import cycle, make_named, path
from dimatch.solver import constrained_subsolver


def _complete_all(g, st=None):
    """Complete a d.i.m. coloring of the whole graph, honoring `st`;
    the matched edges, or None if no completion exists."""
    got = constrained_subsolver(g, st or ColoringState(g.n))
    return None if got is None else got.mate_pairs()


def test_single_edge():
    g = build_graph(2, [(0, 1)])
    got = constrained_subsolver(g, ColoringState(2))
    assert got is not None and list(got.color) == [BLACK, BLACK]
    assert got.mate_pairs() == [(0, 1)]


def test_p3_returns_one_of_two():
    assert _complete_all(make_named(path(3))) in ([(0, 1)], [(1, 2)])


def test_triangle_one_matched_edge():
    got = _complete_all(make_named(cycle(3)))
    assert got is not None and len(got) == 1


def test_honors_precolors():
    st = ColoringState(3)
    st.color[0] = WHITE
    assert _complete_all(make_named(cycle(3)), st) == [(1, 2)]


def test_infeasible_returns_none():
    st = ColoringState(3)
    st.color[0] = WHITE
    st.color[1] = WHITE
    assert _complete_all(make_named(cycle(3)), st) is None
