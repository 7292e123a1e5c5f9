import random

from dimatch import build_graph, enumerate_dims
from dimatch.coloring import (BLACK, UNKNOWN, WHITE, ColoringState,
                              ReductionLog, assign, edge_reduction,
                              preprocess, propagate, settle, vertex_reduction)
from dimatch.patterns import (BUTTERFLY, CLAW, DIAMOND, K4, cycle,
                              make_named, path)


def test_assign_conflict_sets_contradiction():
    st = ColoringState(2)
    assign(st, 0, BLACK)
    assign(st, 0, WHITE)
    assert st.contradiction is not None


def test_adjacent_whites_contradict():
    g = make_named(path(3))
    st = ColoringState(3)
    assign(st, 0, WHITE)
    assign(st, 1, WHITE)
    propagate(g, st)
    assert st.contradiction is not None


def test_black_needs_a_mate():
    g = build_graph(2, [])
    st = ColoringState(2)
    assign(st, 0, BLACK)
    propagate(g, st)
    assert st.contradiction is not None


def test_white_forces_neighbors_black():
    g = make_named(path(3))
    st = ColoringState(3)
    assign(st, 1, WHITE)
    propagate(g, st)
    assert st.color[0] == BLACK and st.color[2] == BLACK


def test_adjacent_blacks_mate_and_whiten():
    g = make_named(path(3))
    st = ColoringState(3)
    assign(st, 0, BLACK)
    assign(st, 1, BLACK)
    propagate(g, st)
    assert st.mate[0] == 1 and st.mate[1] == 0
    assert st.color[2] == WHITE and st.contradiction is None


def test_excluded_edge_rule():
    # path a-b-c-d, edge bc excluded, b black: c goes white, then d black
    # and the final black has no mate left, a documented contradiction
    g = make_named(path(4))
    st = ColoringState(4)
    st.exclude(1, 2)
    assign(st, 1, BLACK)
    propagate(g, st)
    assert st.color[2] == WHITE
    assert st.color[3] == BLACK
    assert st.contradiction is not None


def test_all_excluded_c4_is_infeasible():
    g = make_named(cycle(4))
    st = ColoringState(4)
    for (u, v) in g.edges:
        st.exclude(u, v)
    assign(st, 0, BLACK)
    propagate(g, st)
    assert st.contradiction is not None


def test_fixpoint_is_order_independent():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, pairs)
        picks = [(rng.randrange(n), rng.choice((BLACK, WHITE)))
                 for _ in range(2)]
        results = []
        for _ in range(3):
            order = list(picks)
            rng.shuffle(order)
            st = ColoringState(n)
            for v, c in order:
                assign(st, v, c)
            propagate(g, st)
            results.append((st.contradiction is None, bytes(st.color),
                            tuple(st.mate)))
        assert all(r[0] == results[0][0] for r in results)
        if results[0][0]:
            assert all(r == results[0] for r in results)


def test_edge_reduction_diamond_mid():
    g = make_named(DIAMOND)
    st, log = ColoringState(4), ReductionLog()
    edge_reduction(g, st, log, 1, 3)
    assert st.contradiction is None
    assert [v for v in range(4) if st.color[v] == WHITE] == [0, 2]
    assert st.removed[1] and st.removed[3]
    assert log.forced_edges == [(1, 3)]


def test_edge_reduction_butterfly_both_peripherals():
    g = make_named(BUTTERFLY)
    st, log = ColoringState(5), ReductionLog()
    edge_reduction(g, st, log, 0, 1)
    edge_reduction(g, st, log, 2, 3)
    settle(g, st, log)
    assert st.contradiction is None
    assert not st.live_unknowns()
    assert set(log.forced_edges) == {(0, 1), (2, 3)}


def test_edge_reduction_p2():
    g = build_graph(2, [(0, 1)])
    st, log = ColoringState(2), ReductionLog()
    edge_reduction(g, st, log, 0, 1)
    assert not st.live_unknowns() and st.mate_pairs() == [(0, 1)]


def test_vertex_reduction_p3_center():
    g = make_named(path(3))
    st, log = ColoringState(3), ReductionLog()
    vertex_reduction(g, st, log, 1)
    assert st.contradiction is not None  # both leaves black, no mates


def test_vertex_reduction_isolated():
    g = build_graph(1, [])
    st, log = ColoringState(1), ReductionLog()
    vertex_reduction(g, st, log, 0)
    assert st.contradiction is None and st.removed[0]


def test_vertex_reduction_claw_center():
    g = make_named(CLAW)
    st, log = ColoringState(4), ReductionLog()
    vertex_reduction(g, st, log, 0)
    assert st.contradiction is not None


def test_preprocess_k4_rejected():
    st, _ = preprocess(make_named(K4))
    assert st.contradiction is not None and "K4" in st.contradiction


def test_preprocess_diamond_reduces_to_empty():
    g = make_named(DIAMOND)
    st, log = preprocess(g)
    assert st.contradiction is None
    assert not any(not st.removed[v] for v in range(4))
    assert st.mate_pairs() == [(1, 3)]


def test_preprocess_c6_untouched():
    g = make_named(cycle(6))
    st, log = preprocess(g)
    assert st.live_unknowns() == list(range(6)) and not log.entries


def test_preprocess_strict_c4_excludes_cycle_edges():
    g = make_named(cycle(4))
    st, _ = preprocess(g, strict_c4=True)
    assert all(st.is_excluded(u, v) for (u, v) in g.edges)


def test_preprocess_preserves_existence_small():
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, pairs)
        dims = enumerate_dims(g)
        st, log = preprocess(g)
        if st.contradiction is not None:
            assert not dims
            continue
        checked += 1
        forced = set(st.mate_pairs())
        for d in dims:
            # forced pairs appear in every solution; whites never do
            assert forced <= d.edges
            matched = {v for e in d.edges for v in e}
            for v in range(n):
                if st.color[v] == BLACK:
                    assert v in matched
                elif st.color[v] == WHITE:
                    assert v not in matched
    assert checked > 200


def test_fixpoint_invariants_hold():
    # at a contradiction-free fixpoint: whites independent, every black
    # has at most one black neighbor, mate map symmetric along edges
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, pairs)
        st = ColoringState(n)
        for _ in range(3):
            assign(st, rng.randrange(n), rng.choice((BLACK, WHITE)))
        propagate(g, st)
        if st.contradiction is not None:
            continue
        for (u, v) in g.edges:
            assert not (st.color[u] == WHITE and st.color[v] == WHITE)
        for v in range(n):
            if st.color[v] == BLACK:
                blacks = [w for w in g.adj[v] if st.color[w] == BLACK]
                assert len(blacks) <= 1
            if st.mate[v] >= 0:
                assert st.mate[st.mate[v]] == v
                assert g.has_edge(v, st.mate[v])


def test_worklist_reaches_the_full_fixpoint():
    # mutations feed the worklist on their own: after a contradiction-free
    # propagate, re-queueing every live colored vertex changes nothing
    rng = random.Random(61)
    checked = 0
    for _ in range(20000):
        n = rng.randint(3, 10)
        p = rng.uniform(0.2, 0.6)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        st, log = ColoringState(n), ReductionLog()
        for _ in range(rng.randint(1, 5)):
            live = [v for v in range(n) if not st.removed[v]]
            live_edges = [(u, v) for (u, v) in g.edges
                          if not st.removed[u] and not st.removed[v]]
            step = rng.random()
            if step < 0.5 or not live_edges:
                assign(st, rng.choice(live), rng.choice((BLACK, WHITE)))
            elif step < 0.8:
                st.exclude(*rng.choice(live_edges))
            else:
                edge_reduction(g, st, log, *rng.choice(live_edges))
            if rng.random() < 0.5:
                propagate(g, st)
            if st.contradiction is not None or all(st.removed):
                break
        propagate(g, st)
        if st.contradiction is not None:
            continue
        checked += 1
        before = (bytes(st.color), tuple(st.mate), bytes(st.removed))
        st.pending = [v for v in range(n)
                      if not st.removed[v] and st.color[v] != UNKNOWN]
        propagate(g, st)
        assert st.contradiction is None
        assert (bytes(st.color), tuple(st.mate), bytes(st.removed)) == before
    assert checked > 5000
