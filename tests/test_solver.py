import itertools
import random

from dimatch import (brute_force_dim, build_graph, enumerate_dims, solve,
                     solve_with_xy, verify_dim)
from dimatch.coloring import ColoringState, WHITE
from dimatch.patterns import (BUTTERFLY, CLAW, DIAMOND, K4, cycle,
                              make_named, path, random_s115_free)
from dimatch.solver import constrained_subsolver


def _agree(g):
    out = solve(g)
    oracle = brute_force_dim(g)
    assert out.status != "hypothesis-violated", out.detail
    assert (out.status == "found") == oracle.exists
    if out.status == "found":
        assert verify_dim(g, out.certificate)
    return out


def test_p6_found_size_two():
    out = _agree(make_named(path(6)))
    assert out.status == "found" and len(out.certificate) == 2


def test_c5_none():
    assert _agree(make_named(cycle(5))).status == "none"


def test_c6_found():
    out = _agree(make_named(cycle(6)))
    assert out.status == "found" and len(out.certificate) == 2


def test_k4_none_with_reason():
    out = solve(make_named(K4))
    assert out.status == "none" and "K4" in out.detail


def test_claw_found_center_edge():
    # any center edge dominates the whole star
    out = _agree(make_named(CLAW))
    assert out.certificate.sorted_edges() == [(0, 1)]


def test_diamond_and_butterfly():
    out = _agree(make_named(DIAMOND))
    assert out.certificate.sorted_edges() == [(1, 3)]
    out = _agree(make_named(BUTTERFLY))
    assert out.certificate.sorted_edges() == [(0, 1), (2, 3)]


def test_edgeless_graph_empty_certificate():
    out = solve(build_graph(4, []))
    assert out.status == "found" and len(out.certificate) == 0


def test_solve_with_xy_p6():
    g = make_named(path(6))
    cert = solve_with_xy(g, (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]
    assert solve_with_xy(g, (2, 3)) is None


def test_solve_with_xy_p7():
    cert = solve_with_xy(make_named(path(7)), (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]


def test_solve_with_xy_matches_oracle_on_every_edge():
    # graphs this small have no induced S115, so the xy branch is exact:
    # a certificate comes back iff some d.i.m. contains the edge
    rng = random.Random(83)
    edges_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 7)
        p = rng.uniform(0.2, 0.7)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        on_some_dim = {e for d in enumerate_dims(g) for e in d.edges}
        for e in g.edges:
            cert = solve_with_xy(g, e)
            assert (cert is not None) == (e in on_some_dim), (g.edges, e)
            if cert is not None:
                assert verify_dim(g, cert) and e in cert.edges
            edges_checked += 1
    assert edges_checked > 4000


def test_solve_with_xy_claw():
    # the matched center edge dominates everything
    cert = solve_with_xy(make_named(CLAW), (0, 1))
    assert cert.sorted_edges() == [(0, 1)]


def test_solve_with_xy_forced_edge():
    g = make_named(DIAMOND)
    cert = solve_with_xy(g, (1, 3))
    assert cert.sorted_edges() == [(1, 3)]
    assert solve_with_xy(g, (0, 1)) is None


def test_subsolver_p2():
    g = build_graph(2, [(0, 1)])
    st = constrained_subsolver(g, ColoringState(2))
    assert st is not None and st.mate_pairs() == [(0, 1)]


def test_subsolver_c4_none():
    g = make_named(cycle(4))
    assert constrained_subsolver(g, ColoringState(4)) is None


def test_subsolver_triangle_with_white():
    g = make_named(cycle(3))
    st = ColoringState(3)
    st.color[0] = WHITE
    got = constrained_subsolver(g, st)
    assert got is not None and got.mate_pairs() == [(1, 2)]


def test_exhaustive_small():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs))
                                if mask >> i & 1])
            _agree(g)


def test_differential_random_small():
    rng = random.Random(61)
    for _ in range(600):
        n = rng.randint(5, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.1, 0.7)]
        _agree(build_graph(n, pairs))


def test_differential_random_s115_free():
    for seed in range(40):
        g = random_s115_free(14, 0.25, 1000 + seed)
        _agree(g)


def test_relabel_invariance():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(4, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, pairs)
        base = solve(g).status
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_graph(n, [(perm[u], perm[v]) for (u, v) in pairs])
            assert solve(h).status == base


def _layer_base(nblocks=5, bsize=2):
    edges = [(0, 1), (0, 2)]
    us, ts, nxt = [], [], 3
    for _ in range(nblocks):
        us.append(nxt)
        edges.append((2, nxt))
        nxt += 1
    for i in range(nblocks):
        blk = []
        for _ in range(bsize):
            blk.append(nxt)
            edges.append((us[i], nxt))
            nxt += 1
        ts.append(blk)
    return edges, us, ts, nxt


def test_block_cycle_two_alternatives():
    edges = [(0, 1), (0, 2)]
    us = list(range(3, 9))
    edges += [(2, u) for u in us]
    t = {i: 9 + 2 * i for i in range(6)}
    tp = {i: 10 + 2 * i for i in range(6)}
    for i in range(6):
        edges += [(us[i], t[i]), (us[i], tp[i])]
    edges += [(tp[i], t[(i + 1) % 6]) for i in range(6)]
    g = build_graph(21, edges)
    out = _agree(g)
    assert out.status == "found"
    kinds = [b.kind for b in out.stats.branch_points]
    assert "cycle" in kinds
    for b in out.stats.branch_points:
        if b.kind == "cycle":
            assert b.explored <= b.bound == 2


def test_cross_block_p3_enumeration():
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5),
             (3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11),
             (6, 8), (8, 10)]
    g = build_graph(12, edges)
    out = _agree(g)
    assert out.status == "found"
    assert any(b.kind == "p3-case" for b in out.stats.branch_points)


def test_far_level_triangle_branches():
    edges, us, ts, nxt = _layer_base()
    z, b, c = nxt, nxt + 1, nxt + 2
    edges += [(ts[0][0], z), (z, b), (z, c), (b, c)]
    g = build_graph(nxt + 3, edges)
    out = _agree(g)
    assert out.status == "found"
    tri = [bp for bp in out.stats.branch_points if bp.kind == "triangle"]
    assert tri and all(bp.explored <= bp.bound == 3 for bp in tri)


def test_far_level_structures_agree():
    # trivial pair, isolated far pair, isolated far vertex, both triangle
    # shapes: each attached to two-element blocks over five singletons
    shapes = []
    edges, us, ts, nxt = _layer_base()
    shapes.append((edges + [(ts[0][0], nxt), (nxt, nxt + 1)], nxt + 2))
    edges, us, ts, nxt = _layer_base()
    shapes.append((edges + [(ts[0][0], nxt), (ts[1][0], nxt + 1),
                            (nxt, nxt + 1)], nxt + 2))
    edges, us, ts, nxt = _layer_base()
    shapes.append((edges + [(ts[0][0], nxt), (ts[1][0], nxt)], nxt + 1))
    edges, us, ts, nxt = _layer_base()
    shapes.append((edges + [(ts[0][0], nxt), (ts[1][0], nxt + 1),
                            (nxt, nxt + 1), (nxt, nxt + 2),
                            (nxt + 1, nxt + 2)], nxt + 3))
    edges, us, ts, nxt = _layer_base()
    z1, z2, w = nxt, nxt + 1, nxt + 2
    shapes.append((edges + [(ts[0][0], z1), (ts[1][0], z2), (z1, w),
                            (z2, w)], nxt + 3))
    for pairs, n in shapes:
        _agree(build_graph(n, pairs))


def test_branch_bounds_respected_on_random_instances():
    rng = random.Random(83)
    for seed in range(60):
        g = random_s115_free(rng.choice((10, 13, 16)),
                             rng.choice((0.1, 0.2, 0.3)), 5000 + seed)
        out = solve(g)
        for b in out.stats.branch_points:
            assert b.explored <= b.bound
            if b.kind == "triangle":
                assert b.bound == 3
            elif b.kind == "cycle":
                assert b.bound == 2


def test_found_certificates_always_contain_forced_pairs():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(4, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        g = build_graph(n, pairs)
        out = solve(g)
        if out.status != "found":
            continue
        for d in enumerate_dims(g):
            break
        else:
            raise AssertionError("oracle disagrees")


def test_tuple_bound_for_block_sizes_3224():
    # four second-level singletons with block sizes 3, 2, 2, 4 and a
    # far-level triangle: the tuple site is bounded by the product 48,
    # and infeasible tuples (adjacent far whites) get rejected
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6)]
    blocks = {3: [7, 8, 9], 4: [10, 11], 5: [12, 13], 6: [14, 15, 16, 17]}
    for u, ts in blocks.items():
        edges += [(u, t) for t in ts]
    edges += [(7, 18), (10, 19), (12, 20), (18, 19), (18, 20), (19, 20)]
    g = build_graph(21, edges)
    out = _agree(g)
    assert out.status == "found"
    tuples = [b for b in out.stats.branch_points if b.kind == "tuple"]
    assert tuples and tuples[0].bound == 48
    assert 1 < tuples[0].explored <= 48


def test_deep_case_on_spider_free_instances():
    # random wide-second-level instances that stay S115-free and reach
    # the deep far-level machinery; answers must match the oracle
    rng = random.Random(777)
    deep_hits = 0
    compared = 0
    while compared < 250:
        w2 = rng.randint(5, 6)
        edges = {(0, 1), (0, 2)}
        us = list(range(3, 3 + w2))
        for u in us:
            edges.add((2, u))
        nxt = 3 + w2
        tlist = []
        for u in us:
            for _ in range(rng.randint(1, 2)):
                edges.add((u, nxt))
                tlist.append(nxt)
                nxt += 1
        fars = []
        for t in rng.sample(tlist, k=min(len(tlist), rng.randint(1, 3))):
            edges.add((t, nxt))
            fars.append(nxt)
            nxt += 1
        if len(fars) >= 2 and rng.random() < 0.6:
            edges.add((min(fars[:2]), max(fars[:2])))
        if fars and rng.random() < 0.5:
            edges.add((fars[-1], nxt))
            nxt += 1
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(tlist, 2)
            edges.add((min(a, b), max(a, b)))
        g = build_graph(nxt, sorted(edges))
        from dimatch.patterns import find_induced, S115
        if find_induced(g, S115) is not None:
            continue
        compared += 1
        out = _agree(g)
        deep_hits += "n2-large" in out.stats.case_seconds
    assert deep_hits > 100


HV_EDGES = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 8),
            (3, 9), (4, 10), (4, 11), (5, 12), (5, 13), (6, 14), (6, 15),
            (7, 16), (7, 17), (8, 18), (9, 21), (10, 19), (12, 20),
            (14, 21), (18, 19), (19, 20), (20, 21)]


def test_hypothesis_violation_reports_witness():
    # a wide second level with a far-level path of four: outside the
    # supported class, and the solver says so instead of answering
    g = build_graph(22, HV_EDGES)
    out = solve(g)
    assert out.status == "hypothesis-violated"
    assert "far-level" in out.detail
    assert out.witness is not None and len(out.witness.vertices) == 8
    assert not brute_force_dim(g).exists


def _case_pairs(g, xy):
    """Pairs of the whole graph when the xy branch runs on the component
    of xy, with the case timings of that branch."""
    from dimatch import DimCertificate, connected_components
    from dimatch.coloring import preprocess
    from dimatch.solver import SolveStats, _solve_with_xy_internal
    base, _ = preprocess(g)
    assert base.contradiction is None
    comp = next(c for c in connected_components(g, base.live_mask())
                if xy[0] in c)
    stats = SolveStats()
    pairs = _solve_with_xy_internal(g, base, frozenset(comp), xy, stats)
    assert pairs is not None
    cert = DimCertificate(frozenset(pairs | set(base.mate_pairs())))
    assert verify_dim(g, cert) and xy in cert.edges
    return cert, stats


def test_case_entry_points():
    # P6 is finished by normalization and never reaches a case solver
    cert, _ = _case_pairs(make_named(path(6)), (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]

    edges, us, ts, nxt = _layer_base()
    _, stats = _case_pairs(build_graph(nxt, edges), (0, 1))
    assert "n4-empty" in stats.case_seconds

    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6)]
    blocks = {3: [7, 8, 9], 4: [10, 11], 5: [12, 13], 6: [14, 15, 16, 17]}
    for u, ts in blocks.items():
        edges += [(u, t) for t in ts]
    edges += [(7, 18), (10, 19), (12, 20), (18, 19), (18, 20), (19, 20)]
    _, stats = _case_pairs(build_graph(21, edges), (0, 1))
    assert "n2-small" in stats.case_seconds

    edges, us, ts, nxt = _layer_base()
    z, b, c = nxt, nxt + 1, nxt + 2
    edges += [(ts[0][0], z), (z, b), (z, c), (b, c)]
    _, stats = _case_pairs(build_graph(nxt + 3, edges), (0, 1))
    assert "n2-large" in stats.case_seconds
