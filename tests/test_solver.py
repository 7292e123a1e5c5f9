import itertools
import random
import sys
from pathlib import Path

import pytest

from dimatch import (brute_force_dim, build_graph, connected_components,
                     enumerate_dims, solve, verify_dim)
from dimatch import cli, patterns, solver
from dimatch.coloring import (BLACK, UNKNOWN, WHITE, ColoringState, assign,
                              preprocess, propagate)
from dimatch.patterns import (BUTTERFLY, DIAMOND, K4, S115, find_induced,
                              random_s115_free)
from dimatch.solver import constrained_subsolver
from shapes import CLAW, check_witness, cycle, make_named, path
from test_coloring import kept_leaf_dim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from diffcheck import (G24, POOLS, SEED, _graph,  # noqa: E402
                       _sparse_planted, block_graph,
                       block_tree, fan_chain, planted)


def _untwin_leaves(n, edges):
    """(n, edges) with a path t, a, b, c of three new vertices hung on
    each pendant leaf t that has a false twin, so that preprocessing's
    twin step leaves the graph to the search.  Its d.i.m.s are those of
    the graph one for one: ab is matched when t is white, bc when t is
    matched, and t is never matched to a, as c would have no mate."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves = [t for t in range(n) if len(adj[t]) == 1
              and sum(len(adj[s]) == 1 for s in adj[adj[t][0]]) > 1]
    edges = list(edges)
    for t in leaves:
        edges += [(t, n), (n, n + 1), (n + 1, n + 2)]
        n += 3
    return n, edges


def _complete(st, within):
    """No contradiction, and every vertex of `within` white or mated."""
    return st.contradiction is None and all(
        st.color[v] == WHITE or st.mate[v] >= 0 for v in within)


def _cover_all(g, st, stats=None):
    """Complete a propagated state of the whole graph with a covering
    node per live component, as `solve` does: `st` completed, or None."""
    if st.contradiction is not None:
        return None
    stats = solver.SolveStats() if stats is None else stats
    for comp in connected_components(g, st.live_mask()):
        if not solver._cover(g, st, comp, stats,
                             solver.NODES_PER_VERTEX * g.n):
            return None
    return st


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


def _xy_cert(g, xy):
    """The certificate of `solve(g, xy=xy)`, or None on `none`; it must
    verify and match xy."""
    out = solve(g, xy=xy)
    assert out.status in ("found", "none"), out.detail
    if out.status == "none":
        return None
    assert verify_dim(g, out.certificate) and xy in out.certificate.edges
    return out.certificate


def test_solve_xy_p6():
    g = make_named(path(6))
    cert = _xy_cert(g, (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]
    assert _xy_cert(g, (2, 3)) is None


def test_solve_xy_p7():
    cert = _xy_cert(make_named(path(7)), (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]


def test_solve_xy_matches_oracle_on_every_edge():
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
            cert = _xy_cert(g, e)
            assert (cert is not None) == (e in on_some_dim), (g.edges, e)
            edges_checked += 1
    assert edges_checked > 4000


def test_solve_xy_claw():
    # the matched center edge dominates everything
    cert = _xy_cert(make_named(CLAW), (0, 1))
    assert cert.sorted_edges() == [(0, 1)]


def test_solve_xy_forced_edge():
    g = make_named(DIAMOND)
    cert = _xy_cert(g, (1, 3))
    assert cert.sorted_edges() == [(1, 3)]
    out = solve(g, xy=(0, 1))
    assert out.status == "none" and out.detail == \
        "preprocessing rules out (0, 1)"


def test_forced_pairs_stay_live_and_xy_on_one_takes_no_branch():
    # a diamond with mid-edge (1, 3) and the tail 0-4-5: forcing (1, 3)
    # whitens 0, which forces (4, 5); each pair stays in the working graph
    # as a component of its own, already matched, so --xy on it needs no
    # branch
    g = build_graph(6, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4),
                        (4, 5)])
    st = preprocess(g)
    assert st.contradiction is None and st.mate_pairs() == [(1, 3), (4, 5)]
    comps = connected_components(g, st.live_mask())
    assert (1, 3) in comps and (4, 5) in comps
    out = solve(g, xy=(4, 5))
    assert out.status == "found" and out.stats.xy_tried == 0
    assert out.certificate.sorted_edges() == [(1, 3), (4, 5)]
    out = solve(g, xy=(0, 4))
    assert out.status == "none" and out.detail == \
        "preprocessing rules out (0, 4)"


def test_solve_xy_rejects_a_pair_that_is_no_edge():
    # a negative id would index the adjacency from its end: (-1, 0) must
    # be rejected, not answered for the edge (2, 0)
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    for xy in ((-1, 0), (0, 5), (0, 0)):
        with pytest.raises(ValueError, match="is not an edge"):
            solve(g, xy=xy)
    with pytest.raises(ValueError):
        solve(build_graph(4, [(0, 1)]), xy=(2, 3))


def test_subsolver_p2():
    g = build_graph(2, [(0, 1)])
    st = _cover_all(g, ColoringState(2))
    assert st is not None and st.mate_pairs() == [(0, 1)]


def test_subsolver_c4_none():
    g = make_named(cycle(4))
    assert _cover_all(g, ColoringState(4)) is None


def test_subsolver_triangle_with_white():
    g = make_named(cycle(3))
    st = ColoringState(3)
    assign(st, 0, WHITE)
    assert propagate(g, st)
    got = constrained_subsolver(g, st, range(3))
    assert got is not None and got.mate_pairs() == [(1, 2)]


def test_subsolver_isolated_vertex_goes_white():
    # white as in unmatched: no edge needs it, so it is left uncolored
    got = constrained_subsolver(build_graph(1, []), ColoringState(1),
                                range(1))
    assert got is not None and got.mate_pairs() == []
    assert got.color[0] != BLACK


@pytest.fixture
def clones(monkeypatch):
    """A one-element list counting the ColoringState clones made."""
    count = [0]
    real = ColoringState.clone

    def counted(self):
        count[0] += 1
        return real(self)
    monkeypatch.setattr(ColoringState, "clone", counted)
    return count


def test_subsolver_clones_no_child(clones):
    # the black center of a claw has three candidate mates and the first
    # completes; every child is a change on the trail of the one state
    st = ColoringState(4)
    assign(st, 0, BLACK)
    got = constrained_subsolver(make_named(CLAW), st, range(4))
    assert got is st and got.mate_pairs() == [(0, 1)]
    assert clones[0] == 0


def _random_chordal_tw2(rng, n):
    # grow a K4-free chordal graph by attaching each new vertex to a
    # vertex or an existing edge
    pairs = []
    for v in range(1, n):
        if pairs and rng.random() < 0.4:
            (a, b) = rng.choice(pairs)
            pairs += [(a, v), (b, v)]
        else:
            pairs.append((rng.randrange(v), v))
    return build_graph(n, pairs)


def test_subsolver_matches_oracle_on_random_chordal_graphs():
    # K4-free chordal graphs, the shape of the pieces the chordal site
    # completes
    rng = random.Random(7)
    exercised = 0
    for _ in range(150):
        n = rng.randint(2, 9)
        g = _random_chordal_tw2(rng, n)
        got = _cover_all(g, ColoringState(n))
        dims = {d.edges for d in enumerate_dims(g)}
        if got is None:
            assert not dims
        else:
            assert _complete(got, range(n))
            assert frozenset(got.mate_pairs()) in dims
            exercised += 1
    assert exercised > 80


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


def test_trivial_blocks_resolve_from_few_block_views(clones):
    # 300 contact-free blocks are committed on the branch's one state,
    # with no clone
    edges, us, ts, nxt = _layer_base(nblocks=300, bsize=2)
    g = build_graph(nxt, edges)
    out = solve(g)
    assert out.status == "found" and verify_dim(g, out.certificate)
    assert clones[0] == 0


@pytest.fixture
def children(monkeypatch):
    """[scope, edge, base] of every child of a covering node under
    `solve` without xy, in the order the node takes them: a hook on the
    list of covering edges records each as the node takes it, `base`
    being a clone of the state the child starts from."""
    taken = []
    covering = solver._covering_edges

    class Taken(list):
        def __iter__(self):
            for edge in list.__iter__(self):
                taken.append([self.scope, edge, self.state.clone()])
                yield edge

    def edges(g, state, scope):
        got = Taken(covering(g, state, scope))
        got.scope, got.state = tuple(scope), state
        return got
    edges.__wrapped__ = covering
    monkeypatch.setattr(solver, "_covering_edges", edges)
    return taken


@pytest.fixture
def searches(monkeypatch, children):
    """[input state, scope, nodes visited, the edge of the covering child
    that made the call] of every subsolver call under `solve` without xy;
    the input state is cloned before the call, which searches on it in
    place."""
    calls = []
    search = solver.constrained_subsolver

    def measure(g, state, within=None, stats=None, budget=None):
        call = [state.clone(), tuple(within), stats.subsolver_nodes,
                children[-1][1]]
        calls.append(call)
        try:
            return search(g, state, within, stats, budget)
        finally:
            call[2] = stats.subsolver_nodes - call[2]

    monkeypatch.setattr(solver, "constrained_subsolver", measure)
    return calls


def _unknowns(state, scope):
    return sum(state.color[v] == UNKNOWN for v in scope)


def _linear(calls):
    """Every call visits at most one node per unknown vertex of its
    scope, plus one."""
    return all(nodes <= _unknowns(st, scope) + 1
               for st, scope, nodes, _ in calls)


def test_block_paths_and_trees_complete_in_linear_nodes(searches):
    # blocks joined by a matching of cross edges along a path or tree,
    # and blocks whose planted blacks form contact cycles and cross paths
    # of three: the exact search of each part visits at most one node
    # per unknown vertex, plus one (pendant twins extended, which leaves
    # the block graphs to the search)
    calls = searches
    rng = random.Random(12)
    graphs = []
    for k in (10, 30, 100, 300, 1000, 1500):
        for parents in (list(range(k - 1)),
                        [rng.randrange(i) for i in range(1, k)]):
            free = {i for i in range(k) if rng.random() < 0.3}
            graphs.append(block_tree(parents, free))
    for k in (10, 30, 100, 300, 1000):
        graphs.append(block_graph(rng, k))
    for n, edges in graphs:
        g = build_graph(*_untwin_leaves(n, edges))
        calls.clear()
        out = solve(g)
        assert out.status == "found" and verify_dim(g, out.certificate)
        assert calls and _linear(calls)


def test_block_cycle_two_alternatives(searches):
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
    assert searches and _linear(searches)


def test_cross_block_p3_enumeration(searches):
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5),
             (3, 6), (3, 7), (4, 8), (4, 9), (5, 10), (5, 11),
             (6, 8), (8, 10)]
    g = build_graph(12, edges)
    out = _agree(g)
    assert out.status == "found"
    assert searches and _linear(searches)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _cycle_hub(cycles):
    # xy = (0, 1), vertex 2 on x, 3 * cycles second-level singletons with
    # 2-member blocks; blocks i, i + 1, i + 2 form a contact 3-cycle
    k = 3 * cycles
    edges = [(0, 1), (0, 2)] + [(2, 3 + i) for i in range(k)]
    first = [3 + k + 2 * i for i in range(k)]
    for i in range(k):
        edges += [(3 + i, first[i]), (3 + i, first[i] + 1)]
    for i in range(0, k, 3):
        edges += [(first[i + j] + 1, first[i + (j + 1) % 3])
                  for j in range(3)]
    return build_graph(3 + 3 * k, edges)


def _triangle_hub(k):
    # xy = (0, 1), vertex 2 on x, k second-level singletons with blocks
    # {t0, t1}; t0 carries the far triangle z, b, c through t0-z
    edges = [(0, 1), (0, 2)] + [(2, 3 + i) for i in range(k)]
    n = 3 + k
    for i in range(k):
        t0, t1, z, b, c = range(n, n + 5)
        edges += [(3 + i, t0), (3 + i, t1), (t0, z), (z, b), (z, c),
                  (b, c)]
        n += 5
    return build_graph(n, edges)


def _solve_near_recursion_limit(g):
    # the block and triangle sites take no recursion frame each, so 100
    # of them solve within 100 frames above the caller's depth; a frame
    # per site overflows the default limit at 600 cycles or 1,200
    # triangles
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        out = solve(g)
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "found" and verify_dim(g, out.certificate)


def test_hub_of_block_cycles_does_not_recurse():
    _solve_near_recursion_limit(_cycle_hub(100))


def test_hub_of_far_triangles_does_not_recurse():
    _solve_near_recursion_limit(_triangle_hub(100))


def test_far_triangle_hub_costs_a_constant_per_triangle(clones):
    # each block with its far triangle is an undecided part of its own,
    # and its search visits two nodes and clones no state, so the hub's
    # work grows linearly in its triangles
    for k in (300, 600, 1200):
        clones[0] = 0
        g = _triangle_hub(k)
        out = solve(g)
        assert out.status == "found" and verify_dim(g, out.certificate)
        assert out.stats.parts == k and out.stats.subsolver_nodes == 2 * k
        assert clones[0] == 0


def test_far_level_triangle_branches(searches):
    # a far triangle hung off a block member is completed by the search
    # of its part, which visits no more nodes than the triangle has
    # edges, and every part's search stays linear
    edges, us, ts, nxt = _layer_base()
    z, b, c = nxt, nxt + 1, nxt + 2
    edges += [(ts[0][0], z), (z, b), (z, c), (b, c)]
    g = build_graph(*_untwin_leaves(nxt + 3, edges))
    out = _agree(g)
    assert out.status == "found" and _linear(searches)
    tri = [nodes for _, scope, nodes, _ in searches if z in scope]
    assert tri and all(nodes <= 3 for nodes in tri)


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


def test_branch_bounds_respected_on_random_instances(searches):
    # inside the class the exact search visits at most one node per
    # vertex over a call (0.375 measured), and each part's search at
    # most one node per unknown vertex, plus one
    rng = random.Random(83)
    for seed in range(60):
        g = random_s115_free(rng.choice((10, 13, 16)),
                             rng.choice((0.1, 0.2, 0.3)), 5000 + seed)
        searches.clear()
        out = solve(g)
        assert out.stats.subsolver_nodes <= g.n and _linear(searches)


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


def test_mate_search_within_the_block_product_for_sizes_3224(searches):
    # vertex 2 on x = 0 carries four vertices whose leaf blocks have
    # sizes 3, 2, 2 and 4, and three blocks reach one triangle: one black
    # per block is one of 48 tuples, and the mate search of each part
    # visits at most one node per tuple, plus one
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6)]
    blocks = {3: [7, 8, 9], 4: [10, 11], 5: [12, 13], 6: [14, 15, 16, 17]}
    for u, ts in blocks.items():
        edges += [(u, t) for t in ts]
    edges += [(7, 18), (10, 19), (12, 20), (18, 19), (18, 20), (19, 20)]
    g = build_graph(*_untwin_leaves(21, edges))
    out = _agree(g)
    assert out.status == "found" and out.stats.parts >= 1
    assert searches
    assert all(nodes <= 48 + 1 for _, _, nodes, _ in searches)


def test_deep_case_on_spider_free_instances():
    # random wide-second-level instances with far levels that stay
    # S115-free; answers must match the oracle, and the split search,
    # which runs on most of them, visits at most one node per vertex
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
        assert out.stats.subsolver_nodes <= g.n
        deep_hits += out.stats.parts > 0
    assert deep_hits > 100


HV_EDGES = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 8),
            (3, 9), (4, 10), (4, 11), (5, 12), (5, 13), (6, 14), (6, 15),
            (7, 16), (7, 17), (8, 18), (9, 21), (10, 19), (12, 20),
            (14, 21), (18, 19), (19, 20), (20, 21)]


def _strict_witness(g):
    """The S115 witness `solve --strict --budget 1` prints for the graph,
    which must answer hypothesis-violated, or None."""
    code, out = cli.run(cli.RunConfig("solve", strict=True, budget=1),
                        text=cli.emit_graph(g))
    assert code == cli.EXIT_UNKNOWN, out
    if "witness:" not in out:
        return None
    verts = tuple(int(v) for v in out.split("witness:")[1].split())
    return patterns.PatternWitness(S115, verts)


def test_hypothesis_violation_reports_witness():
    # a wide second level with a far-level path of four: outside the
    # supported class, where the exact search of a branch decides it (3
    # nodes); with a budget of one node it answers hypothesis-violated,
    # and `solve --strict` names the class witness
    g = build_graph(22, HV_EDGES)
    out = solve(g)
    assert out.status == "none" and out.stats.parts >= 1
    assert out.stats.subsolver_nodes > 1
    assert not brute_force_dim(g).exists
    out = solve(g, budget=1)
    assert out.status == "hypothesis-violated"
    assert "over its budget of 1 nodes" in out.detail
    witness = _strict_witness(g)
    assert witness is not None and check_witness(g, witness)


def test_branch_over_budget_leaves_the_next_branch_its_state(monkeypatch):
    # under a budget of one node, a covering branch of a component runs
    # over it and a later branch of the same component, which needs no
    # search, finds a d.i.m.: that branch starts from the state the
    # first one was given, so the answer is found and verifies
    over, found = [], []
    cover, search = solver._cover, solver.constrained_subsolver

    def watched(g, state, within=None, stats=None, budget=None):
        try:
            return search(g, state, within, stats, budget)
        except solver.HypothesisViolation:
            over.append(within)
            raise

    def covered(g, state, scope, stats, budget, xy=None):
        tried, ran_over = stats.xy_tried, len(over)
        done = cover(g, state, scope, stats, budget, xy)
        # a child completed this node after an earlier one ran over
        if done and stats.xy_tried > tried and len(over) > ran_over:
            found.append(scope)
        return done

    monkeypatch.setattr(solver, "constrained_subsolver", watched)
    monkeypatch.setattr(solver, "_cover", covered)
    rng = random.Random(11)
    sites = 0
    for _ in range(1500):
        n = rng.randint(6, 14)
        p = rng.uniform(0.15, 0.5)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        found.clear()
        out = solve(g, budget=1)
        if found:
            sites += 1
            assert out.status == "found" and verify_dim(g, out.certificate)
    assert sites >= 3


def _case_pairs(g, xy):
    """Pairs of the whole graph when the xy branch runs on the component
    of xy, with the statistics of that branch."""
    from dimatch import DimCertificate
    base = preprocess(g)
    assert base.contradiction is None
    comp = next(c for c in connected_components(g, base.live_mask())
                if xy[0] in c)
    stats = solver.SolveStats()
    assert solver._cover(g, base, comp, stats, None, xy)
    cert = DimCertificate(frozenset(base.mate_pairs()))
    assert verify_dim(g, cert) and xy in cert.edges
    return cert, stats


def test_branch_on_xy_completes_verified_certificates():
    # P6 is finished by propagation and never reaches the mate search
    cert, stats = _case_pairs(make_named(path(6)), (1, 2))
    assert cert.sorted_edges() == [(1, 2), (4, 5)]
    assert stats.parts == stats.subsolver_nodes == 0

    # a hub with five blocks of two leaves, the blocks of sizes 3, 2, 2
    # and 4 reaching a triangle, and the hub with a triangle hung off a
    # block, with pendant twins extended: each branch completes a
    # verified certificate through its parts' searches, at most one node
    # per vertex of the graph before the extension
    edges, us, ts, nxt = _layer_base()
    _, stats = _case_pairs(build_graph(*_untwin_leaves(nxt, edges)), (0, 1))
    assert 1 <= stats.parts and stats.subsolver_nodes <= nxt

    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6)]
    blocks = {3: [7, 8, 9], 4: [10, 11], 5: [12, 13], 6: [14, 15, 16, 17]}
    for u, ts in blocks.items():
        edges += [(u, t) for t in ts]
    edges += [(7, 18), (10, 19), (12, 20), (18, 19), (18, 20), (19, 20)]
    _, stats = _case_pairs(build_graph(*_untwin_leaves(21, edges)), (0, 1))
    assert 1 <= stats.parts and stats.subsolver_nodes <= 21

    edges, us, ts, nxt = _layer_base()
    z, b, c = nxt, nxt + 1, nxt + 2
    edges += [(ts[0][0], z), (z, b), (z, c), (b, c)]
    _, stats = _case_pairs(build_graph(*_untwin_leaves(nxt + 3, edges)),
                           (0, 1))
    assert 1 <= stats.parts and stats.subsolver_nodes <= nxt + 3


def _union_parts(rng):
    """2-6 parts drawn from fixed shapes and small S115-free graphs."""
    fixed = [make_named(path(6)), make_named(cycle(6)), make_named(path(7)),
             make_named(DIAMOND), make_named(BUTTERFLY),
             make_named(cycle(3)), build_graph(2, [(0, 1)])]
    parts = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            parts.append(rng.choice(fixed))
        else:
            parts.append(random_s115_free(rng.randint(4, 12),
                                          rng.uniform(0.2, 0.6),
                                          rng.randrange(10**6)))
    return parts


def _shifted(cert, off):
    return {(u + off, v + off) for (u, v) in cert.edges}


def test_disjoint_unions_solve_part_by_part():
    # components are solved independently: the answer on a disjoint union
    # is the union of the answers on its parts
    rng = random.Random(2024)
    found = xy_calls = xy_found = 0
    for _ in range(300):
        parts = _union_parts(rng)
        offsets, pairs, n = [], [], 0
        for part in parts:
            offsets.append(n)
            pairs += [(u + n, v + n) for (u, v) in part.edges]
            n += part.n
        g = build_graph(n, pairs)
        outs = [solve(part) for part in parts]
        out = solve(g)
        assert (out.status == "found") == all(o.status == "found"
                                           for o in outs)
        if out.status == "found":
            found += 1
            assert set(out.certificate.edges) == set().union(
                *(_shifted(o.certificate, off)
                  for o, off in zip(outs, offsets)))
        for i in rng.sample(range(len(parts)), k=min(2, len(parts))):
            part, off = parts[i], offsets[i]
            if not part.edges:
                continue
            xy = rng.choice(part.edges)
            xy_calls += 1
            alone = _xy_cert(part, xy)
            got = _xy_cert(g, (xy[0] + off, xy[1] + off))
            others = [j for j in range(len(parts)) if j != i]
            if alone is None or not all(outs[j].status == "found" for j in others):
                assert got is None
                continue
            want = _shifted(alone, off).union(
                *(_shifted(outs[j].certificate, offsets[j]) for j in others))
            assert got is not None and set(got.edges) == want
            xy_found += 1
    assert found > 50 and xy_calls > 300 and xy_found > 50


def _far_level_variant(rng):
    """A random variant of the shapes of test_far_level_structures_agree:
    2-5 singletons with blocks of 1-2 vertices, one or two far-level
    shapes hung off random block members, relabeled at random."""
    edges, us, ts, nxt = _layer_base(rng.randint(2, 5), rng.randint(1, 2))
    members = [t for blk in ts for t in blk]
    for _ in range(rng.randint(1, 2)):
        s, t = rng.sample(members, 2)
        a, b, c = nxt, nxt + 1, nxt + 2
        shape = rng.choice((
            [(s, a), (a, b)],                           # pendant pair
            [(s, a), (t, b), (a, b)],                   # far pair
            [(s, a), (t, a)],                           # far vertex
            [(s, a), (t, b), (a, b), (a, c), (b, c)],   # far triangle
            [(s, a), (t, b), (a, c), (b, c)]))          # far path of three
        edges += shape
        nxt = 1 + max(max(e) for e in shape)
    label = rng.sample(range(nxt), nxt)
    return build_graph(nxt, [(label[u], label[v]) for u, v in edges])


def _hv_variant(rng):
    """The graph of test_hypothesis_violation_reports_witness beside 0-3
    disjoint edges or copies of P6, relabeled at random."""
    edges, n = list(HV_EDGES), 22
    size = rng.choice((2, 6))
    for _ in range(rng.randint(0, 3)):
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        n += size
    label = rng.sample(range(n), n)
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


def _fuzz_graphs(rng):
    """Planted graphs with 0-3 noise edges, G(n,p) graphs,
    random_s115_free graphs and far-level variants, all small enough for
    the oracle, then variants of a graph outside the class with no
    d.i.m. (the oracle runs only on a `none`)."""
    for _ in range(1500):
        n, edges = planted(rng, rng.randint(4, 14))
        edges = {(min(e), max(e)) for e in edges}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        yield build_graph(n, sorted(edges))
    for _ in range(1500):
        n, p = rng.randint(2, 12), rng.uniform(0.15, 0.6)
        yield build_graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n) if rng.random() < p])
    for _ in range(300):
        yield random_s115_free(rng.randint(8, 16), rng.uniform(0.15, 0.4),
                               rng.randrange(10**6))
    for _ in range(300):
        yield _far_level_variant(rng)
    for _ in range(100):
        yield _hv_variant(rng)


def test_fuzz_against_oracle_inside_and_outside_the_class():
    # a `none` must be right on every graph and a `found` must verify;
    # the default budget decides every graph; inside the class the
    # search visits at most one node per vertex (0.50 measured)
    seen, searched = {}, {True: 0, False: 0}
    for g in _fuzz_graphs(random.Random(5)):
        out = solve(g)
        free = find_induced(g, S115) is None
        assert out.status != "hypothesis-violated", out.detail
        if out.status == "none":
            assert not brute_force_dim(g).exists
        else:
            assert verify_dim(g, out.certificate)
        if free:
            assert out.stats.subsolver_nodes <= g.n
        seen[out.status, free] = seen.get((out.status, free), 0) + 1
        searched[free] += out.stats.parts > 0
    # both answers occur inside and outside the class, and the split
    # search runs on both sides
    assert min(seen.get((status, free), 0) for status in ("found", "none")
               for free in (True, False)) > 20
    assert min(searched.values()) > 20


def _planted_matching(rng, n):
    """(graph, planted matching) in the shape of diffcheck.planted: k
    matched pairs, independent whites and random white-black edges."""
    vs = rng.sample(range(n), n)
    k = rng.randint(1, n // 2)
    matching = [(min(a, b), max(a, b)) for a, b in zip(vs[0:2 * k:2],
                                                      vs[1:2 * k:2])]
    p = rng.uniform(0.02, 0.3)
    edges = matching + [(min(b, w), max(b, w)) for b in vs[:2 * k]
                        for w in vs[2 * k:] if rng.random() < p]
    return build_graph(n, sorted(edges)), matching


def test_planted_graphs_never_answer_none():
    # n = 20-60 reaches the fifth distance level, where class-only
    # deductions prune branches outside the class: the planted d.i.m.
    # must still be found by `solve` and through each of its edges
    rng = random.Random(11)
    free = xy_calls = 0
    for _ in range(120):
        g, matching = _planted_matching(rng, rng.randint(20, 60))
        free += find_induced(g, S115) is None
        out = solve(g)
        assert out.status == "found" and verify_dim(g, out.certificate)
        for e in matching:
            cert = _xy_cert(g, e)
            assert cert is not None, (g.edges, e)
            xy_calls += 1
    assert 10 <= free <= 110 and xy_calls > 1000


def _pick(g, state, u, t):
    """A clone of the state with the owner u matched to the black t and
    propagated, or None on a contradiction; a choice already realized by
    an earlier cascade is accepted as is."""
    if state.mate[t] != u and state.color[t] != UNKNOWN:
        return None
    child = state.clone()
    assign(child, u, BLACK)
    assign(child, t, BLACK)
    if not propagate(g, child):
        return None
    return child


def _levels(g, xy):
    """The BFS distance of every vertex up to 3 from the edge xy, over
    the vertices that preprocessing leaves live (not white)."""
    color = preprocess(g).color
    level = dict.fromkeys(xy, 0)
    frontier = list(xy)
    for d in (1, 2, 3):
        frontier = [w for v in frontier for w in g.adj[v]
                    if color[w] != WHITE and level.setdefault(w, d) == d]
        frontier = list(dict.fromkeys(frontier))
    return level


def _blocks(g, level, state):
    """The blocks of the third level: every live second-level vertex
    with no live second-level neighbor (a black, since the first level
    is white) maps to the live third-level vertices whose one live
    second-level neighbor it is.  Any other third-level neighbor would
    be black next to two blacks, so its mate lies in its block."""
    def live_at(v, d):
        return level.get(v) == d and state.color[v] != WHITE

    blocks = {u: [] for u in level if live_at(u, 2)
              and not any(live_at(w, 2) for w in g.adj[u])}
    for t in level:
        if live_at(t, 3):
            owners = [w for w in g.adj[t] if live_at(w, 2)]
            if len(owners) == 1 and owners[0] in blocks:
                blocks[owners[0]].append(t)
    return blocks


def _n2_small_by_product(g, blocks, state, scope):
    """The choice of one black per block of a part as a plain tuple
    product: the picks of every tuple applied and propagated one at a time
    from scratch, then finished by the subsolver.  Returns the completion
    (or None), the tuples tried and the subsolver nodes visited."""
    names = sorted(u for u in blocks if u in scope and state.mate[u] < 0)
    cand_lists = []
    for u in names:
        cands = sorted(t for t in blocks[u] if state.color[t] == UNKNOWN)
        if not cands:
            return None, 0, 0
        cand_lists.append(cands)
    tried, stats = 0, solver.SolveStats()
    for tup in itertools.product(*cand_lists):
        tried += 1
        child = state
        for u, t in zip(names, tup):
            child = _pick(g, child, u, t)
            if child is None:
                break
        if child is None:
            continue
        got = constrained_subsolver(g, child, within=scope, stats=stats)
        if got is not None:
            return got, tried, stats.subsolver_nodes
    return None, tried, stats.subsolver_nodes


def test_mate_search_matches_the_tuple_product(searches):
    # where at most four vertices lie at distance 2 from xy, one subsolver
    # call on a part finds a completion exactly when some tuple of block
    # picks completes, and visits no more nodes than the tuple product
    # tries tuples and visits nodes
    graphs = list(_fuzz_graphs(random.Random(5)))
    rng = random.Random(3)
    graphs += [build_graph(*_sparse_planted(rng)) for _ in range(40)]
    sites = []
    for g in graphs:
        searches.clear()
        solve(g)
        for state, scope, _, xy in searches:
            level = _levels(g, xy)
            if sum(d == 2 for d in level.values()) <= 4:
                sites.append((g, _blocks(g, level, state), state, scope))
    outcomes, ref_work, nodes = set(), 0, 0
    for g, blocks, state, scope in sites:
        ref, tried, ref_nodes = _n2_small_by_product(g, blocks, state.clone(),
                                                     scope)
        stats = solver.SolveStats()
        got = constrained_subsolver(g, state.clone(), within=scope,
                                    stats=stats)
        assert (got is None) == (ref is None)
        if got is not None:
            assert _complete(got, scope)
        ref_work += tried + ref_nodes
        nodes += stats.subsolver_nodes
        outcomes.add(got is None)
    assert len(sites) > 100 and outcomes == {True, False}
    assert nodes <= ref_work


def _first_unknown_search(g, state, within):
    """The subsolver as a blind search: propagate, stop when complete, else
    branch the first unknown vertex by id, white first.  Returns the
    completion (or None) and the number of nodes popped."""
    stack, nodes = [state], 0
    while stack:
        st = stack.pop()
        nodes += 1
        if not propagate(g, st):
            continue
        if _complete(st, within):
            return st, nodes
        v = next((u for u in within if st.color[u] == UNKNOWN), -1)
        if v < 0:
            continue
        for c in (BLACK, WHITE):
            child = st.clone()
            assign(child, v, c)
            stack.append(child)
    return None, nodes


def test_subsolver_matches_the_first_unknown_search(monkeypatch):
    # branching on the mates of the most constrained black finds a
    # completion exactly when the blind search does, and pops fewer nodes
    # doing so: at most three quarters in all (both propagate with rule (d),
    # which spares the blind search most of its dead ends), and a tenth
    # at the blind search's worst site, over the calls of `solve`
    sites = []
    search = solver.constrained_subsolver

    def capture(g, state, within=None, **kw):
        sites.append((g, state.clone(), tuple(within)))
        return search(g, state, within, **kw)

    monkeypatch.setattr(solver, "constrained_subsolver", capture)
    for g in _fuzz_graphs(random.Random(5)):
        solve(g)
    # the first 200 graphs of diffcheck's sparse-planted pool, which hold
    # calls where the blind search pops hundreds of nodes once their
    # pendant twins no longer end the search in preprocessing
    rng = random.Random(f"{SEED}:sparse-planted")
    for _ in range(200):
        solve(build_graph(*_untwin_leaves(*_sparse_planted(rng))))
    outcomes, old_nodes, new_nodes = set(), [], []
    for g, state, within in sites:
        old, nodes = _first_unknown_search(g, state.clone(), within)
        stats = solver.SolveStats()
        new = search(g, state.clone(), within, stats=stats)
        assert (old is None) == (new is None)
        old_nodes.append(nodes)
        new_nodes.append(stats.subsolver_nodes)
        outcomes.add(new is None)
        if new is None:
            continue
        assert _complete(new, within)
        for v in range(g.n):
            assert state.color[v] in (UNKNOWN, new.color[v])
            assert state.mate[v] in (-1, new.mate[v])
    assert len(sites) > 100 and outcomes == {True, False}
    assert 4 * sum(new_nodes) <= 3 * sum(old_nodes)
    worst = old_nodes.index(max(old_nodes))
    assert 10 * new_nodes[worst] <= old_nodes[worst]


def test_subsolver_nodes_counts_the_settled_nodes(monkeypatch):
    for g in (build_graph(100, [(i, (i + 1) % 100) for i in range(100)]),
              build_graph(100, [(i, i + 1) for i in range(99)])):
        assert solve(g).stats.subsolver_nodes == 0
    # each subsolver call visits at least its input state
    calls = []
    search = solver.constrained_subsolver

    def capture(g, state, within=None, **kw):
        calls.append(within)
        return search(g, state, within, **kw)

    monkeypatch.setattr(solver, "constrained_subsolver", capture)
    for g in _fuzz_graphs(random.Random(5)):
        out = solve(g)
        if calls:
            break
    assert out.stats.subsolver_nodes >= len(calls) > 0


def test_fan_chain_is_refuted_in_constant_nodes():
    # the chain is twin-free, so it reaches the search: in the branch
    # xy = (0, 1) every fan's z has two black neighbors, c and G, and
    # propagation whitens z (rule (d)), which leaves one part of 4 nodes.
    # Without the rule the fans stay in that part and the exact search
    # tries their choices: 10 / 46 / 382 nodes at d = 1 / 3 / 6, over the
    # budget from d = 9 (n = 45)
    for d in (*range(1, 21), 100):
        g = build_graph(*fan_chain(d))
        out = _agree(g) if d <= 3 else solve(g)
        assert out.status == "none", (d, out.detail)
        assert out.stats.xy_tried >= 1 and out.stats.parts >= 1, d
        assert out.stats.subsolver_nodes <= g.n // 2
        if d in (1, 9):
            assert find_induced(g, S115) is None
            st = ColoringState(g.n)
            assign(st, 0, BLACK)
            assign(st, 1, BLACK)
            propagate(g, st)
            zs = range(12, g.n, 4)
            assert all(st.color[z] == WHITE for z in zs)
    # an S115-free graph whose four pendant twins on one vertex each
    # branched; it took 88 nodes without rule (d), and none once
    # preprocessing settled the twins
    g = build_graph(24, G24)
    out = _agree(g)
    assert find_induced(g, S115) is None
    assert out.status == "none" and out.stats.subsolver_nodes <= 2 * g.n


def test_adversarial_pool_takes_at_most_one_node_per_vertex():
    # diffcheck's adversarial pool (relabeled fan chains, G24, G24B) is
    # S115-free, and the search visits at most one subsolver node per
    # vertex under `solve` and under `--xy` on every edge of its prefix
    # (at most 16 and 10 nodes today).  The one exception is G24B as
    # given (index 20): 26 nodes on 24 vertices, 1.08 per vertex, the
    # open case of ROADMAP item 2 and the adversarial row of the table
    # in README "How it works", step 4
    count, prefix = POOLS["adversarial"]
    rng = random.Random(f"{SEED}:adversarial")
    for i in range(count):
        g = build_graph(*_graph(rng, "adversarial", i))
        assert find_induced(g, S115) is None, i
        cap = 26 if i == 20 else g.n
        assert solve(g).stats.subsolver_nodes <= cap, i
        for e in g.edges if i < prefix else ():
            assert solve(g, xy=e).stats.subsolver_nodes <= g.n, (i, e)


def test_only_covering_edges_branch_then_one_exact_search(searches,
                                                         children):
    # each component branches on its covering edges only, each at most
    # once, xy_tried counts those branches, and each branch gives every
    # undecided part of its component one exact search: disjoint scopes
    # inside the component whose vertices are live and unknown or unmated
    # blacks, counted in `parts`
    covering = solver._covering_edges.__wrapped__
    searched = 0
    for g in _fuzz_graphs(random.Random(5)):
        children.clear()
        searches.clear()
        out = solve(g)
        runs = [(comp, xy, base, [c for c in searches if c[3] == xy])
                for comp, xy, base in children]
        keys = [(comp, xy) for comp, xy, _, _ in runs]
        assert len(set(keys)) == len(keys) == out.stats.xy_tried
        assert len(searches) == out.stats.parts
        assert {c[3] for c in searches} <= {xy for _, xy, _, _ in runs}
        for comp, xy, base, calls in runs:
            assert xy in covering(g, base, comp)
            scopes = [v for _, scope, _, _ in calls for v in scope]
            assert len(set(scopes)) == len(scopes) and set(scopes) <= set(comp)
            for st, scope, _, _ in calls:
                assert not any(st.color[v] == WHITE or st.mate[v] >= 0
                               for v in scope)
        searched += out.stats.parts > 0
    assert searched > 20


def _covering_edges_by_min(g, state, comp):
    """The definition `_covering_edges` had before its scan stopped early:
    v least over the whole component by (live degree, id)."""
    color = state.color
    live = {u: [t for t in g.adj[u] if color[t] != WHITE] for u in comp}
    v = min(comp, key=lambda u: (len(live[u]), u))
    w = min(live[v], key=lambda t: (len(live[t]), t))
    return sorted({(min(a, t), max(a, t)) for a in (v, w) for t in live[a]})


def _needs_nothing(g, state, comp):
    """The check the covering node's empty edge list replaced: True when
    whitening the remaining unknowns completes the component, that is,
    no unknown-unknown edge and no unmated black."""
    color, mate = state.color, state.mate
    for v in comp:
        if color[v] == BLACK and mate[v] < 0:
            return False
        if color[v] == UNKNOWN:
            for w in g.adj[v]:
                if w > v and color[w] == UNKNOWN:
                    return False
    return True


def _whiten_some(g, state, rng, k):
    """Whiten up to k random unknown vertices through `assign`, each
    propagated, undoing one that leads to a contradiction."""
    for v in rng.sample(range(g.n), k):
        if state.color[v] == UNKNOWN:
            mark = state.mark()
            assign(state, v, WHITE)
            if not propagate(g, state):
                state.undo(mark)


def test_covering_edges_match_the_minimum_over_the_component():
    # on preprocessed G(n,p) graphs and cycles with chords, some vertices
    # whitened, components of least live degree 1 and of least degree 2+;
    # a component that needs nothing has no covering edge
    rng = random.Random(624)
    least = {1: 0, 2: 0}
    for i in range(600):
        n, p = rng.randint(4, 40), rng.uniform(0.05, 0.4)
        if i % 2:
            edges = {(u, (u + 1) % n) for u in range(n)}
            edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 8)}
            edges = {(min(e), max(e)) for e in edges}
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
        g = build_graph(n, edges)
        state = preprocess(g)
        if state.contradiction is not None:
            continue
        _whiten_some(g, state, rng, rng.choice((0, n // 8, n // 4)))
        for comp in connected_components(g, state.live_mask()):
            if len(comp) < 2:
                continue
            degs = [sum(state.color[t] != WHITE for t in g.adj[u])
                    for u in comp]
            least[min(min(degs), 2)] += 1
            if _needs_nothing(g, state, comp):
                assert solver._covering_edges(g, state, comp) == []
                continue
            assert solver._covering_edges(g, state, comp) == \
                _covering_edges_by_min(g, state, comp)
    assert least[1] > 300 and least[2] > 50


def test_covering_edges_are_empty_exactly_when_nothing_is_needed():
    # on preprocessed states, and on the states a covering child leaves,
    # the covering node finds no edge to branch on exactly when the
    # component needs nothing: no unmated black and no edge between two
    # unknowns (pendant twins extended, so that more components need some)
    rng = random.Random(628)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n, p = rng.randint(2, 30), rng.uniform(0.05, 0.5)
        g = build_graph(*_untwin_leaves(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]))
        state = preprocess(g)
        if state.contradiction is not None:
            continue
        if g.m and rng.random() < 0.5:
            x, y = rng.choice(g.edges)
            if WHITE in (state.color[x], state.color[y]):
                continue
            assign(state, x, BLACK)
            assign(state, y, BLACK)
            if not propagate(g, state):
                continue
        for comp in connected_components(g, state.live_mask()):
            nothing = _needs_nothing(g, state, comp)
            assert (solver._covering_edges(g, state, comp) == []) == nothing
            seen[nothing] += 1
    assert seen[True] > 400 and seen[False] > 150


def test_subsolver_on_uncolored_unions_matches_the_oracle():
    # an uncolored state, where no black is unmated, completed from a
    # covering node per component: on graphs of several components and
    # isolated vertices it completes exactly when a d.i.m. exists, and
    # it branches on a covering edge whenever there is an edge
    rng = random.Random(629)
    found = none = unions = isolated = 0
    for _ in range(1000):
        pairs, n = [], 0
        for k in (rng.randint(1, 5) for _ in range(rng.randint(2, 4))):
            p = rng.uniform(0.3, 0.9)
            pairs += [(n + u, n + v) for u in range(k)
                      for v in range(u + 1, k) if rng.random() < p]
            n += k
        label = rng.sample(range(n), n)
        g = build_graph(n, [(label[u], label[v]) for u, v in pairs])
        assert g.n <= 20
        if g.n > 10:
            continue
        stats = solver.SolveStats()
        got = _cover_all(g, ColoringState(n), stats)
        assert (got is not None) == brute_force_dim(g).exists
        if got is None:
            none += 1
        else:
            assert verify_dim(g, got.mate_pairs())
            found += 1
        assert stats.xy_tried >= 1 or g.m == 0
        unions += len(connected_components(g)) > 1 and g.m > 0
        isolated += any(not g.adj[v] for v in range(n)) and g.m > 0
    assert found > 300 and none > 100 and unions > 400 and isolated > 300


def test_every_part_holds_an_unmated_black(monkeypatch):
    # under `solve`, with and without xy, each part a covering child hands
    # the subsolver holds an unmated black, and each completion leaves no
    # unknown vertex with a neighbor in the part, so the mate search needs
    # no covering node of its own.  diffcheck's pools, at its own sizes
    outcomes = []
    search = solver.constrained_subsolver

    def checked(g, state, within, stats=None, budget=None):
        color, mate = state.color, state.mate
        assert any(color[v] == BLACK and mate[v] < 0 for v in within)
        got = search(g, state, within, stats, budget)
        if got is not None:
            assert not any(color[v] == UNKNOWN and g.adj[v] for v in within)
        outcomes.append(got is not None)
        return got

    monkeypatch.setattr(solver, "constrained_subsolver", checked)
    for pool in ("layered", "dense", "planted", "sparse-planted",
                 "adversarial"):
        count, prefix = POOLS[pool]
        rng = random.Random(f"{SEED}:{pool}")
        for i in range(count):
            # pendant twins extended, which leaves more parts to search
            g = build_graph(*_untwin_leaves(*_graph(rng, pool, i)))
            solve(g)
            for e in g.edges if i < prefix else ():
                solve(g, xy=e)
    assert len(outcomes) > 8000 and outcomes.count(False) > 300


def test_hypothesis_violated_witness_past_200_vertices():
    # the graph of test_hypothesis_violation_reports_witness padded with
    # disjoint edges keeps its answers: none, and over a budget of one
    # node, hypothesis-violated with its witness under `solve --strict`
    padded = build_graph(202, HV_EDGES + [(v, v + 1)
                                          for v in range(22, 202, 2)])
    assert solve(padded).status == "none"
    out = solve(padded, budget=1)
    assert padded.n > 200 and out.status == "hypothesis-violated"
    witness = _strict_witness(padded)
    assert witness is not None and check_witness(padded, witness)


def test_s115_search_runs_only_over_budget(monkeypatch):
    # a `none` is exact without a class check, and `solve` never searches
    # for an induced S115, not even over its budget; the CLI searches
    # once, only to print the witness of a hypothesis-violated answer
    # under --strict in text
    graphs = list(_fuzz_graphs(random.Random(5)))
    graphs += [build_graph(100, [(i, (i + 1) % 100) for i in range(100)]),
               build_graph(100, [(i, i + 1) for i in range(99)])]
    graphs += [build_graph(2 * k, [(i, k + j) for i in range(k)
                                   for j in range(k)]) for k in (20, 40)]
    searched = []
    real = patterns.find_induced

    def counted(g, kind):
        searched.extend([g] if kind == S115 else [])
        return real(g, kind)

    monkeypatch.setattr(patterns, "find_induced", counted)
    monkeypatch.setattr(cli, "find_induced", counted)
    for g in graphs:
        assert solve(g).status != "hypothesis-violated"
    g = build_graph(22, HV_EDGES)
    assert solve(g, budget=1).status == "hypothesis-violated"
    assert solve(g, budget=1, xy=(0, 1)).status == "hypothesis-violated"
    assert not searched
    text = cli.emit_graph(g)
    for fields in ({}, {"strict": True, "fmt": "json"},
                   {"strict": True, "xy": (0, 1), "fmt": "json"},
                   {"xy": (0, 1)}):
        code, _ = cli.run(cli.RunConfig("solve", budget=1, **fields), text)
        assert code == cli.EXIT_UNKNOWN
    code, _ = cli.run(cli.RunConfig("solve", strict=True), text)
    assert code == cli.EXIT_NONE
    assert not searched
    code, out = cli.run(cli.RunConfig("solve", strict=True, budget=1), text)
    assert code == cli.EXIT_UNKNOWN and "witness:" in out
    assert [h.edges for h in searched] == [g.edges]


def test_branch_count_is_bounded_by_degree():
    # covering edges: at most deg(v) + deg(w) - 1 branches per component
    for n in (100, 1000):
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        out = solve(g)
        assert out.status == "none" and out.stats.xy_tried <= 3
    for k in (5, 20):
        g = build_graph(2 * k, [(i, k + j) for i in range(k)
                                for j in range(k)])
        out = solve(g)
        assert out.status == "none" and out.stats.xy_tried <= 2 * k - 1


def test_kkk_and_g24_end_in_preprocessing():
    # every vertex of K_{k,k} is a false twin of degree k, so
    # preprocessing whitens all of them and meets adjacent whites before
    # any covering branch; in g24 the four pendant twins on vertex 19,
    # whose covering branches each refuted the rest anew (5 branches and
    # 28 nodes before a twin skip, 2 and 6 with one), leave one leaf
    for k in (2, 20, 40, 160):
        g = build_graph(2 * k, [(i, k + j) for i in range(k)
                                for j in range(k)])
        out = solve(g)
        assert out.status == "none" and out.stats.xy_tried == 0
        assert out.detail.startswith("adjacent white vertices")
    g = build_graph(24, G24)
    assert [t for t in g.adj[19] if preprocess(g).color[t] != WHITE
            and g.adj[t] == (19,)] == [0]
    out = _agree(g)
    assert out.status == "none" and out.stats.xy_tried == 0
    assert out.stats.subsolver_nodes == 0


def test_pendant_twins_keep_one_leaf():
    # of k pendant leaves on vertex 0 exactly one stays non-white, the
    # first or the end of xy, and 0 turns black; the tail 0, k + 1,
    # k + 2, k + 3 matches its last edge, so every d.i.m. matches 0 to a
    # leaf, and `solve` finds one through each of them
    for k in (2, 3, 10, 100):
        tail = [(0, k + 1), (k + 1, k + 2), (k + 2, k + 3)]
        g = build_graph(k + 4, [(0, t) for t in range(1, k + 1)] + tail)
        for xy in [None] + [(0, t) for t in range(1, k + 2)]:
            state = preprocess(g, xy)
            kept = xy[1] if xy and xy[1] <= k else 1
            assert [t for t in range(1, k + 1)
                    if state.color[t] != WHITE] == [kept]
            assert state.contradiction is None and state.color[0] == BLACK
            out = solve(g, xy=xy)
            assert (out.status == "found") == (xy is None or xy[1] <= k)
            if xy is not None and out.status == "found":
                assert xy in out.certificate.edges
        if k <= 10:
            _agree(g)


def _blow_up(rng):
    """A random graph on 3-5 vertices with each vertex copied 1-3 times
    (copies of adjacent vertices joined, so copies are false twins), at
    most 10 vertices, relabeled at random."""
    b, p = rng.randint(3, 5), rng.uniform(0.3, 0.8)
    base = [(u, v) for u in range(b) for v in range(u + 1, b)
            if rng.random() < p]
    copies, n = [], 0
    for i in range(b):
        # leave one vertex for each base vertex after this one
        size = min(rng.randint(1, 3), 10 - n - (b - 1 - i))
        copies.append(range(n, n + size))
        n += size
    label = rng.sample(range(n), n)
    return build_graph(n, [(min(label[x], label[y]), max(label[x], label[y]))
                           for u, v in base for x in copies[u]
                           for y in copies[v]])


def test_twin_step_keeps_answers_on_twin_rich_graphs():
    # plain and with xy on every edge, the answers agree with the oracle
    # and every certificate verifies (and matches xy)
    rng = random.Random(26)
    twinned = xy_runs = 0
    for _ in range(600):
        g = _blow_up(rng)
        assert g.n <= 10
        out = _agree(g)
        has_twins = len(set(g.adj)) + max(g.adj.count(()) - 1, 0) < g.n
        twinned += has_twins
        on_some_dim = {e for d in enumerate_dims(g) for e in d.edges}
        for e in g.edges:
            out = solve(g, xy=e)
            assert (out.status == "found") == (e in on_some_dim), (g.edges, e)
            if out.status == "found":
                assert verify_dim(g, out.certificate)
                assert e in out.certificate.edges
            twinned += has_twins
            xy_runs += 1
    assert twinned > 100 and xy_runs > 2000


# -- the xy branch on the distance-level shapes of the paper --------------
# A covering child assigns x and y black, propagates, and completes each
# undecided part with the exact subsolver.  Each test checks that the
# child forces, or rules out, what the paper's level rules do on its
# shape.

def _propagated(g, xy):
    """The preprocessed state with x and y black, propagated, or None on
    a contradiction."""
    st = preprocess(g)
    assert st.contradiction is None
    assign(st, xy[0], BLACK)
    assign(st, xy[1], BLACK)
    return st if propagate(g, st) else None


def _branch(g, xy):
    """The pairs of a d.i.m. through xy found by the covering node's one
    child on xy, or None when it finds that no d.i.m. matches xy."""
    st = preprocess(g)
    if solver._cover(g, st, range(g.n), solver.SolveStats(), None, xy):
        return set(st.mate_pairs())
    return None


def test_propagate_decides_all_of_p6():
    g = make_named(path(6))
    st = _propagated(g, (1, 2))
    assert st is not None
    assert not solver._undecided_parts(g, st, range(g.n))
    assert st.mate_pairs() == [(1, 2), (4, 5)]


def test_propagate_decides_all_of_p5():
    g = make_named(path(5))
    st = _propagated(g, (0, 1))
    assert st is not None
    assert not solver._undecided_parts(g, st, range(g.n))
    assert st.mate_pairs() == [(0, 1), (3, 4)]


def test_propagate_refutes_the_middle_edge_of_p6():
    # P6 with xy the middle edge (2, 3): 1 and 4 turn white, which leaves
    # the end vertices 0 and 5 without a mate
    assert _propagated(make_named(path(6)), (2, 3)) is None


def _two_blocks(cross):
    # xy = (0, 1), 2 on x, owners 3 and 4 with blocks {5, 6, 7} and
    # {8, 9, 10}, joined by the given cross edges
    edges = [(0, 1), (0, 2), (2, 3), (2, 4)]
    edges += [(3, 5), (3, 6), (3, 7), (4, 8), (4, 9), (4, 10)]
    return build_graph(11, edges + cross)


def test_branch_refutes_blocks_joined_by_three_cross_edges():
    # two blocks of three joined by a perfect matching of three edges:
    # the two mates cover at most two of them
    g = _two_blocks([(5, 8), (6, 9), (7, 10)])
    assert _propagated(g, (0, 1)) is not None
    assert _branch(g, (0, 1)) is None


def test_branch_whitens_block_vertices_off_two_cross_edges():
    # 7 and 10 sit off the two cross edges, so they are white in every
    # d.i.m. through xy, and in the one the branch finds
    g = _two_blocks([(5, 8), (6, 9)])
    dims = [d.edges for d in enumerate_dims(g) if (0, 1) in d.edges]
    pairs = _branch(g, (0, 1))
    assert dims and pairs is not None and frozenset(pairs) in dims
    for d in dims:
        matched = {v for e in d for v in e}
        assert 7 not in matched and 10 not in matched


def test_branch_refutes_an_odd_cycle_across_three_blocks():
    # an odd cycle across three blocks of leaves at distance 3 from xy
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
            # with its pendant leaves those preprocessing keeps, which
            # leaves xy matched
            for dim in (kept_leaf_dim(g, d) for d in holding):
                matched = {v for e in dim.edges for v in e}
                for v in range(n):
                    if st.color[v] == BLACK:
                        assert v in matched
                    elif st.color[v] == WHITE:
                        assert v not in matched
    assert graphs > 100 and branches > 100


# -- small chordal pieces completed by the subsolver ----------------------
# The clique-tree dynamic program these cases were written for is gone;
# they run on the exact subsolver that replaced it.  A precolored input
# is colored through `assign`, as the subsolver requires.

def _complete_all(g, st=None):
    """Complete a d.i.m. coloring of the whole graph, honoring `st`;
    the matched edges, or None if no completion exists."""
    got = _cover_all(g, st or ColoringState(g.n))
    return None if got is None else got.mate_pairs()


def test_single_edge():
    g = build_graph(2, [(0, 1)])
    got = _cover_all(g, ColoringState(2))
    assert got is not None and list(got.color) == [BLACK, BLACK]
    assert got.mate_pairs() == [(0, 1)]


def test_p3_returns_one_of_two():
    assert _complete_all(make_named(path(3))) in ([(0, 1)], [(1, 2)])


def test_triangle_one_matched_edge():
    got = _complete_all(make_named(cycle(3)))
    assert got is not None and len(got) == 1


def test_honors_precolors():
    g = make_named(cycle(3))
    st = ColoringState(3)
    assign(st, 0, WHITE)
    assert propagate(g, st)
    assert _complete_all(g, st) == [(1, 2)]


def test_infeasible_returns_none():
    g = make_named(cycle(3))
    st = ColoringState(3)
    assign(st, 0, WHITE)
    assign(st, 1, WHITE)
    assert not propagate(g, st)
    assert _complete_all(g, st) is None


def test_colors_outside_assign_are_named():
    # colors written into `state.color` are never propagated, so vertex 2
    # stays undecided with only white neighbors; an uncolored P_2 is no
    # undecided part either, as it holds no unmated black
    contract = (r"vertex {} is unknown with no unmated black in its part: "
                r"the subsolver completes an undecided part of a propagated "
                r"state, colored through `assign`")
    g = make_named(cycle(3))
    st = ColoringState(3)
    st.color[0] = st.color[1] = WHITE
    with pytest.raises(ValueError, match=contract.format(2)):
        constrained_subsolver(g, st, range(3))
    with pytest.raises(ValueError, match=contract.format(0)):
        constrained_subsolver(build_graph(2, [(0, 1)]), ColoringState(2),
                              range(2))
