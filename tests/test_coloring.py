import itertools
import random

from dimatch import (DimCertificate, build_graph, connected_components,
                     enumerate_dims, solve, verify_dim)
from dimatch.coloring import (BLACK, UNKNOWN, WHITE, ColoringState, assign,
                              preprocess, propagate)
from dimatch import coloring, patterns
from dimatch.solver import _undecided_parts, constrained_subsolver
from dimatch.patterns import BUTTERFLY, DIAMOND, K4, find_induced
from shapes import CLAW, cycle, make_named, path


def vertex_reduction(g, state, v):
    """Whiten a white-forced vertex after blackening its live neighbors,
    then propagate: the paper's vertex reduction, which rule (a) of
    `propagate` does on its own."""
    if state.contradiction is not None:
        return
    assign(state, v, WHITE)
    if state.contradiction is not None:
        return
    for w in g.adj[v]:
        if state.color[w] != WHITE:
            assign(state, w, BLACK)
            if state.contradiction is not None:
                return
    propagate(g, state)


def force_edge(g, state, u, v):
    """Force the edge uv into the matching as `preprocess` does: color
    both ends black and propagate (through the module, so that a test
    may patch it); False on a contradiction."""
    assign(state, u, BLACK)
    assign(state, v, BLACK)
    return coloring.propagate(g, state)


def kept_leaf_dim(g, dim, xy=None):
    """The d.i.m. `dim` with its matched pendant leaves swapped for the
    ones `preprocess(g, xy)` keeps: of the pendant leaves of one vertex,
    an end of xy, else the first in id order.  An automorphism swaps the
    pendant leaves of one vertex, so the result is a d.i.m. too."""
    adj, edges = g.adj, set()
    for e in dim.edges:
        for a, w in (e, e[::-1]):
            if adj[a] == (w,):
                leaves = [t for t in adj[w] if adj[t] == (w,)]
                kept = next((t for t in leaves if xy and t in xy), leaves[0])
                e = tuple(sorted((kept, w)))
                break
        edges.add(e)
    return DimCertificate(frozenset(edges))


def _live_unknowns(st):
    return [v for v in range(st.n) if st.color[v] == UNKNOWN]


def _all_white(st):
    return st.color.count(WHITE) == st.n


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
    # forcing the mid-edge mates its ends and whitens the rest; the pair
    # stays in the working graph as a component of its own
    g = make_named(DIAMOND)
    st = ColoringState(4)
    assert force_edge(g, st, 1, 3)
    assert [v for v in range(4) if st.color[v] == WHITE] == [0, 2]
    assert connected_components(g, st.live_mask()) == [(1, 3)]
    assert st.mate_pairs() == [(1, 3)]


def test_edge_reduction_butterfly_both_peripherals():
    g = make_named(BUTTERFLY)
    st = ColoringState(5)
    force_edge(g, st, 0, 1)
    force_edge(g, st, 2, 3)
    assert propagate(g, st)
    assert not _live_unknowns(st) and st.color[4] == WHITE
    assert set(st.mate_pairs()) == {(0, 1), (2, 3)}


def test_edge_reduction_p2():
    g = build_graph(2, [(0, 1)])
    st = ColoringState(2)
    assert force_edge(g, st, 0, 1)
    assert not _live_unknowns(st) and st.mate_pairs() == [(0, 1)]


def test_vertex_reduction_p3_center():
    g = make_named(path(3))
    st = ColoringState(3)
    vertex_reduction(g, st, 1)
    assert st.contradiction is not None  # both leaves black, no mates


def test_vertex_reduction_isolated():
    g = build_graph(1, [])
    st = ColoringState(1)
    vertex_reduction(g, st, 0)
    assert st.contradiction is None and st.color[0] == WHITE


def test_vertex_reduction_claw_center():
    g = make_named(CLAW)
    st = ColoringState(4)
    vertex_reduction(g, st, 0)
    assert st.contradiction is not None


def test_preprocess_k4_rejected():
    st = preprocess(make_named(K4))
    assert st.contradiction is not None and "K4" in st.contradiction


def test_preprocess_diamond_reduces_to_empty():
    g = make_named(DIAMOND)
    st = preprocess(g)
    # nothing is left undecided: the whites leave the working graph, and
    # the forced pair stays as a component of its own
    assert st.contradiction is None and not _live_unknowns(st)
    assert connected_components(g, st.live_mask()) == [(1, 3)]
    assert st.mate_pairs() == [(1, 3)]


def test_preprocess_c6_untouched():
    g = make_named(cycle(6))
    st = preprocess(g)
    assert _live_unknowns(st) == list(range(6)) and all(st.live_mask())


def _restart_preprocess(g, xy=None):
    """Reference: whiten each false twin of degree 2 or more and each
    pendant leaf of a vertex but an end of xy, else the first, class by
    class in the order of their least members; then start a fresh scan
    from the first edge or center after every forced edge (both
    peripheral edges of a butterfly at once)."""
    st = ColoringState(g.n)
    w = find_induced(g, K4)
    if w is not None:
        st.fail(f"K4 found on vertices {w.vertices}")
        return st
    twins = [[u for u in range(g.n) if g.adjset[u] == g.adjset[v]]
             for v in range(g.n)]
    for v in sorted(range(g.n), key=lambda v: (twins[v][0], v)):
        kept = next((t for t in twins[v] if xy and t in xy), twins[v][0])
        if len(twins[v]) > 1 and g.adj[v] \
                and (len(g.adj[v]) > 1 or v != kept):
            assign(st, v, WHITE)
    while propagate(g, st):
        w = next(patterns.diamonds(g, st.color), None)
        if w is not None:
            _, u, _, mid = w.vertices
            assign(st, u, BLACK)
            assign(st, mid, BLACK)
            continue
        w = next(patterns.butterflies(g, st.color), None)
        if w is not None:
            for v in w.vertices[:4]:
                assign(st, v, BLACK)
            continue
        break
    return st


def _pattern_union(rng):
    parts = [make_named(rng.choice((DIAMOND, BUTTERFLY, path(6))))
             for _ in range(rng.randint(1, 8))]
    n = sum(p.n for p in parts)
    label = rng.sample(range(n), n)
    edges, base = [], 0
    for p in parts:
        edges += [(label[base + u], label[base + v]) for u, v in p.edges]
        base += p.n
    # a few links between parts make patterns share vertices
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    return build_graph(n, edges)


def test_resumable_scans_match_the_restart_loop():
    rng = random.Random(47)
    graphs = [build_graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n) if rng.random() < p])
              for n, p in ((rng.randint(2, 12), rng.uniform(0.1, 0.6))
                           for _ in range(1500))]
    graphs += [_pattern_union(rng) for _ in range(300)]
    reduced = 0
    for i, g in enumerate(graphs):
        for xy in [None] + list(g.edges if i % 10 == 0 else ()):
            got, want = preprocess(g, xy), _restart_preprocess(g, xy)
            assert (got.color, got.mate, got.contradiction) == \
                (want.color, want.mate, want.contradiction)
        reduced += bool(want.mate_pairs())
    assert reduced > 400


def test_preprocess_starts_each_pattern_scan_once(monkeypatch):
    k = 200
    g = build_graph(4 * k, [(4 * i + u, 4 * i + v) for i in range(k)
                            for u, v in make_named(DIAMOND).edges])
    started = {}

    def counted(name):
        real = getattr(patterns, name)

        def wrapper(*args, **kwargs):
            started[name] = started.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(patterns, name, wrapper)

    for name in ("find_induced", "diamonds", "butterflies"):
        counted(name)
    st = preprocess(g)
    assert st.contradiction is None
    assert st.color == bytes((WHITE, BLACK, WHITE, BLACK)) * k
    assert st.mate_pairs() == [(4 * i + 1, 4 * i + 3) for i in range(k)]
    assert started == {"find_induced": 1, "diamonds": 1, "butterflies": 1}


def test_preprocess_preserves_existence_small():
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, pairs)
        dims = enumerate_dims(g)
        st = preprocess(g)
        if st.contradiction is not None:
            assert not dims
            continue
        checked += 1
        forced = set(st.mate_pairs())
        for d in (kept_leaf_dim(g, d) for d in dims):
            # forced pairs appear in every solution, once its pendant
            # leaves are those kept; whites never do
            assert forced <= d.edges
            matched = {v for e in d.edges for v in e}
            for v in range(n):
                if st.color[v] == BLACK:
                    assert v in matched
                elif st.color[v] == WHITE:
                    assert v not in matched
    assert checked > 200


def test_twin_step_is_sound_on_every_small_graph_with_twins():
    # every labelled graph on at most 6 vertices with two false twins
    # that are not isolated: no d.i.m. matches a twin of degree 2 or
    # more, and `solve`, plain and with xy on every edge, agrees with the
    # oracle, so the kept pendant leaf loses no d.i.m. through xy
    graphs = xy_runs = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs)
                                if mask >> i & 1])
            adj = g.adj
            if len(set(adj)) + max(adj.count(()) - 1, 0) == n:
                continue
            graphs += 1
            dims = enumerate_dims(g)
            matched = {v for d in dims for e in d.edges for v in e}
            assert not any(len(adj[v]) > 1 and adj.count(adj[v]) > 1
                           for v in matched), g.edges
            out = solve(g)
            assert (out.status == "found") == bool(dims), g.edges
            on_some_dim = {e for d in dims for e in d.edges}
            for e in g.edges:
                out = solve(g, xy=e)
                assert (out.status == "found") == (e in on_some_dim), \
                    (g.edges, e)
                if out.status == "found":
                    assert verify_dim(g, out.certificate)
                    assert e in out.certificate.edges
                xy_runs += 1
    assert (graphs, xy_runs) == (11279, 81489)


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
        st = ColoringState(n)
        for _ in range(rng.randint(1, 5)):
            live, live_edges = _live(g, st)
            step = rng.random()
            if step < 0.5 or not live_edges:
                assign(st, rng.choice(live), rng.choice((BLACK, WHITE)))
            elif step < 0.8:
                propagate(g, st)
            else:
                force_edge(g, st, *rng.choice(live_edges))
            if rng.random() < 0.5:
                propagate(g, st)
            if st.contradiction is not None or _all_white(st):
                break
        propagate(g, st)
        if st.contradiction is not None:
            continue
        checked += 1
        before = _snapshot(st)
        st.propagated = 0       # every change so far is work again
        propagate(g, st)
        assert st.contradiction is None
        assert _snapshot(st) == before
    assert checked > 5000


def _snapshot(st):
    return bytes(st.color), tuple(st.mate)


def _live(g, st):
    """The vertices and the edges of the working graph: not white."""
    live = [v for v in range(g.n) if st.color[v] != WHITE]
    live_edges = [(u, v) for (u, v) in g.edges
                  if st.color[u] != WHITE and st.color[v] != WHITE]
    return live, live_edges


def _random_graph(rng):
    n = rng.randint(3, 12)
    p = rng.uniform(0.2, 0.6)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


def _propagated_start(g, rng):
    """A propagated state with a few colors on its trail, or None."""
    st = ColoringState(g.n)
    for v in rng.sample(range(g.n), rng.randint(0, 2)):
        assign(st, v, rng.choice((BLACK, WHITE)))
    return st if propagate(g, st) else None


def test_undo_restores_the_marked_state(monkeypatch):
    # from a propagated state, any run of assigns, propagates and forced
    # edges, contradictions included, is taken back by one undo;
    # every propagate leaves its queue flags all zero, contradiction or not
    real = coloring.propagate

    def checked(g, state):
        real(g, state)
        assert not any(state.inq)

    monkeypatch.setattr(coloring, "propagate", checked)
    rng = random.Random(97)
    undone = failed = 0
    for _ in range(3000):
        g = _random_graph(rng)
        st = _propagated_start(g, rng)
        if st is None:
            continue
        mark, ref = st.mark(), st.clone()
        for _ in range(rng.randint(1, 6)):
            live, live_edges = _live(g, st)
            step = rng.random()
            if step < 0.5 or not live_edges:
                assign(st, rng.choice(live), rng.choice((BLACK, WHITE)))
            elif step < 0.8:
                coloring.propagate(g, st)
            else:
                force_edge(g, st, *rng.choice(live_edges))
            if st.contradiction is not None or _all_white(st):
                break
        undone += len(st.trail) > mark
        failed += st.contradiction is not None
        st.undo(mark)
        assert _snapshot(st) == _snapshot(ref) and st.trail == ref.trail
        assert st.contradiction is None
        assert st.propagated == mark       # no work pending
    assert undone > 1000 and failed > 500


def test_subsolver_without_completion_leaves_its_input():
    # the search walks its tree on the state it is given and, finding no
    # completion, undoes every node; a completion is the same state.  Its
    # inputs are the undecided parts that hold an unmated black, in turn
    rng = random.Random(41)
    none = found = 0
    for _ in range(10000):
        g = _random_graph(rng)
        st = _propagated_start(g, rng)
        if st is None:
            continue
        for part in _undecided_parts(g, st, range(g.n)):
            if BLACK not in (st.color[v] for v in part):
                continue
            ref = st.clone()
            got = constrained_subsolver(g, st, part)
            if got is None:
                none += 1
                assert _snapshot(st) == _snapshot(ref)
                assert st.trail == ref.trail
                assert st.contradiction is None and not any(st.inq)
                break
            found += 1
            assert got is st and st.contradiction is None
    assert none > 300 and found > 300


def _reference_fixpoint(g, color, mate):
    """Naive fixpoint of rules (a)-(d): sweep every colored vertex and
    apply each rule until none fires.  Returns (color, mate), or None on
    a contradiction."""
    color, mate = bytearray(color), list(mate)
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if color[v] == UNKNOWN:
                continue
            if color[v] == WHITE:               # rule (a)
                for w in g.adj[v]:
                    if color[w] == WHITE:
                        return None
                    if color[w] == UNKNOWN:
                        color[w], changed = BLACK, True
                continue
            live = [w for w in g.adj[v] if color[w] != WHITE]
            blacks = [w for w in live if color[w] == BLACK]
            if len(blacks) > 1:
                return None
            if blacks:                          # rule (b)
                w = blacks[0]
                if mate[v] not in (-1, w) or mate[w] not in (-1, v):
                    return None
                if mate[v] != w:
                    mate[v], mate[w], changed = w, v, True
                for z in live:
                    if z != w and color[z] == UNKNOWN:
                        color[z], changed = WHITE, True
                continue
            cands = [w for w in live if color[w] == UNKNOWN]
            if mate[v] >= 0 or not cands:       # a lost mate, or none left
                return None
            if len(cands) == 1:                 # rule (c)
                color[cands[0]], changed = BLACK, True
                continue
            for w in cands:                     # rule (d)
                if any(z != v and color[z] == BLACK for z in g.adj[w]):
                    color[w], changed = WHITE, True
    return color, mate


def _dense_graph(rng):
    """G(n, p) with n <= 12 and p up to 0.8, or K_{k,k} minus a few edges."""
    if rng.random() < 0.7:
        n = rng.randint(3, 12)
        p = rng.uniform(0.2, 0.8)
        return build_graph(n, [(u, v) for u in range(n)
                               for v in range(u + 1, n) if rng.random() < p])
    k = rng.randint(2, 6)
    pairs = [(a, k + b) for a in range(k) for b in range(k)]
    for e in rng.sample(pairs, rng.randint(0, min(3, len(pairs) - 1))):
        pairs.remove(e)
    return build_graph(2 * k, pairs)


def test_propagate_reaches_the_reference_fixpoint():
    # random runs of assigns, propagates, forced edges and undos: each
    # propagate ends where the naive sweep from the same state ends, or
    # both contradict; a missed deduction anywhere shows at the next check
    rng = random.Random(131)
    agreed = failed = 0
    for _ in range(3000):
        g = _dense_graph(rng) if rng.random() < 0.6 else _random_graph(rng)
        st = ColoringState(g.n)
        marks = [0]                 # propagated states to undo to
        for _ in range(rng.randint(2, 10)):
            live, live_edges = _live(g, st)
            step = rng.random()
            if step < 0.15 and len(marks) > 1:
                cut = rng.randrange(len(marks))
                st.undo(marks[cut])
                del marks[cut + 1:]
            elif step < 0.65 or not live_edges:
                if live:
                    assign(st, rng.choice(live), rng.choice((BLACK, WHITE)))
            elif step < 0.85:
                propagate(g, st)
            else:
                force_edge(g, st, *rng.choice(live_edges))
            if st.contradiction is None and rng.random() < 0.7:
                before = _snapshot(st)
                ref = _reference_fixpoint(g, *before)
                propagate(g, st)
                assert (st.contradiction is None) == (ref is not None)
                if ref is None:
                    failed += 1
                else:
                    agreed += 1
                    assert _snapshot(st) == (bytes(ref[0]), tuple(ref[1]))
                    marks.append(st.mark())
            if st.contradiction is not None:
                st.undo(marks[-1])
    assert agreed > 3000 and failed > 1000


def test_failed_branch_on_kkk_reads_linear_adjacency():
    # mating x and y whitens the other 2k - 2 vertices, and the first
    # white popped meets a white neighbor: about 3k adjacency entries in
    # all, where queueing each white's black neighbors read about 2k^2
    reads = [0]

    class Counted(tuple):
        def __iter__(self):
            for w in super().__iter__():
                reads[0] += 1
                yield w

    for k in (10, 20, 40):
        g = build_graph(2 * k, [(a, k + b) for a in range(k)
                                for b in range(k)])
        g.adj = tuple(map(Counted, g.adj))
        st = ColoringState(g.n)
        assign(st, 0, BLACK)
        assign(st, k, BLACK)
        reads[0] = 0
        assert not propagate(g, st)
        assert reads[0] <= 4 * k


def test_preprocess_takes_each_common_neighborhood_once():
    # the K4, diamond and butterfly scans share one pass over the edges
    # with one intersection each; on bipartite graphs and disjoint
    # diamonds the three scans once took about 4m and 2m intersections
    taken = [0]

    class Counted(frozenset):
        def __and__(self, other):
            taken[0] += 1
            return super().__and__(other)

        __rand__ = __and__

    # (graph, forced pairs): K_{k,k} minus a perfect matching has no
    # pattern and no false twins, and each diamond's mid-edge is forced
    cases = [(build_graph(2 * k, [(a, k + b) for a in range(k)
                                  for b in range(k) if a != b]), 0)
             for k in (10, 20, 40)]
    cases += [(build_graph(4 * k, [(4 * i + u, 4 * i + v) for i in range(k)
                                   for u, v in make_named(DIAMOND).edges]), k)
              for k in (10, 50)]
    for g, forced in cases:
        g.adjset = tuple(map(Counted, g.adjset))
        taken[0] = 0
        st = preprocess(g)
        assert st.contradiction is None and len(st.mate_pairs()) == forced
        assert 0 < taken[0] <= g.m, (g, taken[0])
