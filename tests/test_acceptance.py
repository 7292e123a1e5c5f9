"""Acceptance suite: one criterion per test, one printed PASS/FAIL line
each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from dimatch import (brute_force_dim, build_graph, connected_components,
                     enumerate_dims, random_s115_free, solve, verify_dim)
from dimatch.coloring import BLACK, WHITE, assign, preprocess, propagate
from dimatch.patterns import BUTTERFLY, DIAMOND, K4
from dimatch.solver import NODES_PER_VERTEX
from shapes import CLAW, cycle, make_named, path
from test_coloring import kept_leaf_dim
from test_solver import _cover_all

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from diffcheck import fan_chain  # noqa: E402


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {tag}" + (f" ({extra})" if extra else ""))


def _wrong(g, exists: bool, xy=None, out=None) -> bool:
    # `out`, solve(g, xy=xy) by default, disagrees with the oracle's
    # `exists`, or finds a certificate that fails to verify or to match xy
    out = out or solve(g, xy=xy)
    if out.status != "found":
        return out.status == "hypothesis-violated" or exists
    return not exists or not verify_dim(g, out.certificate) or \
        (xy is not None and xy not in out.certificate.edges)


def _canonical_code(adj) -> int:
    """The largest adjacency bit string (row j: j's bits to the vertices
    before it) over the labellings that order the vertices by a degree
    partition refined twice by the neighbours' degrees, grown row by row
    from the best prefixes: isomorphic graphs, and only they, share it."""
    n = len(adj)
    nbrs = [[u for u in range(n) if a >> u & 1] for a in adj]
    inv = [len(nb) for nb in nbrs]
    for _ in range(2):
        keys = [(i, sorted([inv[u] for u in nb])) for i, nb in zip(inv, nbrs)]
        inv = [sorted(keys).index(k) for k in keys]
    code, prefixes = 0, [()]
    for j, c in enumerate(sorted(inv)):
        best, grown = -1, []
        for p, v in itertools.product(prefixes, range(n)):
            if inv[v] == c and v not in p:
                row = 0
                for u in p:
                    row = row << 1 | adj[v] >> u & 1
                if row > best:
                    best, grown = row, []
                if row == best:
                    grown.append(p + (v,))
        code, prefixes = code << j | best, grown
    return code


def _graphs_up_to_isomorphism(top: int) -> list[list[tuple[int, ...]]]:
    """One graph (neighbour bitmasks) per isomorphism class on 0..top
    vertices: a graph on n - 1 vertices grows a vertex per neighbour set,
    kept when its canonical code is new (McKay, J. Algorithms 1998)."""
    levels = [[()]]
    for n in range(1, top + 1):
        bit, seen = 1 << (n - 1), {}
        for adj in levels[-1]:
            for mask in range(bit):
                grown = tuple(a | bit if mask >> i & 1 else a
                              for i, a in enumerate(adj)) + (mask,)
                seen.setdefault(_canonical_code(grown), grown)
        levels.append(list(seen.values()))
    return levels


def test_criterion_1_exhaustive_small_graphs():
    # every labelled graph on <= 6 vertices; then each graph on 7 and 8
    # vertices up to isomorphism (OEIS A000088; connected A001349) under 10
    # or 3 labellings, since id order drives the solver's tie-breaks, with
    # solve(g, xy=e) on every edge e
    t0, bad, checked = time.time(), 0, 0
    for n in range(0, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs)
                                if mask >> i & 1])
            checked += 1
            bad += _wrong(g, brute_force_dim(g).exists)

    levels, rng = _graphs_up_to_isomorphism(8), random.Random(1)
    wrong, connected, labelled, runs = [0, 0], [0, 0], 0, 0
    for n, labellings in ((7, 10), (8, 3)):
        for adj in levels[n]:
            pairs = [(u, v) for v in range(n) for u in range(v)
                     if adj[v] >> u & 1]
            for k in range(labellings):
                label = rng.sample(range(n), n) if k else range(n)
                g = build_graph(n, [(label[u], label[v]) for u, v in pairs])
                connected[n - 7] += not k and len(connected_components(g)) == 1
                dims = enumerate_dims(g)
                labelled, runs = labelled + 1, runs + g.m
                wrong[0] += _wrong(g, bool(dims))
                wrong[1] += sum(_wrong(g, any(e in d.edges for d in dims), e)
                                for e in g.edges)
    counts = [len(level) for level in levels]
    ok = bad == 0 and wrong == [0, 0] and connected == [853, 11117] and \
        counts == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
    _report(1, "exhaustive small-graph equivalence", ok,
            f"{checked} labelled graphs on <=6 vertices, {bad} wrong; classes "
            f"on 1..8 vertices {counts[1:]}, {connected} connected; {labelled}"
            f" labellings and {runs} --xy runs on 7 and 8, wrong answers: "
            f"solve {wrong[0]}, --xy {wrong[1]}; {time.time()-t0:.0f}s")
    assert ok


@pytest.fixture(scope="module")
def random_instances():
    graphs = []
    for n in (10, 13, 16):
        seed = 0
        per_p = (334, 333, 333)
        for p, quota in zip((0.1, 0.2, 0.3), per_p):
            for _ in range(quota):
                graphs.append(random_s115_free(n, p, seed * 131 + n))
                seed += 1
    outs = [solve(g) for g in graphs]
    return graphs, outs


def test_criterion_2_random_instance_equivalence(random_instances):
    t0 = time.time()
    graphs, outs = random_instances
    bad = sum(_wrong(g, brute_force_dim(g).exists, out=out)
              for g, out in zip(graphs, outs))
    ok = bad == 0
    _report(2, "random-instance equivalence", ok,
            f"{len(graphs)} graphs, {bad} disagreements, "
            f"{time.time()-t0:.0f}s")
    assert ok


def test_criterion_3_golden_named_graphs():
    # every entry oracle-confirmed before freezing; the claw entry is
    # corrected relative to its folklore value: {center, leaf} is a
    # dominating induced matching of the star, so the answer is DIM
    # (both independent oracles agree), not NONE
    table = [
        ("P2", make_named(path(2)), True, None),
        ("P3", make_named(path(3)), True, None),
        ("C4", make_named(cycle(4)), False, None),
        ("C5", make_named(cycle(5)), False, None),
        ("C6", make_named(cycle(6)), True, None),
        ("K4", make_named(K4), False, None),
        ("claw", make_named(CLAW), True, None),
        ("diamond", make_named(DIAMOND), True, [(1, 3)]),
        ("butterfly", make_named(BUTTERFLY), True, [(0, 1), (2, 3)]),
        ("P6", make_named(path(6)), True, 2),
    ]
    bad = []
    for name, g, expect, detail in table:
        oracle = brute_force_dim(g)
        assert oracle.exists == expect, f"oracle confirmation failed: {name}"
        out = solve(g)
        if (out.status == "found") != expect:
            bad.append(name)
            continue
        if isinstance(detail, list) and \
                out.certificate.sorted_edges() != detail:
            bad.append(name)
        if isinstance(detail, int) and len(out.certificate) != detail:
            bad.append(name)
    ok = not bad
    _report(3, "golden named-graph table", ok,
            "claw entry oracle-corrected to DIM" if ok else f"bad: {bad}")
    assert ok


def test_criterion_4_propagation_soundness():
    t0 = time.time()
    rng = random.Random(404)
    violations = 0
    branches = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.6)]
        g = build_graph(n, pairs)
        dims = enumerate_dims(g)
        st0 = preprocess(g)
        if st0.contradiction is not None:
            if dims:
                violations += 1
            continue
        for xy in g.edges:
            x, y = xy
            if WHITE in (st0.color[x], st0.color[y]):
                continue
            live_p3 = any(st0.color[w] != WHITE and w not in xy
                          and (g.has_edge(w, x) != g.has_edge(w, y))
                          for w in range(n))
            if not live_p3:
                continue
            st = st0.clone()
            assign(st, x, BLACK)
            assign(st, y, BLACK)
            propagate(g, st)
            holding = [d for d in dims if xy in d.edges]
            if st.contradiction is not None:
                violations += sum(1 for _ in holding)
                continue
            branches += 1
            # with its pendant leaves those preprocessing keeps, which
            # leaves xy matched
            for dim in (kept_leaf_dim(g, d) for d in holding):
                matched = {v for e in dim.edges for v in e}
                for v in range(n):
                    if st.color[v] == BLACK and v not in matched:
                        violations += 1
                    elif st.color[v] == WHITE and v in matched:
                        violations += 1
    ok = violations == 0
    _report(4, "propagation soundness", ok,
            f"{branches} xy branches, {violations} violations, "
            f"{time.time()-t0:.0f}s")
    assert ok


def test_criterion_5_reduction_preservation():
    t0 = time.time()
    rng = random.Random(505)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.6)]
        g = build_graph(n, pairs)
        exists = brute_force_dim(g).exists
        st = preprocess(g)
        if st.contradiction is not None:
            if exists:
                violations += 1
            continue
        completion = _cover_all(g, st.clone())
        if (completion is not None) != exists:
            violations += 1
            continue
        if completion is not None:
            pairs_found = completion.mate_pairs()
            if not verify_dim(g, pairs_found):
                violations += 1
            if not set(st.mate_pairs()) <= set(pairs_found):
                violations += 1
    ok = violations == 0
    _report(5, "reduction preservation", ok,
            f"500 graphs, {violations} violations, {time.time()-t0:.0f}s")
    assert ok


def test_criterion_6_scaling_smoke():
    t0 = time.time()
    # establish the existence patterns on small sizes with the oracle
    for n in range(2, 13):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        assert brute_force_dim(g).exists      # paths always admit one
    cycle_pattern = {}
    for n in range(3, 13):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        cycle_pattern[n % 3] = brute_force_dim(g).exists
    assert cycle_pattern == {0: True, 1: False, 2: False}

    ok = True
    notes = []
    for kind in ("path", "cycle"):
        times = []
        for n in (100, 1000, 10000):
            pairs = [(i, i + 1) for i in range(n - 1)]
            if kind == "cycle":
                pairs.append((0, n - 1))
            g = build_graph(n, pairs)
            t1 = time.perf_counter()
            out = solve(g)
            dt = max(time.perf_counter() - t1, 1e-4)
            times.append(dt)
            if out.status == "found":
                if not verify_dim(g, out.certificate):
                    ok = False
            expected = True if kind == "path" else (n % 3 == 0)
            if (out.status == "found") != expected:
                ok = False
        for a, b in zip(times, times[1:]):
            if b > 1000.0 * a:      # consecutive sizes grow by 10x
                ok = False
        notes.append(f"{kind}: " + "/".join(f"{t:.2f}s" for t in times))
    _report(6, "scaling smoke test", ok,
            "; ".join(notes) + f", total {time.time()-t0:.0f}s")
    assert ok


def test_criterion_7_branch_bound_accounting(random_instances):
    # every answer's exact search stays within its budget, and on these
    # S115-free instances within one node per vertex: criterion 2's, and
    # the fan chain for d = 1..20 (no d.i.m.), which is exponential unless
    # propagation whitens a vertex with two black neighbors
    graphs, outs = random_instances
    fans = [build_graph(*fan_chain(d)) for d in range(1, 21)]
    fan_outs = [solve(g) for g in fans]
    graphs, outs = graphs + fans, outs + fan_outs
    over = sum(out.stats.subsolver_nodes > NODES_PER_VERTEX * g.n
               for g, out in zip(graphs, outs))
    worst = max(out.stats.subsolver_nodes / g.n
                for g, out in zip(graphs, outs))
    fan_worst = max(out.stats.subsolver_nodes / g.n
                    for g, out in zip(fans, fan_outs))
    ok = over == 0 and worst <= 1 and \
        all(out.status == "none" for out in fan_outs)
    _report(7, "branch-bound accounting", ok,
            f"{len(graphs)} instances, {over} over the budget, worst "
            f"{worst:.2f} subsolver nodes per vertex (bound 1), fan chain "
            f"{fan_worst:.2f}")
    assert ok
