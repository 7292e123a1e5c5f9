import inspect
import random
import sys

import pytest

from dimatch import (brute_force_dim, build_graph, enumerate_dims, verify_dim,
                     BudgetExceeded)
from dimatch.cli import RunConfig, emit_graph, run
from dimatch.patterns import DIAMOND, BUTTERFLY
from shapes import CLAW, cycle, dims_by_subset_filter, make_named, path


def test_p3_two_solutions():
    g = make_named(path(3))
    assert brute_force_dim(g).exists and len(enumerate_dims(g)) == 2


def test_c4_none():
    report = brute_force_dim(make_named(cycle(4)))
    assert not report.exists and report.witness is None


def test_diamond_unique_mid_edge():
    g = make_named(DIAMOND)
    report = brute_force_dim(g)
    assert report.exists and len(enumerate_dims(g)) == 1
    assert report.witness.sorted_edges() == [(1, 3)]


def test_enumerate_p6():
    dims = enumerate_dims(make_named(path(6)))
    assert [d.sorted_edges() for d in dims] == \
        [[(0, 1), (3, 4)], [(1, 2), (4, 5)]]


def test_enumerate_butterfly():
    dims = enumerate_dims(make_named(BUTTERFLY))
    assert [d.sorted_edges() for d in dims] == [[(0, 1), (2, 3)]]


def test_enumerate_claw():
    # every center edge dominates the whole star
    dims = enumerate_dims(make_named(CLAW))
    assert [d.sorted_edges() for d in dims] == [[(0, 1)], [(0, 2)], [(0, 3)]]


def test_every_witness_verifies_and_cross_check():
    rng = random.Random(3)
    for _ in range(250):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = build_graph(n, pairs)
        dims = enumerate_dims(g)
        assert all(verify_dim(g, d) for d in dims)
        keys = [tuple(d.sorted_edges()) for d in dims]
        assert len(keys) == len(set(keys))
        other = [tuple(d.sorted_edges()) for d in dims_by_subset_filter(g)]
        assert keys == other


def test_budget_abort():
    n = 16
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, pairs)  # K16, no d.i.m., big search tree
    with pytest.raises(BudgetExceeded):
        brute_force_dim(g, budget=5)


def test_budget_below_one_is_rejected():
    g = make_named(path(4))
    for bad in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            brute_force_dim(g, budget=bad)
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_dims(g, budget=bad)
    assert brute_force_dim(g, budget=3).exists


def test_search_deeper_than_the_recursion_limit_is_a_budget_overrun():
    # the search recurses once per chosen edge, about 200 times on P_400:
    # past the recursion limit it raises BudgetExceeded, so `oracle` and
    # `compare` exit 2 with BUDGET EXCEEDED, not 4 with a RecursionError
    g = make_named(path(400))
    text = emit_graph(g)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.raises(BudgetExceeded, match="recursion limit"):
            brute_force_dim(g)
        for mode in ("oracle", "compare"):
            code, out = run(RunConfig(mode), text)
            assert code == 2 and out.startswith("BUDGET EXCEEDED (oracle "
                                                "search deeper"), out
    finally:
        sys.setrecursionlimit(limit)


def test_search_reads_each_edge_about_once_per_path():
    # each node resumes the scan for the first undominated edge after its
    # parent's target: O(m) edge reads on a path, where rescanning from
    # the first edge took about m^2 / 3
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return super().__getitem__(i)

        def __iter__(self):
            for e in super().__iter__():
                reads[0] += 1
                yield e

    # P_301 has a d.i.m., but not the one through its first edge: the
    # search walks the path twice
    g = make_named(path(301))
    g.edges = Counted(g.edges)
    report = brute_force_dim(g)
    assert reads[0] <= 3 * g.m, reads[0]
    assert report.exists and verify_dim(g, report.witness)
