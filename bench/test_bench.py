"""Tests of the benchmark itself: its checks, its inputs and its smoke run."""

import random

import pytest

import checks
import instances
import run


def test_is_dim_accepts_a_dim_and_rejects_broken_ones():
    edges = instances.cycle(6)
    assert checks.is_dim(6, edges, [(0, 1), (3, 4)])
    assert not checks.is_dim(6, edges, [(0, 1)])              # 3-4 undominated
    assert not checks.is_dim(6, edges, [(0, 1), (2, 3)])      # 1-2 joins two
    assert not checks.is_dim(6, edges, [(0, 1), (0, 5)])      # not a matching
    assert not checks.is_dim(6, edges, [(0, 3), (1, 4)])      # not edges


def test_small_enumeration_matches_cycles_and_paths():
    for n in range(3, 8):
        assert checks.has_dim_small(n, instances.cycle(n)) == (n % 3 == 0)
        assert checks.has_dim_small(n, instances.path(n))
    assert not checks.has_dim_small(6, instances.complete_bipartite(3))


def test_is_s115_is_order_free_and_strict():
    spider = instances.S115_EDGES
    assert checks.is_s115(8, spider, list(range(8)))
    assert checks.is_s115(8, spider, [7, 3, 0, 5, 1, 6, 2, 4])
    assert not checks.is_s115(8, instances.path(8), list(range(8)))
    chord = spider + ((1, 2),)
    assert not checks.is_s115(8, chord, list(range(8)))


def test_planted_graphs_hold_what_was_planted():
    rng = random.Random(3)
    for n in (20, 35, 60):
        edges, matching = instances.planted_dim(rng, n)
        assert checks.is_dim(n, edges, matching)
        edges, spider = instances.planted_s115(rng, n)
        assert checks.is_s115(n, edges, spider)


def test_check_answer_rejects_wrong_answers():
    inst = instances.Instance("cycle", "6", "solve", 6, instances.cycle(6),
                              "found")
    ok = '{"result": "found", "edges": [[0, 1], [3, 4]], "stats": {}}'
    assert checks.check_answer(inst, 0, ok) == "found"
    with pytest.raises(checks.WrongAnswer):
        checks.check_answer(inst, 1, '{"result": "none", "stats": {}}')
    with pytest.raises(checks.WrongAnswer):
        checks.check_answer(inst, 0, '{"result": "found", "edges": [[0, 1]]}')
    assert checks.check_answer(
        inst, 3, '{"result": "hypothesis-violated"}') == "hypothesis-violated"


def test_instances_follow_the_seed():
    for name in instances.WORKLOADS:
        a = instances.build(name, 5, smoke=True)
        assert a.digest() == instances.build(name, 5, smoke=True).digest()
        assert a.digest() != instances.build(name, 6, smoke=True).digest()


def test_missing_sources_refuse_to_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(run.SetupError):
        run.load_program()


def test_smoke_run_checks_every_workload(capsys):
    assert run.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    for name in instances.WORKLOADS:
        assert f"smoke {name}:" in out
