import json

import pytest

from dimatch import cli, solver
from dimatch.cli import RunConfig, emit_graph, main, parse_graph, run
from dimatch.patterns import (make_named, cycle, K4, S115, PatternWitness,
                              check_witness)

P6_TEXT = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"


def test_parse_roundtrip():
    g = parse_graph(P6_TEXT)
    assert emit_graph(g) == P6_TEXT


def test_parse_comments_and_blanks():
    text = "# a path\n\n3 2\n0 1\n# middle\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


def test_parse_errors_carry_line_numbers():
    code, out = run(RunConfig("solve"), text="3 2\n0 1\nwat\n")
    assert code == 2 and ":3:" in out
    code, out = run(RunConfig("solve"), text="3 5\n0 1\n")
    assert code == 2 and "announces" in out
    code, out = run(RunConfig("solve"), text="3 1\n0 0\n")
    assert code == 2 and "self-loop" in out


def test_solve_p6():
    code, out = run(RunConfig("solve"), text=P6_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DIM 2" and len(lines) == 3


def test_solve_c5_none():
    g = make_named(cycle(5))
    code, out = run(RunConfig("solve"), text=emit_graph(g))
    assert code == 1 and out.startswith("NONE")


def test_solve_k4_reason():
    g = make_named(K4)
    code, out = run(RunConfig("solve"), text=emit_graph(g))
    assert code == 1 and "K4" in out


def test_solve_json_shape():
    code, out = run(RunConfig("solve", fmt="json"), text=P6_TEXT)
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "solve" and obj["n"] == 6 and obj["m"] == 5
    assert obj["result"] == "found" and len(obj["edges"]) == 2
    assert "stats" in obj


def test_solve_xy_flag():
    cfg = RunConfig("solve", xy=(1, 2))
    code, out = run(cfg, text=P6_TEXT)
    assert code == 0 and out.splitlines()[0] == "DIM 2"
    cfg = RunConfig("solve", xy=(2, 3))
    code, out = run(cfg, text=P6_TEXT)
    assert code == 1 and out == "NONE"


def test_oracle_mode():
    code, out = run(RunConfig("oracle"), text=P6_TEXT)
    assert code == 0 and out.splitlines()[0] == "DIM 2"
    g = make_named(cycle(4))
    code, out = run(RunConfig("oracle"), text=emit_graph(g))
    assert code == 1 and out == "NONE"


def test_oracle_budget_must_be_positive(capsys):
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--budget", bad])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
    # a budget given in the config is checked by the oracle, never replaced
    # by the default
    p4 = "4 3\n0 1\n1 2\n2 3\n"
    code, out = run(RunConfig("oracle", budget=0), text=p4)
    assert code == 2 and out.startswith("error: ")
    code, out = run(RunConfig("oracle"), text=p4)
    assert code == 0 and out.splitlines()[0] == "DIM 1"


def test_compare_mode():
    code, out = run(RunConfig("compare"), text=P6_TEXT)
    assert code == 0 and out.startswith("AGREE")
    g = make_named(cycle(5))
    code, out = run(RunConfig("compare"), text=emit_graph(g))
    assert code == 0 and out == "AGREE NONE"


def test_check_mode():
    code, out = run(RunConfig("check-s115"), text=P6_TEXT)
    assert code == 0 and out == "S115-FREE"
    g = make_named(S115)
    code, out = run(RunConfig("check-s115"), text=emit_graph(g))
    assert code == 3 and out.startswith("S115 WITNESS")


def test_generate_roundtrip_byte_identical():
    cfg = RunConfig("generate", n=12, p=0.2, seed=5, count=3)
    code, out = run(cfg)
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    for block in blocks:
        g = parse_graph(block)
        assert emit_graph(g).rstrip("\n") == block.rstrip("\n")


def test_generate_deterministic():
    cfg = RunConfig("generate", n=10, p=0.3, seed=9, count=2)
    assert run(cfg) == run(cfg)


def test_generate_input_errors_exit_2(capsys):
    # a negative size or a probability past 1 is an input error, not a
    # traceback, and a count below 1 is refused instead of printing nothing
    for argv in (["--n", "-1", "--p", "0.1"], ["--n", "5", "--p", "2"]):
        assert main(["generate", *argv, "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("error: ")
        assert "Traceback" not in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "5", "--p", "0.2", "--seed", "0",
              "--count", "-3"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_compare_many_random_s115_free():
    for seed in range(25):
        gen = RunConfig("generate", n=12, p=0.25, seed=200 + seed, count=1)
        _, text = run(gen)
        code, out = run(RunConfig("compare"), text=text)
        assert code == 0, out


HV_TEXT = "22 25\n" + "\n".join(
    f"{u} {v}" for (u, v) in
    [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 8), (3, 9),
     (4, 10), (4, 11), (5, 12), (5, 13), (6, 14), (6, 15), (7, 16), (7, 17),
     (8, 18), (9, 21), (10, 19), (12, 20), (14, 21), (18, 19), (19, 20),
     (20, 21)]) + "\n"


def test_solve_hypothesis_violation_exit_code():
    # only a search over its node budget answers hypothesis-violated
    code, out = run(RunConfig("solve", budget=1), text=HV_TEXT)
    assert code == 3 and out.startswith("UNKNOWN")
    code, out = run(RunConfig("solve", budget=1, fmt="json"), text=HV_TEXT)
    obj = json.loads(out)
    assert code == 3 and obj["result"] == "hypothesis-violated"
    assert "budget of 1 nodes" in obj["detail"]


def test_solve_strict_prints_witness():
    code, out = run(RunConfig("solve", strict=True, budget=1), text=HV_TEXT)
    assert code == 3 and "witness:" in out
    witness = tuple(int(v) for v in out.split("witness:")[1].split())
    assert check_witness(parse_graph(HV_TEXT), PatternWitness(S115, witness))


def test_solve_decides_out_of_class_graphs(capsys):
    # the exact search of the branches answers a graph outside the class
    # that has no d.i.m.; the oracle fallback option is gone
    code, out = run(RunConfig("solve", fmt="json"), text=HV_TEXT)
    obj = json.loads(out)
    assert code == 1 and obj["result"] == "none"
    assert obj["stats"]["parts"] >= 1 and obj["stats"]["subsolver_nodes"] > 1
    assert "xy_fallback" not in obj["stats"]
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--fallback"])
    assert exc.value.code == 2
    assert "--fallback" in capsys.readouterr().err


def test_compare_unknown_on_violation(monkeypatch):
    monkeypatch.setattr(solver, "NODES_PER_VERTEX", 0)
    code, out = run(RunConfig("compare"), text=HV_TEXT)
    assert code == 3 and "UNKNOWN" in out and "NONE" in out


# outside the class; its d.i.m. is {0-21, 3-9, 4-20, 5-13, 7-15, 8-11, 17-19}
XY_TEXT = "22 23\n" + "\n".join(
    f"{u} {v}" for (u, v) in
    [(0, 1), (0, 6), (0, 16), (0, 21), (1, 3), (1, 8), (1, 21), (2, 7),
     (2, 11), (2, 19), (3, 9), (4, 20), (5, 13), (5, 18), (6, 9), (7, 15),
     (7, 18), (8, 11), (11, 16), (12, 17), (17, 19), (18, 20),
     (18, 21)]) + "\n"


def test_solve_xy_outside_the_class_finds_the_dim():
    # a class-only deduction prunes the 7-15 branch; the exact search
    # still finds the d.i.m. through that edge
    code, out = run(RunConfig("solve", xy=(7, 15)), text=XY_TEXT)
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0] == "DIM 7" and "7 15" in lines[1:]
    # over the budget the answer is unknown, not NONE
    code, out = run(RunConfig("solve", xy=(7, 15), budget=1), text=XY_TEXT)
    assert code == 3 and out == "UNKNOWN (hypothesis violated)"


def test_internal_error_exits_4(monkeypatch, capsys, tmp_path):
    # an exception escaping the run is an internal error with its
    # traceback on stderr, never exit 1 ("no d.i.m.")
    def boom(g, budget=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "solve", boom)
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT)
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RecursionError" in captured.err
