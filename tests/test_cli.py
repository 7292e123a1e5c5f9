import gc
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dimatch import cli, coloring, solver
from dimatch.cli import RunConfig, emit_graph, main, parse_graph, run
from dimatch.graph import GraphInputError, build_graph
from dimatch.patterns import K4, S115, PatternWitness
from shapes import check_witness, cycle, make_named

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from diffcheck import G24, G24B  # noqa: E402

P6_TEXT = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
S115_TEXT = "8 7\n0 1\n0 2\n0 3\n3 4\n4 5\n5 6\n6 7\n"


def test_parse_roundtrip():
    g = parse_graph(P6_TEXT)
    assert emit_graph(g) == P6_TEXT


def test_parse_comments_and_blanks():
    text = "# a path\n\n3 2\n0 1\n# middle\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2
    # `# c` splits into two tokens like a pair, but it is a comment
    g = parse_graph("# c\n3 2\n  # 0 1\n0 1\n#\t2\n1 2\n# x y z\n")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_errors_carry_line_numbers():
    code, out = run(RunConfig("solve"), text="3 2\n0 1\nwat\n")
    assert code == 2 and ":3:" in out
    code, out = run(RunConfig("solve"), text="3 5\n0 1\n")
    assert code == 2 and "announces" in out
    code, out = run(RunConfig("solve"), text="3 1\n0 0\n")
    assert code == 2 and "self-loop" in out


@pytest.mark.parametrize("text, message", [
    ("", "f: empty input"),
    ("# only a comment\n\n  \n", "f: empty input"),
    ("3 1\n0 x\n", "f:2: expected two integers, got '0 x'"),
    ("3 1\n0\n", "f:2: expected two integers, got '0'"),
    ("3 1\n0 1 2\n", "f:2: expected two integers, got '0 1 2'"),
    ("3 1\n0 1.0\n", "f:2: expected two integers, got '0 1.0'"),
    ("3\n", "f:1: expected two integers, got '3'"),
    ("3 1\n0 1 # edge\n", "f:2: expected two integers, got '0 1 # edge'"),
    ("3 1\n# c\n\t0 x \n", "f:3: expected two integers, got '0 x'"),
    ("3 2\n0 x\n1 y z\n5\n", "f:2: expected two integers, got '0 x'"),
    ("3 2\r\n\r\n0 1\r\n1 y\r\n", "f:4: expected two integers, got '1 y'"),
    ("3 1\x0b0 1\x0c1 2 3", "f:3: expected two integers, got '1 2 3'"),
    ("3 1\n\ufeff0 1\n", "f:2: expected two integers, got '\\ufeff0 1'"),
    ("3 1\n0 1e2\n", "f:2: expected two integers, got '0 1e2'"),
    ("3 1\n0,1 2\n", "f:2: expected two integers, got '0,1 2'"),
    ("3 1\n[0] 1\n", "f:2: expected two integers, got '[0] 1'"),
    ("3 1\n0 true\n", "f:2: expected two integers, got '0 true'"),
    ("3 1\n0\r 1\n", "f:2: expected two integers, got '0'"),
    ("13 2\n1 2 3\n4\n", "f:2: expected two integers, got '1 2 3'"),
    pytest.param("3 1\n" + "[" * 100000 + " 1\n",
                 "f:2: expected two integers, got "
                 + repr("[" * 100000 + " 1"), id="deep-list"),
    pytest.param("3 1\n" + '{"a":' * 100000 + " 1\n",
                 "f:2: expected two integers, got "
                 + repr('{"a":' * 100000 + " 1"), id="deep-object"),
    ("3 2\n0,1 1,2\n", "f:2: expected two integers, got '0,1 1,2'"),
    ("3 5\n0 x\n", "f:2: expected two integers, got '0 x'"),
    ("3 2\n0 1\n", "f: header announces 2 edges, found 1"),
    ("3 0\n0 1\n", "f: header announces 0 edges, found 1"),
    ("3 -1\n", "f: header announces -1 edges, found 0"),
    ("3 2\n0 0\n", "f: header announces 2 edges, found 1"),
    ("-1 0\n", "f: vertex count must be nonnegative, got -1"),
    ("3 2\n0 1\n1 1\n", "f: self-loop rejected: (1, 1)"),
    ("3 2\n0 -0\n1 2\n", "f: self-loop rejected: (0, 0)"),
    ("3 2\n0 3\n1 1\n", "f: vertex id out of range 0..2: (0, 3)"),
    ("3 1\n-1 0\n", "f: vertex id out of range 0..2: (-1, 0)"),
    ("0 1\n0 1\n", "f: vertex id out of range 0..-1: (0, 1)"),
    ("3 2\n0 1\n0 1\n", "f: duplicate edge rejected: (0, 1)"),
    ("3 3\n2 1\n0 1\n1 2\n", "f: duplicate edge rejected: (1, 2)"),
])
def test_parse_rejections_name_source_line_and_cause(text, message):
    with pytest.raises(GraphInputError) as err:
        parse_graph(text, "f")
    assert str(err.value) == message


def _reference_parse(text, source):
    """Parse line by line and add edges pair by pair: (n, adj, edges), or
    the error message."""
    header, pairs = None, []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            return f"{source}:{ln}: expected two integers, got {line!r}"
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            return f"{source}:{ln}: expected two integers, got {line!r}"
        if header is None:
            header = (a, b)
        else:
            pairs.append((a, b))
    if header is None:
        return f"{source}: empty input"
    n, m = header
    if len(pairs) != m:
        return f"{source}: header announces {m} edges, found {len(pairs)}"
    if n < 0:
        return f"{source}: vertex count must be nonnegative, got {n}"
    seen, adj = set(), [[] for _ in range(n)]
    for u, v in pairs:
        if u == v:
            return f"{source}: self-loop rejected: ({u}, {v})"
        if not (0 <= u < n and 0 <= v < n):
            return f"{source}: vertex id out of range 0..{n - 1}: ({u}, {v})"
        e = (min(u, v), max(u, v))
        if e in seen:
            return f"{source}: duplicate edge rejected: {e}"
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    return n, tuple(tuple(sorted(a)) for a in adj), tuple(sorted(seen))


def _fuzz_text(rng):
    n = rng.randint(0, 8)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(0, len(pool)))
    rows = [[str(u), str(v)] if rng.random() < 0.5 else [str(v), str(u)]
            for u, v in edges]
    if edges and rng.random() < 0.1:                # duplicate or self-loop
        u, v = rng.choice(edges)
        rows.append(rng.choice([[str(u), str(v)], [str(v), str(u)],
                                [str(u), str(u)]]))
    for row in rows:
        if rng.random() < 0.05:                     # an odd token
            row[rng.randrange(2)] = rng.choice(
                ["+1", "1_0", "-1", "#", "#1", "x", "1.5", "01", "", str(n)])
        if rng.random() < 0.02:
            row.append(rng.choice(["2", "#", "# c"]))
    m = len(rows) + (rng.random() < 0.05) * rng.choice([-1, 1])
    rows.insert(0, [str(n), str(m)])
    for _ in range(rng.randint(0, 3)):              # comments and blanks
        rows.insert(rng.randint(0, len(rows)),
                    rng.choice([[], ["#"], ["#", "c"], ["#c", "1"], [" "]]))
    seps = [" ", " ", " ", "\t", "  ", " \t"]
    breaks = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c"]
    return "".join(rng.choice(["", " ", "\t"]) + rng.choice(seps).join(row)
                   + rng.choice(["", " "]) + rng.choice(breaks)
                   for row in rows)


def _agree_with_reference(texts):
    """Assert that the parse reads each text as `_reference_parse` does;
    the counts of graphs, errors and texts read in bulk."""
    kinds = {"graph": 0, "error": 0, "plain": 0}
    for text in texts:
        want = _reference_parse(text, "f")
        try:
            g = parse_graph(text, "f")
            got = g.n, g.adj, g.edges
            assert g.adjset == tuple(map(frozenset, g.adj))
        except GraphInputError as err:
            got = str(err)
        assert got == want, repr(text)
        kinds["error" if isinstance(want, str) else "graph"] += 1
        kinds["plain"] += cli._plain_ints(text) is not None
    return kinds


def test_parse_agrees_with_a_line_by_line_reference():
    rng = random.Random(17)
    kinds = _agree_with_reference(_fuzz_text(rng) for _ in range(3000))
    assert min(kinds["graph"], kinds["error"]) > 500, kinds


# spellings that JSON, `int()`, `str.split` or `splitlines` read apart
JUNK = [",", "[0]", '"', "01", "-0", "-01", "1e2", "1.0", "true", "NaN",
        "Infinity", "null", "\r", "\t", "  ", " ", "\xa0", "\x0b", "#",
        "+1", "1_0", "\u0663", "9" * 5000]


def _plain_fuzz_text(rng):
    """A plain text as `emit_graph` writes it, maybe without its final
    newline or in CRLF form, with 0-2 edits: a space moved, or an
    insertion or a token replaced from JUNK."""
    n = rng.randint(0, 12)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pool, rng.randint(0, min(len(pool), 14)))
    rows = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    if edges and rng.random() < 0.1:                # duplicate or self-loop
        u, v = rng.choice(edges)
        rows.append(rng.choice([(u, v), (v, u), (u, u)]))
    m = len(rows) + (rng.random() < 0.05) * rng.choice([-1, 1])
    text = "".join(f"{a} {b}\n" for a, b in [(n, m)] + rows)
    end = rng.random()
    if end < 0.2:
        text = text[:-1]
    elif end < 0.3:
        text += "\n" * rng.randint(1, 2)
    if rng.random() < 0.1:
        text = text.replace("\n", "\r\n")
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        if rng.random() < 0.2 and " " in text:     # one line gives a space
            i = rng.choice([i for i, c in enumerate(text) if c == " "])
            text = text[:i] + text[i + 1:]
            i = rng.randint(0, len(text))
            text = text[:i] + " " + text[i:]
            continue
        junk = rng.choice(JUNK)
        tokens = [i for i, c in enumerate(text) if c.isdigit()
                  and (i == 0 or not text[i - 1].isdigit())]
        if tokens and rng.random() < 0.5:           # replace a token
            i = rng.choice(tokens)
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
        else:                                       # insert
            i = j = rng.randint(0, len(text))
        text = text[:i] + junk + text[j:]
    return text


def test_bulk_parse_agrees_with_a_line_by_line_reference():
    # texts read in bulk or declined by it get the reference's graph or
    # error, and both sides are well represented
    rng = random.Random(29)
    kinds = _agree_with_reference(_plain_fuzz_text(rng)
                                  for _ in range(20000))
    assert min(kinds.values()) > 4000, kinds
    n = 10 ** 5
    path = [(u, u + 1) for u in range(n - 1)]
    want = build_graph(n, path)
    text = emit_graph(want)
    spellings = [text, text.replace(" ", "\t"), text.replace("\n", "\r\n")]
    assert cli._plain_ints(spellings[0]) is not None
    assert cli._plain_ints(spellings[2]) is None
    for i, spelled in enumerate(spellings):
        g = parse_graph(spelled)
        for key in ("n", "m", "adj", "adjset", "edges"):
            assert getattr(g, key) == getattr(want, key), (key, i)


def _text_pairs(text):
    """The header's vertex count and the pairs of a text, in text order
    and orientation, as the line-by-line reference reads them."""
    rows = [tuple(map(int, line.split())) for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]
    return rows[0][0], rows[1:]


def test_parse_and_build_graph_give_the_same_graph():
    # the parse and build_graph share one core: every text the parse
    # accepts gives, field by field, the Graph that build_graph gives for
    # its pairs, and a pair fault gets the same message from both
    rng = random.Random(17)
    kinds = {"graph": 0, "pair fault": 0}
    for _ in range(3000):
        text = _fuzz_text(rng)
        want = _reference_parse(text, "f")
        if isinstance(want, str):
            if want.startswith("f: ") and "announces" not in want \
                    and "empty input" not in want:
                with pytest.raises(GraphInputError) as err:
                    build_graph(*_text_pairs(text))
                assert "f: " + str(err.value) == want, repr(text)
                kinds["pair fault"] += 1
            continue
        g, h = parse_graph(text, "f"), build_graph(*_text_pairs(text))
        for key in ("n", "m", "adj", "adjset", "edges"):
            assert getattr(g, key) == getattr(h, key), (key, repr(text))
        kinds["graph"] += 1
    assert min(kinds.values()) > 100, kinds
    for text, n, edges in [
            ("0 0\n", 0, ()),
            ("3 0\n", 3, ()),
            ("4 3\n3 2\n1 0\n2 1\n", 4, ((0, 1), (1, 2), (2, 3))),
            ("5 2\n4 0\n0 3\n", 5, ((0, 3), (0, 4)))]:
        g, h = parse_graph(text), build_graph(*_text_pairs(text))
        assert g.n == h.n == n and g.edges == h.edges == edges
        for key in ("m", "adj", "adjset"):
            assert getattr(g, key) == getattr(h, key), (key, text)
        assert g.adj == tuple(tuple(sorted({v for e in edges for v in e
                                            if u in e} - {u}))
                              for u in range(n))


@pytest.mark.parametrize("mode, fmt, text, code, out", [
    ("solve", "text", P6_TEXT, 0, "DIM 2\n0 1\n3 4"),
    ("solve", "text", "6 3\n4 5\n0 1\n3 2\n", 0, "DIM 3\n0 1\n2 3\n4 5"),
    ("solve", "text", C5_TEXT, 1, "NONE (every candidate edge was exhausted)"),
    ("solve", "json", C5_TEXT, 1,
     '{"detail": "every candidate edge was exhausted", "edges": null, '
     '"m": 5, "mode": "solve", "n": 5, "result": "none", "stats": '
     '{"case_seconds": {}, "parts": 0, "subsolver_nodes": 0, '
     '"xy_tried": 3}}'),
    ("oracle", "text", P6_TEXT, 0, "DIM 2\n0 1\n3 4"),
    ("oracle", "text", "6 3\n4 5\n0 1\n3 2\n", 0,
     "DIM 3\n0 1\n2 3\n4 5"),
    ("oracle", "text", C5_TEXT, 1, "NONE"),
    ("oracle", "json", P6_TEXT, 0,
     '{"edges": [[0, 1], [3, 4]], "m": 5, "mode": "oracle", "n": 6, '
     '"result": "found", "stats": {}}'),
    ("oracle", "json", C5_TEXT, 1,
     '{"edges": null, "m": 5, "mode": "oracle", "n": 5, "result": "none", '
     '"stats": {}}'),
    ("oracle --budget 1", "json", P6_TEXT, 2,
     "BUDGET EXCEEDED (oracle budget of 1 nodes exceeded)"),
    ("compare", "text", P6_TEXT, 0, "AGREE DIM"),
    ("compare", "text", C5_TEXT, 0, "AGREE NONE"),
    ("compare", "json", P6_TEXT, 0,
     '{"edges": null, "m": 5, "mode": "compare", "n": 6, "result": "agree", '
     '"stats": {"case_seconds": {}, "parts": 0, "subsolver_nodes": 0, '
     '"xy_tried": 1}}'),
    ("compare", "json", C5_TEXT, 0,
     '{"edges": null, "m": 5, "mode": "compare", "n": 5, "result": "agree", '
     '"stats": {"case_seconds": {}, "parts": 0, "subsolver_nodes": 0, '
     '"xy_tried": 3}}'),
    ("check-s115", "text", P6_TEXT, 0, "S115-FREE"),
    ("check-s115", "text", S115_TEXT, 3, "S115 WITNESS 0 1 2 3 4 5 6 7"),
    ("check-s115", "json", P6_TEXT, 0,
     '{"edges": null, "m": 5, "mode": "check-s115", "n": 6, '
     '"result": "s115-free", "stats": {}}'),
    ("check-s115", "json", S115_TEXT, 3,
     '{"detail": "0 1 2 3 4 5 6 7", "edges": null, "m": 7, '
     '"mode": "check-s115", "n": 8, "result": "witness", "stats": {}}'),
])
def test_solve_and_oracle_output_is_exact_in_both_formats(mode, fmt, text,
                                                          code, out):
    # every mode's answer, byte for byte; the `DIM k` lines are built
    # only for the text format, the JSON answer of `solve` on P6 is
    # test_solve_json_is_exact's, and a budget overrun is plain text in
    # either format
    mode, _, budget = mode.partition(" --budget ")
    cfg = RunConfig(mode, fmt=fmt, budget=int(budget) if budget else None)
    assert run(cfg, text=text) == (code, out)


def test_bom_is_dropped_from_files_and_stdin(tmp_path, monkeypatch, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("\ufeff3 2\n0 1\n1 2\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("DIM 1\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff# p3\n3 2\n0 1\n1 2\n"))
    assert main(["check-s115"]) == 0
    assert capsys.readouterr().out == "S115-FREE\n"


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


def test_solve_json_is_exact():
    # certificate edges are written as arrays, in sorted order
    code, out = run(RunConfig("solve", fmt="json"), text=P6_TEXT)
    assert code == 0 and out == (
        '{"edges": [[0, 1], [3, 4]], "m": 5, "mode": "solve", "n": 6, '
        '"result": "found", "stats": {"case_seconds": {}, "parts": 0, '
        '"subsolver_nodes": 0, "xy_tried": 1}}')


def test_solve_xy_flag():
    cfg = RunConfig("solve", xy=(1, 2))
    code, out = run(cfg, text=P6_TEXT)
    assert code == 0 and out.splitlines()[0] == "DIM 2"
    cfg = RunConfig("solve", xy=(2, 3))
    code, out = run(cfg, text=P6_TEXT)
    assert code == 1 and out == "NONE (every candidate edge was exhausted)"
    # --xy answers carry the same stats as solve's
    code, out = run(RunConfig("solve", xy=(1, 2), fmt="json"), text=P6_TEXT)
    obj = json.loads(out)
    assert code == 0 and obj["result"] == "found"
    assert obj["stats"]["xy_tried"] == 1 and "subsolver_nodes" in obj["stats"]
    # a pair that is no edge, or an id out of range, is an input error
    for xy in ((0, 2), (-1, 0), (0, 6)):
        code, out = run(RunConfig("solve", xy=xy), text=P6_TEXT)
        assert code == 2 and out.endswith("is not an edge"), out


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


def test_solve_strict_explains_an_in_class_violation():
    # over its budget on a graph with no induced S_{1,1,5}, the answer is
    # a solver defect: --strict says so instead of printing nothing more
    text = emit_graph(build_graph(24, G24B))
    code, out = run(RunConfig("solve", strict=True, budget=1), text=text)
    assert code == 3 and "witness:" not in out
    assert out.splitlines() == [
        "UNKNOWN (hypothesis violated)",
        "in class: the graph has no induced S_{1,1,5}, so this answer is "
        "a solver defect"]
    code, out = run(RunConfig("solve", budget=1), text=text)
    assert code == 3 and out == "UNKNOWN (hypothesis violated)"
    # --xy names the witness, or its absence, the same way
    code, out = run(RunConfig("solve", strict=True, budget=1, xy=(7, 14)),
                    text=text)
    assert code == 3 and "in class:" in out
    code, out = run(RunConfig("solve", strict=True, budget=1, xy=(0, 1)),
                    text=HV_TEXT)
    assert code == 3 and "witness:" in out and "in class:" not in out


def test_check_s115_takes_no_budget(capsys):
    # the spider search has no node budget, so the option is refused
    # rather than accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["check-s115", "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fields", [
    (["solve", "--format", "json", "--strict", "--budget", "7",
      "--xy", "1", "2", "g.txt"],
     dict(mode="solve", path="g.txt", fmt="json", strict=True, budget=7,
          xy=(1, 2))),
    (["solve"], dict(mode="solve", path="-")),
    (["oracle", "--format", "json", "--budget", "9", "g.txt"],
     dict(mode="oracle", path="g.txt", fmt="json", budget=9)),
    (["compare", "--format", "text", "--budget", "3", "-"],
     dict(mode="compare", path="-", budget=3)),
    (["check-s115", "--format", "json", "g.txt"],
     dict(mode="check-s115", path="g.txt", fmt="json")),
    (["generate", "--n", "12", "--p", "0.25", "--seed", "5",
      "--count", "3"],
     dict(mode="generate", n=12, p=0.25, seed=5, count=3)),
], ids=["solve", "solve-defaults", "oracle", "compare", "check-s115",
        "generate"])
def test_main_passes_argv_to_run_config_unchanged(monkeypatch, argv,
                                                  fields):
    # every option lands in its RunConfig field, the rest keep their
    # defaults; --xy arrives as a tuple, since (1, 2) != [1, 2]
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or (0, ""))
    assert main(argv) == 0
    assert seen == [RunConfig(**fields)]


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


def test_compare_unknown_and_disagree_are_exact_in_both_formats(
        monkeypatch):
    # the two answers of compare that no correct run on a small graph in
    # the class gives: the solver over its budget, and a solver that
    # says none where the oracle finds a d.i.m.
    monkeypatch.setattr(solver, "NODES_PER_VERTEX", 0)
    assert run(RunConfig("compare"), text=HV_TEXT) == (
        3, "UNKNOWN (hypothesis violated); oracle says NONE")
    assert run(RunConfig("compare", fmt="json"), text=HV_TEXT) == (
        3, '{"detail": "exact search over its budget of 0 nodes", '
        '"edges": null, "m": 25, "mode": "compare", "n": 22, '
        '"result": "unknown", "stats": {"case_seconds": {}, "parts": 1, '
        '"subsolver_nodes": 1, "xy_tried": 2}}')
    monkeypatch.setattr(cli, "solve", lambda g, budget=None, xy=None:
                        solver.SolveOutcome(solver.NONE, detail="patched"))
    assert run(RunConfig("compare"), text=P6_TEXT) == (
        3, "DISAGREE\nsolver: none patched\noracle: found\n"
        "oracle witness: 0-1 3-4")
    assert run(RunConfig("compare", fmt="json"), text=P6_TEXT) == (
        3, '{"edges": null, "m": 5, "mode": "compare", "n": 6, '
        '"result": "disagree", "stats": {"case_seconds": {}, "parts": 0, '
        '"subsolver_nodes": 0, "xy_tried": 0}}')


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
    def boom(g, budget=None, xy=None):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "solve", boom)
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT)
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RecursionError" in captured.err


def test_xy_certificate_rejected_by_the_verifier_exits_4(monkeypatch,
                                                         capsys, tmp_path):
    # a certificate the verifier rejects is an internal error under --xy
    # too, never "no d.i.m."
    monkeypatch.setattr(solver, "verify_dim_report",
                        lambda g, cert: (False, "rejected by the test"))
    with pytest.raises(AssertionError, match="rejected by the test"):
        run(RunConfig("solve", xy=(1, 2)), text=P6_TEXT)
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT)
    assert main(["solve", "--xy", "1", "2", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "AssertionError" in captured.err


def test_internal_value_error_exits_4(monkeypatch, capsys, tmp_path):
    # a ValueError raised inside the solver is a defect, not bad input:
    # exit 4 with its traceback, never exit 2 as if the input were bad
    monkeypatch.setattr(coloring.ColoringState, "mate_pairs",
                        lambda self: [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not vertex-disjoint"):
        run(RunConfig("solve"), text=P6_TEXT)
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT)
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "not vertex-disjoint" in captured.err


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1\n0 1\xff\n")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ") and "utf-8" in captured.out
    assert captured.err == ""


def test_out_of_memory_exits_4(monkeypatch, capsys, tmp_path):
    # a MemoryError is an internal error even where printing its
    # traceback would run out of memory too, never exit 1
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run", no_memory)
    monkeypatch.setattr(cli.traceback, "print_exc", no_memory)
    path = tmp_path / "p6.txt"
    path.write_text(P6_TEXT)
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "out of memory" in captured.err


def test_huge_vertex_count_is_an_input_error(tmp_path):
    # under a 400 MB address-space limit the adjacency of 10^8 vertices
    # cannot be allocated: exit 2 naming the count, not an internal error
    resource = pytest.importorskip("resource")
    limit = 400 * 2 ** 20
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n")
    # `-m` puts the working directory, the package's parent, on sys.path
    proc = subprocess.run(
        [sys.executable, "-m", "dimatch", "solve", str(path)],
        capture_output=True, text=True, timeout=60,
        cwd=Path(cli.__file__).resolve().parents[1],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert "vertex count 100000000" in proc.stdout


@pytest.mark.parametrize("cfg, text", [
    (RunConfig("solve"), P6_TEXT),
    (RunConfig("solve"), "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"),
    (RunConfig("solve", xy=(1, 2)), P6_TEXT),
    (RunConfig("solve", fmt="json"), P6_TEXT),
    (RunConfig("solve", strict=True, budget=1),
     emit_graph(build_graph(24, G24B))),
    (RunConfig("oracle"), P6_TEXT),
    (RunConfig("oracle", budget=1), emit_graph(build_graph(24, G24))),
    (RunConfig("compare"), P6_TEXT),
    (RunConfig("check-s115"), P6_TEXT),
    (RunConfig("check-s115"), emit_graph(make_named(S115))),
    (RunConfig("generate", n=30, p=0.1, seed=0, count=2), None),
    (RunConfig("solve"), "3 1\n0 x\n"),
], ids=["solve-found", "solve-none", "solve-xy", "solve-json",
        "solve-strict-violated", "oracle", "oracle-budget", "compare",
        "check-free", "check-witness", "generate", "input-error"])
def test_requests_leave_no_cyclic_garbage(cfg, text):
    # a request frees all it made by reference counting, so the collector
    # that cli.run pauses has nothing to do
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code, out = run(cfg, text)
        left = gc.collect()             # unreachable objects found
    finally:
        if was_on:
            gc.enable()
    assert out and code in (0, 1, 2, 3)
    assert left == 0


def test_run_restores_the_collectors_state(monkeypatch):
    def boom(g, budget=None, xy=None):
        raise RuntimeError("boom")

    was_on = gc.isenabled()
    try:
        gc.enable()
        assert run(RunConfig("solve"), text=P6_TEXT)[0] == 0
        assert gc.isenabled()
        monkeypatch.setattr(cli, "solve", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run(RunConfig("solve"), text=P6_TEXT)
        assert gc.isenabled()
        # a caller that turned the collector off keeps it off
        gc.disable()
        with pytest.raises(RuntimeError, match="boom"):
            run(RunConfig("solve"), text=P6_TEXT)
        monkeypatch.undo()
        assert run(RunConfig("solve"), text=P6_TEXT)[0] == 0
        assert not gc.isenabled()
    finally:
        if was_on:
            gc.enable()
        else:
            gc.disable()
