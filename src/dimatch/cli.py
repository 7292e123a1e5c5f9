"""Command line front end.

Graph format: a header line `n m`, then m lines `u v` of 0-based ids,
separated by whitespace; lines blank or starting with `#` (after blanks)
are skipped.  A plain text, the form `emit_graph` writes, is decoded in
bulk; every other spelling takes the general path, to the same graph and
the same errors.  Each mode but `generate` gives one answer, which `run`
alone renders: as text, or under `--format json` as one object with the
keys mode, n, m, result, edges, stats and, when there is one, detail.
`--strict` acts on text output only.  Exit codes: 0 found / check passed
/ agree, 1 no d.i.m., 2 input error (a `GraphInputError`, for input the
program rejects, or a file that is not UTF-8) or oracle budget exceeded,
3 hypothesis violated or disagreement, 4 internal error (any other
exception escaped, a `ValueError` too; its traceback goes to stderr, or,
out of memory, only the line `dimatch: out of memory`).
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
import traceback
from dataclasses import dataclass

from .graph import Graph, GraphInputError, _from_ends, verify_dim
from .oracle import DEFAULT_BUDGET, BudgetExceeded, brute_force_dim
from .patterns import S115, find_induced, random_s115_free
from .solver import FOUND, HYPOTHESIS_VIOLATED, NODES_PER_VERTEX, NONE, solve

EXIT_OK, EXIT_NONE, EXIT_INPUT, EXIT_UNKNOWN, EXIT_INTERNAL = 0, 1, 2, 3, 4


@dataclass
class RunConfig:
    mode: str                      # solve | oracle | compare | check-s115 | generate
    path: str | None = None
    strict: bool = False
    fmt: str = "text"              # text | json
    xy: tuple[int, int] | None = None
    n: int = 0
    p: float = 0.0
    seed: int = 0
    count: int = 1
    budget: int | None = None


def parse_graph(text: str, source: str = "<input>") -> Graph:
    """Parse the edge-list format; an error names the source and, for a
    bad line, its line number.  A leading byte-order mark is dropped.

    A plain text, the form `emit_graph` writes, is read in bulk by
    `_plain_ints`; any other spelling takes the general path, which
    filters comments and checks each line's shape.  Both hand the same
    ints to the same checks, so they give the same graph and errors."""
    text = text.removeprefix("\ufeff")
    vals = _plain_ints(text)
    if vals is None:
        data = text
        if "#" in text:             # comment lines hold no data
            data = "\n".join(ln for ln in text.splitlines()
                             if not ln.lstrip().startswith("#"))
        two_per_line = {0, 2}.issuperset(
            map(len, map(str.split, data.splitlines())))
        try:
            vals = list(map(int, data.split())) if two_per_line else []
        except ValueError:
            vals = []
    if not vals or 2 * vals[1] != len(vals) - 2:
        raise _first_bad_line(text, source)
    try:
        return _from_ends(vals[0], vals[2::2], vals[3::2])
    except GraphInputError as err:
        raise GraphInputError(f"{source}: {err}") from None


_TWO_SPACES = re.compile(" [^ \n]* ")     # a line with two spaces or more


def _plain_ints(text: str) -> list[int] | None:
    """The ints of a plain text, or None when the text is not plain.

    Plain: every line is two tokens `-?(0|[1-9][0-9]*)` joined by one
    space and ended by `\n` (the last one may be missing), with blank
    lines allowed only at the end.  Any such text has one space per line
    and holds no other blank, so its spaces and newlines become commas
    and one JSON decode reads every int in C; JSON reads these tokens as
    `int()` does.  A JSON number of another spelling (`1e2`, `NaN`) or
    another value (`true`, a string, a list) is not an int, and a comma
    or a split token leaves the count of values off, so the text is
    declined, as is a token nested too deep for the decoder.  `\r` is
    excluded because JSON reads it as a blank while `splitlines` ends a
    line there.  A `\t` is a blank to both, so a text with one reads the
    same ints either way.  `#` is excluded before the decode: a commented
    text, the most common spelling that is not plain, can pass the space
    count (`# c`), and the decode would only fail on it."""
    body = text.rstrip("\n")
    lines = body.count("\n") + 1
    if body.count(" ") != lines or "#" in body or "\r" in body \
            or _TWO_SPACES.search(body):
        return None
    try:
        vals = json.loads(
            "[" + body.replace(" ", ",").replace("\n", ",") + "]")
    except (ValueError, RecursionError):    # not JSON, an int over the
        return None                         # digit limit, or `[[[...`
    if len(vals) != 2 * lines or not {int}.issuperset(map(type, vals)):
        return None
    return vals


def _first_bad_line(text: str, source: str) -> GraphInputError:
    m, k = None, -1                 # the header's edge count, pair lines
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _, b = map(int, line.split())
        except ValueError:
            return GraphInputError(
                f"{source}:{ln}: expected two integers, got {line!r}")
        m = b if m is None else m
        k += 1
    if m is None:
        return GraphInputError(f"{source}: empty input")
    return GraphInputError(f"{source}: header announces {m} edges, found {k}")


def emit_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for (u, v) in g.edges)
    return "\n".join(lines) + "\n"


_ENCODE = json.JSONEncoder(sort_keys=True).encode    # json.dumps's output


def _structured(mode: str, g: Graph, result: str, edges, stats: dict,
                detail: str) -> str:
    obj = {"mode": mode, "n": g.n, "m": g.m, "result": result,
           "edges": sorted(edges) if edges is not None else None,
           "stats": stats}
    if detail:
        obj["detail"] = detail
    return _ENCODE(obj)


# Each mode answers (exit code, result, text, edges, stats, detail); a
# None text is the `DIM k` lines of the edges, which `run` builds only
# for the text format.
def _run_solve(cfg: RunConfig, g: Graph) -> tuple:
    outcome = solve(g, cfg.budget, cfg.xy)
    # case_seconds is read by bench/run.py's per-layer pass
    stats = {**vars(outcome.stats), "case_seconds": {}}
    detail = outcome.detail
    if outcome.status == FOUND:
        return EXIT_OK, "found", None, outcome.certificate.edges, stats, ""
    if outcome.status == NONE:
        text = "NONE" + (f" ({detail})" if detail else "")
        return EXIT_NONE, "none", text, None, stats, detail
    text = "UNKNOWN (hypothesis violated)"
    if cfg.strict and cfg.fmt != "json":    # the witness search runs only here
        witness = find_induced(g, S115)
        text += (f"\nwitness: {' '.join(map(str, witness.vertices))}"
                 if witness is not None else
                 "\nin class: the graph has no induced S_{1,1,5}, so this "
                 "answer is a solver defect")
    return EXIT_UNKNOWN, "hypothesis-violated", text, None, stats, detail


def _run_oracle(cfg: RunConfig, g: Graph) -> tuple:
    report = brute_force_dim(
        g, DEFAULT_BUDGET if cfg.budget is None else cfg.budget)
    if report.exists:
        return EXIT_OK, "found", None, report.witness.edges, {}, ""
    return EXIT_NONE, "none", "NONE", None, {}, ""


def _run_compare(cfg: RunConfig, g: Graph) -> tuple:
    outcome = solve(g)
    report = brute_force_dim(
        g, DEFAULT_BUDGET if cfg.budget is None else cfg.budget)
    stats = {**vars(outcome.stats), "case_seconds": {}}
    says = "DIM" if report.exists else "NONE"
    if outcome.status == HYPOTHESIS_VIOLATED:
        return (EXIT_UNKNOWN, "unknown",
                f"UNKNOWN (hypothesis violated); oracle says {says}",
                None, stats, outcome.detail)
    agree = (outcome.status == FOUND) == report.exists
    solver_cert_ok = outcome.status != FOUND or \
        verify_dim(g, outcome.certificate)
    if agree and solver_cert_ok:
        return EXIT_OK, "agree", f"AGREE {says}", None, stats, ""
    lines = ["DISAGREE",
             f"solver: {outcome.status} {outcome.detail}".rstrip(),
             f"oracle: {'found' if report.exists else 'none'}"]
    if report.witness is not None:
        lines.append("oracle witness: " + " ".join(
            f"{a}-{b}" for (a, b) in report.witness.sorted_edges()))
    return EXIT_UNKNOWN, "disagree", "\n".join(lines), None, stats, ""


def _run_check(cfg: RunConfig, g: Graph) -> tuple:
    w = find_induced(g, S115)
    if w is None:
        return EXIT_OK, "s115-free", "S115-FREE", None, {}, ""
    verts = " ".join(map(str, w.vertices))
    return EXIT_UNKNOWN, "witness", f"S115 WITNESS {verts}", None, {}, verts


_MODES = {"solve": _run_solve, "oracle": _run_oracle,
          "compare": _run_compare, "check-s115": _run_check}


def _run_generate(cfg: RunConfig) -> tuple[int, str]:
    chunks = []
    for i in range(cfg.count):
        g = random_s115_free(cfg.n, cfg.p, cfg.seed + i)
        chunks.append(emit_graph(g))
    return EXIT_OK, "\n".join(chunks).rstrip("\n")


def run(cfg: RunConfig, text: str | None = None) -> tuple[int, str]:
    """Execute one mode; returns (exit code, output text), the mode's
    answer rendered as JSON or as text.

    No request leaves a reference cycle, so automatic garbage collection
    is paused for the call: a collection could free nothing.  It is
    turned back on afterwards, even when an exception escapes, only if it
    was on when the call started."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        if cfg.mode == "generate":
            return _run_generate(cfg)
        source = "<memory>"
        if text is None and cfg.path in (None, "-"):
            text, source = sys.stdin.read(), "<stdin>"
        elif text is None:
            try:
                with open(cfg.path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                return EXIT_INPUT, f"error: {err}"
            source = cfg.path
        g = parse_graph(text, source)
        answer = _MODES.get(cfg.mode)
        if answer is None:
            return EXIT_INPUT, f"error: unknown mode {cfg.mode!r}"
        code, result, out, edges, stats, detail = answer(cfg, g)
        if cfg.fmt == "json":
            return code, _structured(cfg.mode, g, result, edges, stats,
                                     detail)
        if out is None:
            out = "\n".join([f"DIM {len(edges)}"]
                            + [f"{a} {b}" for (a, b) in sorted(edges)])
        return code, out
    except (GraphInputError, UnicodeDecodeError) as err:
        return EXIT_INPUT, f"error: {err}"
    except BudgetExceeded as err:
        return EXIT_INPUT, f"BUDGET EXCEEDED ({err})"
    finally:
        if collecting:
            gc.enable()


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dimatch",
        description="dominating induced matching solver and oracle")
    sub = ap.add_subparsers(dest="mode", required=True)

    def add_common(p, budget=True):
        p.add_argument("path", nargs="?", default="-", metavar="input",
                       help="graph file, or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=None,
                           help="node budget, a positive integer (default: "
                                f"{DEFAULT_BUDGET}, solve "
                                f"{NODES_PER_VERTEX}/vertex)")

    p = sub.add_parser("solve", help="run the structural solver")
    add_common(p)
    p.add_argument("--strict", action="store_true",
                   help="report hypothesis violations with a witness")
    p.add_argument("--xy", nargs=2, type=int, metavar=("U", "V"),
                   help="solve under the assumption that edge UV is matched")

    p = sub.add_parser("oracle", help="run the exact brute-force oracle")
    add_common(p)

    p = sub.add_parser("compare", help="run solver and oracle, compare")
    add_common(p)

    p = sub.add_parser("check-s115", help="search for an induced S_{1,1,5}")
    add_common(p, budget=False)

    p = sub.add_parser("generate", help="emit random S_{1,1,5}-free graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    return ap


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    if args.get("xy"):
        args["xy"] = tuple(args["xy"])
    cfg = RunConfig(**args)
    try:
        code, out = run(cfg)
    except MemoryError:             # printing a traceback needs memory too
        sys.stderr.write("dimatch: out of memory\n")
        return EXIT_INTERNAL
    except Exception:               # never mistaken for "no d.i.m."
        traceback.print_exc()
        return EXIT_INTERNAL
    if out:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
