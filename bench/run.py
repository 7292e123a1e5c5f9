#!/usr/bin/env python3
"""Benchmark of the dimatch solver: closed-loop workloads, one client.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke                 # tiny sizes, checks only
    python3 bench/run.py --baseline [--seed N]   # one row per family/size

Workloads: branch-flood, wide-branch, batch, s115-check (see instances.py).
One operation is one in-process request `dimatch.cli.run(RunConfig(mode,
fmt="json"), text)`: parsing, solving and output, not interpreter start-up.
The next request is sent only after the previous one returns, on one thread.
Every answer is checked outside the timed region; a wrong answer makes the
run exit with code 1.  Times are reported at a nominal host speed, from a
reference workload sampled while they are measured (see refspeed.py).

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it times untraced passes, then traced passes (see spans.py), and reports
per-layer metrics; the spans are written to `.bench_out/`.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import instances
import refspeed
from spans import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


class SetupError(Exception):
    pass


def load_program():
    """Import dimatch from the checkout's own `src/`; returns the cli module
    and the import time at nominal speed."""
    src = ROOT / "src"
    if not (src / "dimatch" / "__init__.py").is_file():
        raise SetupError(f"no dimatch sources under {src}")
    sys.path.insert(0, str(src))
    with refspeed.Sampler() as sampler:
        start = sampler.mark()
        for m in MODULES:
            importlib.import_module(f"dimatch.{m}")
        end = sampler.mark()
    pkg = sys.modules["dimatch"]
    if Path(pkg.__file__).resolve().parent != (src / "dimatch").resolve():
        raise SetupError(f"imported dimatch from {pkg.__file__}, not {src}")
    return sys.modules["dimatch.cli"], sampler.nominal(start, end)


@dataclass
class Case:
    inst: instances.Instance
    text: str
    cfg: object                        # dimatch.cli.RunConfig


def set_up(cli, workload: str, seed: int, smoke: bool):
    """Instances, their texts and request configs, and ground truth."""
    from dimatch.graph import build_graph
    from dimatch.oracle import brute_force_dim
    wl = instances.build(workload, seed, smoke)
    cases = []
    for inst in wl.instances:
        if inst.expect == "oracle":
            exists = brute_force_dim(build_graph(inst.n, inst.edges)).exists
            if exists != checks.has_dim_small(inst.n, inst.edges):
                raise checks.WrongAnswer(f"oracle and enumeration disagree "
                                         f"on {inst.text()!r}")
            inst.expect = "found" if exists else "none"
        cases.append(Case(inst, inst.text(),
                          cli.RunConfig(mode=inst.mode, fmt="json")))
    return wl, cases


class Tally:
    """Answers and latencies of every operation of a run."""

    def __init__(self):
        self.passes: list[list[float]] = []      # latencies at nominal speed
        self.raw: list[list[float]] = []         # latencies as measured
        self.speeds: list[float] = []            # host speed per pass
        self.outputs: list[dict] = []            # parsed, of the last pass
        self.attempted = 0
        self.failed = 0                          # raised an exception
        self.violated = 0                        # hypothesis-violated

    def per_request(self, raw: bool = False) -> list[float]:
        """Each request's median latency over the passes."""
        passes = self.raw if raw else self.passes
        return [statistics.median(col) for col in zip(*passes)]

    def pass_seconds(self, raw: bool = False) -> float:
        """Time to answer every request once, from per-request medians."""
        return sum(self.per_request(raw))


def run_pass(cli, cases, tally: Tally, tracer: Tracer | None = None) -> None:
    """Send every request once, in order, then check every answer."""
    marks, raw = [], []
    with refspeed.Sampler() as sampler:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.current_op = tally.attempted + i
            start = sampler.mark()
            try:
                got = cli.run(case.cfg, case.text)
            except Exception as err:  # a raising request counts as failed
                got = (None, f"{type(err).__name__}: {err}")
            marks.append((start, sampler.mark()))
            raw.append(got)
    parsed = []
    for case, (code, out) in zip(cases, raw):
        tally.attempted += 1
        if code is None:
            tally.failed += 1
            parsed.append({"result": "raised", "detail": out})
            continue
        try:
            result = checks.check_answer(case.inst, code, out)
        except checks.WrongAnswer as err:
            inst = case.inst
            raise checks.WrongAnswer(f"{inst.family} {inst.rung} n={inst.n} "
                                     f"m={inst.m}: {err}") from None
        tally.violated += result == "hypothesis-violated"
        parsed.append(json.loads(out))
    tally.passes.append([sampler.nominal(a, b) for a, b in marks])
    tally.raw.append([sampler.measured(a, b) for a, b in marks])
    tally.speeds.append(sampler.speed())
    tally.outputs = parsed


def measure(cli, cases, seconds: float, tracer: Tracer | None = None
            ) -> Tally:
    """Closed loop over whole passes, started until `seconds` have passed
    (at least one)."""
    tally = Tally()
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        run_pass(cli, cases, tally, tracer)
        if perf_counter() >= deadline:
            return tally


# -- end-to-end metrics -----------------------------------------------------

def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def slope(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def growth(wl, tally: Tally) -> tuple[float, dict]:
    """Largest per-family slope over the family's ladder rungs; per rung,
    the median n against the median of its requests' latencies."""
    slopes = {}
    lat = tally.per_request()
    for fam in wl.growth_families:
        rungs: dict[str, tuple[list, list]] = {}
        for i, inst in enumerate(wl.instances):
            if inst.family != fam:
                continue
            ns, ts = rungs.setdefault(inst.rung, ([], []))
            ns.append(inst.n)
            ts.append(lat[i])
        slopes[fam] = slope([(statistics.median(ns), statistics.median(ts))
                             for ns, ts in rungs.values()])
    return max(slopes.values()), slopes


def end_to_end(wl, tally: Tally, setup_s: float):
    lat = sorted(tally.per_request())
    pass_s = tally.pass_seconds()
    exp, per_family = growth(wl, tally)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "growth_exp": (exp, "log/log"),
        "solve_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "solve_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "graphs_per_s": (len(wl.instances) / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "pass_s": f"sum of per-request medians over {len(tally.passes)} "
                  f"passes of {len(wl.instances)} requests; as measured "
                  f"{tally.pass_seconds(raw=True):.4g} s at host speed "
                  f"{statistics.median(tally.speeds):.3f} of nominal",
        "growth_exp": ", ".join(f"{f} {s:.3f}" for f, s in per_family.items()),
        "solve_p50_ms": f"{len(lat)} requests, each the median of "
                        f"{len(tally.passes)} passes",
        "solve_p99_ms": f"{len(lat)} requests, "
                        f"{len(lat) - math.ceil(0.99 * len(lat))} beyond",
    }
    return metrics, notes


# -- per-layer metrics ----------------------------------------------------

# metric -> (statistic, span name); per traced pass
SPAN_METRICS = {
    "coloring.propagate_s": ("self", "coloring.propagate"),
    "coloring.propagate_calls": ("calls", "coloring.propagate"),
    "coloring.clones": ("calls", "coloring.ColoringState.clone"),
    "coloring.preprocess_self_s": ("self", "coloring.preprocess"),
    "coloring.edge_reductions": ("calls", "coloring.edge_reduction"),
    "levels.decompose_self_s": ("self", "levels.decompose"),
    "levels.decompose_calls": ("calls", "levels.decompose"),
    "levels.normalize_self_s": ("self", "levels.normalize"),
    "graph.levels_s": ("total", "graph.distance_levels"),
    "graph.build_s": ("total", "graph.build_graph"),
    "graph.components_s": ("total", "graph.connected_components"),
    "graph.verify_s": ("total", "graph.verify_dim_report"),
    "patterns.k4_s": ("total", "patterns.find_induced[K4]"),
    "patterns.diamond_s": ("total", "patterns.find_induced[Diamond]"),
    "patterns.butterfly_s": ("total", "patterns.find_induced[Butterfly]"),
    "patterns.s115_s": ("total", "patterns.find_induced[S115]"),
    "solver.solve_self_s": ("self", "solver.solve"),
    "solver.subsolver_s": ("total", "solver.constrained_subsolver"),
    "solver.subsolver_calls": ("calls", "solver.constrained_subsolver"),
    "treedp.complete_s": ("total", "treedp.complete_on_subset"),
    "treedp.calls": ("calls", "treedp.complete_on_subset"),
    "cli.parse_s": ("total", "cli.parse_graph"),
    "cli.run_self_s": ("self", "cli.run"),
}
CASES = ("n4-empty", "n2-small", "n2-large")


def per_layer(wl, untraced: Tally, traced: Tally, tracer: Tracer):
    passes = len(traced.passes)
    # span times at nominal speed: each request's spans are scaled like
    # its latency (operation ids count the traced requests in order)
    rows = tracer.totals([nominal / measured
                          for p, r in zip(traced.passes, traced.raw)
                          for nominal, measured in zip(p, r)])
    stat_col = {"calls": 0, "total": 1, "self": 2}
    metrics = {}
    for name, (stat, span) in SPAN_METRICS.items():
        row = rows.get(span, [0, 0.0, 0.0, 0])
        unit = "count" if stat == "calls" else "s"
        metrics[name] = (row[stat_col[stat]] / passes, unit)
    scans = sum(r[0] for s, r in rows.items()
                if s.startswith("patterns.find_induced["))
    metrics["patterns.scans"] = (scans / passes, "count")
    norm = rows.get("levels.normalize", [0, 0.0, 0.0, 0])
    metrics["levels.normalize_kept"] = (norm[3] / norm[0] if norm[0] else 0.0,
                                        "ratio")

    # solver statistics of one traced pass (answers repeat every pass)
    xy = found_after_branching = edges = 0
    case_s = dict.fromkeys(CASES, 0.0)
    for inst, out in zip(wl.instances, traced.outputs):
        stats = out.get("stats") or {}
        if inst.mode != "solve" or "xy_tried" not in stats:
            continue
        xy += stats["xy_tried"]
        edges += inst.m
        if out["result"] == "found" and stats["xy_tried"] > 0:
            found_after_branching += 1
        for case, sec in stats["case_seconds"].items():
            case_s[case] = case_s.get(case, 0.0) + sec
    metrics["solver.xy_tried"] = (xy, "count")
    metrics["solver.xy_per_edge"] = (xy / edges if edges else 0.0, "1/edge")
    metrics["solver.branch_yield"] = (
        found_after_branching / xy if xy else 0.0, "ratio")
    for case in CASES:
        metrics[f"solver.case_s.{case}"] = (case_s[case], "s")
    plain = untraced.pass_seconds()
    metrics["trace.overhead_share"] = ((traced.pass_seconds() - plain) / plain,
                                       "ratio")
    both = untraced.attempted + traced.attempted
    metrics["fail_share"] = ((untraced.failed + untraced.violated
                              + traced.failed + traced.violated) / both,
                             "ratio")
    return metrics


# -- reporting --------------------------------------------------------------

def report(metrics: dict, notes: dict, attempted: int, failed: int) -> None:
    """Every metric by name and unit, then the result line.  Wrong answers
    stop the run before this point, so a reported run is correct."""
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def fail_line(tally: Tally) -> str:
    share = (tally.failed + tally.violated) / tally.attempted
    return (f"fail_share {share:.6f} ({tally.violated} hypothesis-violated, "
            f"{tally.failed} raised, {tally.attempted} attempted)")


def run_workload(args) -> int:
    cli, import_s = load_program()
    marks = []
    with refspeed.Sampler() as sampler:
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            start = sampler.mark()
            wl, cases = set_up(cli, args.workload, args.seed, smoke=False)
            marks.append((start, sampler.mark()))
    setup_s = import_s + statistics.median(sampler.nominal(a, b)
                                           for a, b in marks)
    print(f"workload {wl.name} seed {args.seed}: {len(cases)} requests, "
          f"instance digest {wl.digest()}; closed loop, one client")

    if not args.trace:
        tally = measure(cli, cases, args.seconds)
        metrics, notes = end_to_end(wl, tally, setup_s)
        print(fail_line(tally))
        report(metrics, notes, tally.attempted, tally.failed)
        return 0

    untraced = measure(cli, cases, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(cli, cases, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(wl, untraced, traced, tracer)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-{args.seed}.tsv.gz"
    tracer.write(str(spans_path))
    print(f"{len(tracer.start)} spans over {len(traced.passes)} traced "
          f"passes written to {spans_path.relative_to(ROOT)}")
    print(fail_line(traced))
    report(metrics, {}, untraced.attempted + traced.attempted,
           untraced.failed + traced.failed)
    return 0


# -- smoke and baseline modes ------------------------------------------------

def run_smoke(args) -> int:
    """Every workload at tiny sizes, untraced and traced, fully checked."""
    cli, import_s = load_program()
    for name in instances.WORKLOADS:
        wl, cases = set_up(cli, name, args.seed, smoke=True)
        plain = measure(cli, cases, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, cases, 0.0, tracer)
        finally:
            tracer.uninstall()
        e2e, _ = end_to_end(wl, plain, import_s)
        layers = per_layer(wl, plain, traced, tracer)
        print(f"smoke {name}: {len(cases)} requests checked, "
              f"{len(e2e)} end-to-end and {len(layers)} per-layer metrics, "
              f"{fail_line(plain)}")
    return 0


EXCLUDED = (
    ("acceptance criterion 1 (all graphs on <= 6 vertices, connected on 7)",
     "138 s"),
    ("out-of-class n2-small family (triangles off a block vertex), n=45/51/57",
     "exponential until constrained_subsolver gets a budget"),
    ("find_induced(S115) on K_{30,30} and K_{40,40}", "18.5 s and 87 s"),
    ("cycles C_3001 and C_10000 without a d.i.m.",
     "21 s and 200 s; branch-flood runs the 101/302/1001 ladder"),
)


def run_baseline(args) -> int:
    """One row per workload family and size, each instance answered once;
    seconds as measured, with the host speed the passes ran at."""
    cli, _ = load_program()
    speeds = []
    print(f"{'workload':12s} {'family':9s} {'size':>7s} {'count':>5s} "
          f"{'n':>6s} {'m':>6s} {'answers':28s} {'xy_tried':>8s} "
          f"{'seconds':>9s}")
    for name in instances.WORKLOADS:
        wl, cases = set_up(cli, name, args.seed, smoke=False)
        tally = measure(cli, cases, 0.0)
        speeds += tally.speeds
        groups: dict[tuple[str, str], list[int]] = {}
        for i, inst in enumerate(wl.instances):
            groups.setdefault((inst.family, inst.rung), []).append(i)
        for (fam, rung), idx in groups.items():
            outs = [tally.outputs[i] for i in idx]
            answers: dict[str, int] = {}
            for o in outs:
                answers[o["result"]] = answers.get(o["result"], 0) + 1
            xy = sum((o.get("stats") or {}).get("xy_tried", 0) for o in outs)
            ns = [wl.instances[i].n for i in idx]
            ms = [wl.instances[i].m for i in idx]
            ans = " ".join(f"{k}:{v}" for k, v in sorted(answers.items()))
            print(f"{name:12s} {fam:9s} {rung:>7s} {len(idx):5d} "
                  f"{int(statistics.median(ns)):6d} "
                  f"{int(statistics.median(ms)):6d} {ans:28s} {xy:8d} "
                  f"{sum(tally.raw[0][i] for i in idx):9.3f}")
    print(f"host speed {min(speeds):.3f} to {max(speeds):.3f} of nominal "
          f"(reference {refspeed.NOMINAL_S * 1e3:.2f} ms)")
    print("excluded (too slow to rerun on every benchmark run):")
    for what, why in EXCLUDED:
        print(f"  {what}: {why}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="run every workload at tiny sizes and check it")
    mode.add_argument("--baseline", action="store_true",
                      help="print one row per family and size")
    args = ap.parse_args(argv)
    if not (args.smoke or args.baseline or args.workload):
        ap.error("one of --workload, --smoke or --baseline is required")
    try:
        if args.smoke:
            return run_smoke(args)
        if args.baseline:
            return run_baseline(args)
        return run_workload(args)
    except SetupError as err:
        print(f"setup failed: {err}", file=sys.stderr)
        return 2
    except checks.WrongAnswer as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
