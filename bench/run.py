"""The repository benchmark: four fig13-scale Spark/Giraph jobs, timed from outside.

Each sample is one batch job in a fresh child process (``child.py``), and
one child runs at a time: a closed loop of one, with no arrival process.
Workloads run round-robin.  The parent prints every end-to-end metric by
name with its unit, median, min/max and sample count, checks the jobs'
simulated results, and writes ``bench/out/results.json``.

From the repository root::

    python bench/run.py [--seed 42] [--runs 5] [--trace]
    python bench/run.py --workload spark-th-pr --seed 7 --seconds 15 --trace 0
    python bench/run.py --compare A.json B.json

``--seconds S`` replaces ``--runs``: each workload runs jobs until their
measured time reaches S.  ``--trace`` adds one traced job per workload
after the untraced ones and reports the per-layer table.  When a single
workload runs, the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from child import WORKLOADS
from layers import LAYERS, SUBLAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: end-to-end metrics: name -> (unit, bound).  Lower is better for all.
#: The bounds are set from measured spread on a shared 2-vCPU host:
#: medians of ten runs moved by 7-35% between sets of runs an hour apart,
#: and Giraph graphs drawn from different seeds differ by about 3% in
#: peak RSS.
END_TO_END = {
    "wall_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mib": ("MiB", 0.10),
}
#: reported beside the end-to-end metrics and compared with bound 0; not
#: a BENCHMARK.json metric because it is 0 on a healthy run
FAIL_FRAC = "fail_frac"

#: modelled counters, read from the untraced jobs: name -> (unit, better)
COUNTERS = {
    "gc.minor_count": ("count", "lower"),
    "gc.major_count": ("count", "lower"),
    "gc.sim_minor_s": ("sim_s", "lower"),
    "gc.sim_major_s": ("sim_s", "lower"),
    "teraheap.h2_bytes_moved": ("bytes", "lower"),
    "teraheap.regions_allocated": ("count", "lower"),
    "teraheap.regions_reclaimed": ("count", "higher"),
    "devices.pc_hits": ("count", "higher"),
    "devices.pc_misses": ("count", "lower"),
    "devices.bytes_read": ("bytes", "lower"),
    "devices.bytes_written": ("bytes", "lower"),
    "serdes.sim_s": ("sim_s", "lower"),
    "serdes.bytes": ("bytes", "lower"),
    "giraph.ooc_offloads": ("count", "lower"),
    "giraph.bytes_offloaded": ("bytes", "lower"),
    "giraph.bytes_reloaded": ("bytes", "lower"),
    "heap.objects_allocated": ("count", "lower"),
}
#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    **{f"{layer}.{sub}_self_s": ("s", "lower") for layer, sub in SUBLAYERS},
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **COUNTERS,
}

#: set-up time samples per workload; jobs give one each, set-up-only
#: children make up the rest, so the reported median is steady
SETUP_SAMPLES = 9
#: a child that takes longer is killed and the benchmark aborts
CHILD_TIMEOUT_S = 170
EXPECTED = BENCH / "expected.json"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion and return its JSON report."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Fixed string hashing, so any set iteration in the simulator is the
    # same in every child and one seed always gives one result.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload}: child exited {proc.returncode}\n{tail}")
    report = json.loads(lines[-1])
    if not report.get("ok", True):
        sys.stderr.write(proc.stderr)
    return report


def collect(workloads: Sequence[str], seed: int, runs: Optional[int],
            seconds: Optional[float], trace: bool) -> Dict[str, dict]:
    """Run every child of one invocation; returns raw reports per workload."""
    raw = {w: {"jobs": [], "setups": [], "traced": None} for w in workloads}

    def done(w: str) -> bool:
        jobs = raw[w]["jobs"]
        if seconds is not None:
            return sum(j["wall_s"] for j in jobs) >= seconds
        return len(jobs) >= runs

    while not all(done(w) for w in workloads):
        for w in workloads:
            if not done(w):
                raw[w]["jobs"].append(run_child(w, seed))
    for w in workloads:
        while len(raw[w]["jobs"]) + len(raw[w]["setups"]) < SETUP_SAMPLES:
            raw[w]["setups"].append(run_child(w, seed, "--setup-only"))
    if trace:
        for w in workloads:
            path = OUT / f"trace-{w}.json"
            raw[w]["traced"] = run_child(w, seed, "--trace-out", str(path))
    return raw


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] of the samples themselves ("inclusive"), so that one
    slow job among five moves a quartile only as far as its neighbour."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def describe(values: Sequence[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "samples": list(values)}


def aggregate(w: str, raw: dict, seed: int, expected: dict) -> dict:
    """Metrics and output check for one workload's reports."""
    jobs, traced = raw["jobs"], raw["traced"]
    ok = [j for j in jobs if j["ok"]]
    digests = {j["digest"] for j in ok}
    problems = [f"job failed: {j['error']}" for j in jobs if not j["ok"]]
    if len(digests) > 1:
        problems.append(f"jobs disagree: {sorted(digests)}")
    digest = min(digests) if digests else None
    if digest and seed == expected.get("seed") and digest != expected["digests"].get(w):
        problems.append(f"digest {digest} != expected {expected['digests'].get(w)}")
    attempted = len(jobs) + (traced is not None)
    failed = len(jobs) - len(ok)
    if traced is not None:
        if not traced["ok"]:
            failed += 1
            problems.append(f"traced job failed: {traced['error']}")
        elif traced["digest"] != digest:
            problems.append(f"traced digest {traced['digest']} != untraced {digest}")
    result = {
        "metrics": {},
        FAIL_FRAC: failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "correct": not problems,
        "problems": problems,
    }
    if ok:
        samples = {
            "wall_s": [j["wall_s"] for j in ok],
            "setup_s": [r["setup_s"] for r in jobs + raw["setups"]],
            "peak_rss_mib": [j["peak_rss_mib"] for j in ok],
        }
        result["metrics"] = {
            k: describe(v, END_TO_END[k][0]) for k, v in samples.items()}
        result["buckets"] = ok[0]["buckets"]
        result["counters"] = ok[0]["counters"]
    if traced is not None and traced["ok"] and ok:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (
            traced["wall_s"] - result["metrics"]["wall_s"]["median"])
        layers.update({k: ok[0]["counters"][k] for k in COUNTERS})
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def format_table(results: Dict[str, dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<13} {'unit':<5} {'median':>10} "
             f"{'min':>10} {'max':>10} {'n':>3}"]
    for w, res in results.items():
        for name, m in res["metrics"].items():
            lines.append(
                f"{w:<16} {name:<13} {m['unit']:<5} {m['median']:>10.4f} "
                f"{m['min']:>10.4f} {m['max']:>10.4f} {m['n']:>3}")
        lines.append(
            f"{w:<16} {FAIL_FRAC:<13} {'':<5} {res[FAIL_FRAC]:>10.4f} "
            f"{'':>10} {'':>10} {res['attempted']:>3}")
    return "\n".join(lines)


def format_layers(results: Dict[str, dict]) -> str:
    traced = {w: r["layers"] for w, r in results.items() if "layers" in r}
    if not traced:
        return ""
    names = list(traced)
    lines = [f"{'per-layer':<28}" + "".join(f"{w:>18}" for w in names)]
    for metric in PER_LAYER:
        cells = []
        for w in names:
            v = traced[w][metric]
            share = ""
            if metric.endswith("self_s"):
                share = f" ({v / traced[w]['trace.wall_s']:5.1%})"
            cells.append(f"{v:.4g}{share}".rjust(18))
        lines.append(f"{metric:<28}" + "".join(cells))
    return "\n".join(lines)


def verdict(a: Sequence[float], b: Sequence[float], bound: float) -> str:
    """Compare samples of B (change) with A (parent); lower is better.

    Unresolved when the quartile spread of either side is wider than the
    bound, unless every B sample beats every A sample.  Worse when B's
    median exceeds A's by more than the bound.  Better when B wins at
    least nine tenths of the index-paired samples and the medians differ
    by more than A's quartile spread.  Otherwise unchanged.
    """
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / ma
    if spread > bound:
        return "better" if max(b) < min(a) else "unresolved"
    if mb > ma * (1 + bound):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(y < x for x, y in pairs)
    if wins >= 0.9 * len(pairs) and ma - mb > qa[2] - qa[0]:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> str:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    lines = [f"{'metric':<13} {'workload':<16} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'bound':>6}  verdict"]
    for name, (_, bound) in END_TO_END.items():
        for w in a:
            if w not in b or name not in a[w]["metrics"] or name not in b[w]["metrics"]:
                continue
            sa, sb = a[w]["metrics"][name], b[w]["metrics"][name]
            lines.append(
                f"{name:<13} {w:<16} "
                f"{sa['median']:>12.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] "
                f"{sb['median']:>12.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] "
                f"{bound:>6.0%}  {verdict(sa['samples'], sb['samples'], bound)}")
    for w in a:
        if w in b:
            fa, fb = a[w][FAIL_FRAC], b[w][FAIL_FRAC]
            v = "worse" if fb > fa else "better" if fb < fa else "unchanged"
            lines.append(f"{FAIL_FRAC:<13} {w:<16} {fa:>30.4f} {fb:>30.4f} "
                         f"{0:>6.0%}  {v}")
    return "\n".join(lines)


def result_line(res: dict, trace: bool) -> dict:
    """The one-line JSON result for one workload."""
    if trace:
        metrics = {k: {"value": res["layers"][k], "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": res["metrics"][k]["median"], "unit": unit}
                   for k, (unit, _) in END_TO_END.items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    amount = parser.add_mutually_exclusive_group()
    amount.add_argument("--runs", type=int, default=5,
                        help="measured jobs per workload (default 5)")
    amount.add_argument("--seconds", type=float,
                        help="measure each workload until its jobs took this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced job per workload")
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results.json files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        print(compare(*args.compare))
        return 0
    if args.runs < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--runs and --seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = tuple(dict.fromkeys(args.workload or WORKLOADS))
    OUT.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    try:
        raw = collect(workloads, args.seed, args.runs, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = {w: aggregate(w, raw[w], args.seed, expected) for w in workloads}

    print(format_table(results))
    if args.trace:
        print(format_layers(results))
    for w, res in results.items():
        status = "ok" if res["correct"] else "FAILED: " + "; ".join(res["problems"])
        print(f"check {w}: digest {res['digest']} {status}")
    args.out.write_text(json.dumps(
        {"seed": args.seed, "workloads": results}, indent=1) + "\n")
    print(f"wrote {args.out}")
    if len(workloads) == 1:
        res = results[workloads[0]]
        if not res["metrics"] or (args.trace and "layers" not in res):
            print("error: no job completed; no metrics to report", file=sys.stderr)
            return 1
        print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
