"""Benchmark of skewpoly: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.
A run measures set-up time first: a fresh process imports skewpoly.cli,
several times over the run, and the median counts.  It then runs
rounds of the workload while the time spent in rounds stays within
--seconds (at least one round).  Each round is a fresh process, so the
program's caches start cold, and runs the same operations; their
outputs are checked here, outside the measured time.

The seed fixes the order of the operations in each round; the
operations themselves do not depend on it.

With --trace 0 the run reports the end-to-end metrics of the untraced
rounds.  With --trace 1 it runs pairs of rounds, one untraced and one
traced, and reports the per-layer metrics of the traced rounds and
the tracing overhead.  The last line of standard output is one JSON
object; a results file with the machine, the seed and every round goes
to perfbench/results/.  The exit code is 1 when an operation fails
(raises, exits non-zero or fails its check) and 2 when a round cannot
run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PROBES_PER_PASS = 3
MIN_PROBES = 9
# Leaves room under the three minutes a run may take.
RUN_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class RoundError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(argv: list[str], stdin: str | None, timeout: float) -> str:
    """Run a child process to its end and return its standard output."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(stdin, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError(f"a child process ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundError(f"a child process exited with {proc.returncode}:"
                         f" {err.strip()[-500:]}")
    return out


def setup_probe(timeout: float) -> float:
    code = ("import sys, time\nstart = time.perf_counter()\nimport skewpoly.cli\n"
            "sys.stdout.write(repr(time.perf_counter() - start))")
    return float(_child(["-c", code], None, timeout))


def run_round(ops: list[dict], trace: bool, spans: Path | None, timeout: float) -> dict:
    job = {"ops": ops, "trace": trace, "spans": str(spans) if spans else None}
    lines = _child([str(HERE / "worker.py")], json.dumps(job), timeout).splitlines()
    summary = json.loads(lines[-1])
    summary["results"] = [json.loads(line) for line in lines[:-1]]
    return summary


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def zero_predictions(workload: str, layers: dict) -> dict:
    """Per-layer figures that must read 0 on a workload that does not
    reach the layer; a break means the trace is wired wrong."""
    want = {}
    if workload != "paper-pairs":
        want["polynomials.G_calls"] = layers["polynomials.G_calls"]
    if workload != "two-entry":
        want["tableaux.enumerate_s"] = layers["tableaux.enumerate_s"]
        want["tableaux.fillings"] = layers["tableaux.fillings"]
    else:
        for name in ("g", "G", "s", "equal"):
            want[f"polynomials.{name}_calls"] = layers[f"polynomials.{name}_calls"]
    if workload != "ribbon-law":
        want["ribbons.factor_calls"] = layers["ribbons.factor_calls"]
        want["ribbons.expand_terms"] = layers["ribbons.expand_terms"]
    return {name: value == 0 for name, value in want.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "skewpoly" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'skewpoly'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ops = workload.ops()
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"

    def time_left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    rounds, messages = [], []
    attempted = failed = 0
    try:
        setup_probe(time_left())  # writes the bytecode caches
        setups = []
        kinds = [False, True] if args.trace else [False]
        while True:
            # Probes spread over the run see the same machine as the rounds.
            setups += [setup_probe(time_left()) for _ in range(PROBES_PER_PASS)]
            for traced in kinds:
                # Each round runs the operations in its own order, drawn
                # from the seed, so no operation always runs first.
                order = list(range(len(ops)))
                random.Random(f"{args.seed}:{len(rounds)}").shuffle(order)
                begin = time.monotonic()
                summary = run_round([ops[i] for i in order], traced,
                                    spans if traced else None, time_left())
                round_s = time.monotonic() - begin
                results = [None] * len(ops)
                for i, result in zip(order, summary.pop("results")):
                    results[i] = result
                bad, msgs = workload.check(ops, results)
                errors = {i for i, r in enumerate(results) if r["error"] is not None}
                messages += msgs + [results[i]["error"] for i in sorted(errors)]
                summary.update(
                    traced=traced, ops=len(ops), failed=len(bad | errors),
                    latencies_ms=[r["s"] * 1000 for r in results],
                    round_s=round_s)
                attempted += len(ops)
                failed += len(bad | errors)
                rounds.append(summary)
            # The checks do not count against --seconds: their reference
            # values are computed once, during the first round's check.
            elapsed = sum(r["round_s"] for r in rounds)
            per_pass = elapsed / (len(rounds) // len(kinds))
            if elapsed + per_pass > args.seconds or 1.5 * per_pass > time_left():
                break
        while len(setups) < MIN_PROBES:
            setups.append(setup_probe(time_left()))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def figures_from(kind: bool) -> list[dict]:
        # A failed operation can end early and look fast, so rounds with
        # one are left out of the figures, unless every round has one.
        of_kind = [r for r in rounds if r["traced"] == kind]
        return [r for r in of_kind if r["failed"] == 0] or of_kind

    plain, traced = figures_from(False), figures_from(True)
    # Every round runs the same operations: take each operation's median
    # over the rounds, then the percentiles over the operations.
    latencies = [statistics.median(op) for op in zip(*(r["latencies_ms"] for r in plain))]
    wall = statistics.median(r["wall_s"] for r in plain)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in end_to_end.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "nproc": os.cpu_count(),
              "python": sys.version.split()[0], "platform": platform.platform(),
              "end_to_end": end_to_end, "setup_probes_s": setups}
    if traced:
        layers = {}
        for name, first in traced[0]["layers"].items():
            # Counts repeat from round to round; keep them whole numbers.
            pick = statistics.median_low if isinstance(first, int) else statistics.median
            layers[name] = pick(r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        record["per_layer"] = layers
        record["zero_predictions"] = zero_predictions(args.workload, layers)
        record["spans_file"] = str(spans.relative_to(ROOT))
        for name, holds in record["zero_predictions"].items():
            if not holds:
                print(f"zero prediction broken: {name} is not 0 on {args.workload}")
    correct = failed == 0
    record.update(attempted=attempted, failed=failed, correct=correct,
                  check_messages=messages[:50], rounds=rounds)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: {len(rounds)} rounds ({len(plain)} untraced and"
          f" {len(traced)} traced in the figures),"
          f" {attempted} operations attempted, {failed} failed,"
          f" {'all correct' if correct else 'FAILED'}")
    for message in messages[:10]:
        print(f"  {message}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "cli.bytes" else "count"


if __name__ == "__main__":
    sys.exit(main())
