"""Benchmark of the spindyn CLI subcommands, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed under ``.perfbench_work/``; then whole rounds of CLI invocations,
each in a fresh interpreter, run for as many rounds as fit in ``--seconds``
(at least one).  With
``--trace 0`` a round is one untraced invocation and the end-to-end metrics
are medians over the run.  With ``--trace 1`` a round is one untraced and
one traced invocation; the per-layer metrics are medians over the traced
ones and ``trace.overhead_s`` is the difference of the two median wall
times.  The first invocation's outputs are checked in full against
independent computations (``checks.py``); every later one must reproduce
its manifest byte for byte.  The last line of standard output is the JSON
result.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
INVOCATION_TIMEOUT_S = 120
THREADS = {"simulate_poisson": 2}


def invoke(cli_args, trace: bool, out: Path, result: Path) -> dict:
    """One CLI invocation in a fresh interpreter; returns its timings."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result), "1" if trace else "0", *cli_args,
             "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"no exit within {INVOCATION_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"ok": False, "why": f"child exit {proc.returncode}: {proc.stderr[-500:]}"}
    rec = json.loads(result.read_text())
    result.unlink()
    if rec["code"] != 0 or rec["entry"] is None:
        return {"ok": False, "why": f"spindyn exit {rec['code']}: {proc.stderr[-500:]}"}
    return {"ok": True, "setup_s": rec["entry"] - start, "wall_s": rec["exit"] - rec["entry"],
            "peak_rss_mb": rec["peak_rss_mb"], "spans": rec.get("spans")}


def out_mib(out: Path) -> float:
    return sum(p.stat().st_size for p in out.iterdir()) / 2 ** 20


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{time.time_ns()}"
    try:
        config = inputs.generate(workload, seed, work / "inputs")
        subcommand = workload.split("_")[0]
        cli_args = [subcommand, str(config), "--threads", str(THREADS.get(workload, 1))]
        # Compile and cache the sources once, untimed: users do not pay for
        # that on every run.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import spindyn.cli"], cwd=ROOT, check=True, timeout=120)

        plain, traced, problems = [], [], []
        attempted = failed = 0
        reference = reference_out = None
        started = time.perf_counter()
        rounds = 0
        while True:
            rounds += 1
            for is_traced in ((False, True) if trace else (False,)):
                out = work / f"out-{attempted}"
                attempted += 1
                rec = invoke(cli_args, is_traced, out, work / "result.json")
                if not rec["ok"]:
                    failed += 1
                    print(f"{workload}: invocation {attempted} failed: {rec['why']}",
                          file=sys.stderr)
                    shutil.rmtree(out, ignore_errors=True)
                    continue
                (traced if is_traced else plain).append(rec)
                rec["out_mb"] = out_mib(out)
                manifest = (out / "manifest.json").read_text()
                if reference is None:
                    reference, reference_out = manifest, out
                    continue
                if manifest != reference:
                    problems.append(f"invocation {attempted} did not reproduce the outputs")
                problems += checks.manifest(out)
                shutil.rmtree(out)
            # Stop before a round that would likely end after --seconds.
            elapsed = time.perf_counter() - started
            if elapsed * (rounds + 1) / rounds > seconds:
                break
        if reference_out is not None:
            try:
                problems += checks.check(subcommand, config, reference_out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                problems.append(f"outputs could not be checked: {e!r}")
        for p in problems:
            print(f"{workload}: CHECK FAILED: {p}", file=sys.stderr)
        if not plain or (trace and not traced):
            raise RuntimeError(f"{workload}: no invocation succeeded")

        metrics = {}
        if trace:
            per_run = [tracing.layer_metrics(r["spans"]) for r in traced]
            for name, _span, _kind, unit, _better in tracing.METRICS:
                metrics[name] = {"value": statistics.median(m[name] for m in per_run),
                                 "unit": unit}
            metrics[tracing.OUT_MB[0]] = {
                "value": statistics.median(r["out_mb"] for r in plain), "unit": tracing.OUT_MB[1]}
            metrics[tracing.OVERHEAD[0]] = {
                "value": statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain),
                "unit": tracing.OVERHEAD[1]}
        else:
            for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")):
                metrics[name] = {"value": statistics.median(r[name] for r in plain),
                                 "unit": unit}
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "spindyn" / "cli.py").is_file():
        print(f"run.py: no spindyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
