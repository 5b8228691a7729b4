"""Seeded benchmark of cappedkc.evaluate(), end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lp_scale --seed 1 --seconds 20 --trace 0

One caller makes one evaluate() call at a time in this process (a closed
loop), so peak RSS is this workload's own. Calls repeat while another one
fits in --seconds; at least one call is made. Every call's output is checked.
Set-up (imports plus input generation) is timed here and in four extra
processes that only set up; setup_s is the median of the five.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates an untraced and a traced call, and prints the per-layer
metrics of the traced calls plus the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The full record of the run (environment, set-up samples,
outputs, LP rungs, spans) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads, here and in the set-up probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4  # extra processes that only set up; with this one, setup_s is a median of 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cost_vs_greedy": "ratio",
    "worst_cap_ratio": "ratio",
    "ok_frac": "share",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the library and generate the inputs; returns (inputs, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    return inputs, time.perf_counter() - t0


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "thread_pins": dict(THREAD_PINS),
    }


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[pct - 1]
            return f"p{pct} {value:.4f} s"
    return "no tail percentile: fewer than 10 calls beyond p90"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cappedkc" / "__init__.py").is_file():
        print(f"error: no cappedkc sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    inputs, own_setup = set_up(args.workload, args.seed)
    setup_samples.append(own_setup)

    import cappedkc
    import spans
    import workloads

    if not Path(cappedkc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cappedkc from {cappedkc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": inputs.inst.n,
        "config": {"k": inputs.cfg.k, "alpha": inputs.cfg.alpha, "algorithm": inputs.cfg.algorithm},
        "environment": environment(),
        "setup_s_samples": setup_samples,
    }
    problems: list[str] = []

    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    outputs: list[dict] = []
    failed = 0

    def one_call(trace: bool) -> float:
        nonlocal failed
        run_id = f"{args.workload}/seed{args.seed}/call{len(untraced) + len(traced)}"
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if trace:
                with tracer.call(run_id):
                    report = cappedkc.evaluate(inputs.inst, inputs.cfg)
            else:
                report = cappedkc.evaluate(inputs.inst, inputs.cfg)
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            found, got = workloads.check_report(inputs, report)
        except Exception:  # a failing call is counted and recorded, the run goes on
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            report, got, found = None, None, ["raised: " + traceback.format_exc(limit=3)]
        failed += bool(found)
        problems.extend(f"{run_id}: {p}" for p in found)
        outputs.append({
            "run": run_id,
            "traced": trace,
            "evaluate_s": elapsed,
            "cpu_s": cpu,
            "status": getattr(report, "status", None),
            "cost": getattr(report, "cost", None),
            "delta": getattr(report, "delta", None),
            "delta_greedy": getattr(report, "delta_greedy", None),
            "cost_vs_greedy": getattr(report, "cost_vs_greedy", None),
            "worst_cap_ratio": got.worst_cap_ratio if got else None,
            "centers": getattr(report, "centers", None),
        })
        return elapsed

    loop_start = time.perf_counter()
    peak_rss_mb = None
    while True:
        untraced.append(one_call(trace=False))
        if peak_rss_mb is None:
            # later calls raise the high-water mark by however much freed memory
            # the allocator kept, which varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced.append(one_call(trace=True))
        per_round = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - loop_start + per_round > args.seconds:
            break

    record["peak_rss_mb_all_calls"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if inputs.r_planted is not None:  # after reading peak RSS: this check is not part of the workload
        found, record["planted_guarantee"] = workloads.check_planted_guarantee(inputs)
        problems += [f"planted guarantee: {p}" for p in found]

    attempted = len(outputs)
    ok = [o for o in outputs if o["status"] == "ok" and o["worst_cap_ratio"] is not None]
    record.update({
        "evaluate_s_samples": untraced,
        "traced_evaluate_s_samples": traced,
        "outputs": outputs,
        "outputs_identical": all(
            (o["cost"], o["delta"], o["centers"]) == (outputs[0]["cost"], outputs[0]["delta"], outputs[0]["centers"])
            for o in outputs
        ),
        "problems": problems,
    })
    delta = max((o["delta"] for o in ok), default=None)
    fail_frac = failed / attempted
    lines = [
        f"workload {args.workload}, seed {args.seed}: n={inputs.inst.n}, k={inputs.cfg.k}, "
        f"alpha={inputs.cfg.alpha}, algorithm={inputs.cfg.algorithm}",
    ]

    if args.trace:
        metrics = tracer.per_layer(len(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        rungs = [r for r in tracer.rungs() if r["run"] == tracer.spans[0][5]]  # the first traced call
        record["per_layer"] = metrics
        record["rungs"] = rungs
        record["spans"] = tracer.dump()
        notes = {}
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count") for k in metrics}
        for r in rungs:
            lines.append(
                f"rung lambda={r['lambda']:.6g} solver={r['solver']} vars={r['vars']} "
                f"rows={r['rows']} nnz={r['nnz']} verdict={r['verdict']}"
            )
    else:
        metrics = {
            "evaluate_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
            # 0 only when every call failed, and then correct is false
            "cost_vs_greedy": statistics.median(o["cost_vs_greedy"] for o in ok) if ok else 0.0,
            "worst_cap_ratio": statistics.median(o["worst_cap_ratio"] for o in ok) if ok else 0.0,
            "ok_frac": 1.0 - fail_frac,
        }
        units = END_TO_END_UNITS
        notes = {
            "evaluate_s": f"median of {len(untraced)} calls; {tail_note(untraced)}",
            "setup_s": f"median of {len(setup_samples)} set-ups",
        }
        record["end_to_end"] = metrics

    for name, value in metrics.items():
        lines.append(f"{name:40s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}".rstrip())
    lines.append(f"{'delta':40s} {delta!s:>14} count  (max additive cap violation)")
    lines.append(f"{'fail_frac':40s} {fail_frac:14.6g} share  ({failed} of {attempted} calls failed a check)")
    for p in problems:
        lines.append(f"CHECK FAILED {p}")

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"record written to {out_path.relative_to(ROOT)}")
    print("\n".join(lines))

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
