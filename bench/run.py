"""latgauss benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload theorem-suite --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the same invocations twice, first untraced for half the time and then
under the span tracer, and reports the per-layer metrics; tracemalloc runs
only inside the traced coset enumerations. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A run
whose outputs fail a check prints ``"correct": false`` and exits 1; a run
that cannot start (no program to measure) exits 2 without a result.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is imported anywhere.
PINNED_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
RERUN_S = 2.0  # time budget of the leading invocations run a second time

sys.path.insert(0, HERE)
from harness import (MIN_TAIL_SAMPLES, HostProbe, comparable, environment,  # noqa: E402
                     execute, host_slowdown, leading, measure_setup, rotation_rates,
                     run_for, tail_percentile)
from tracer import (END, NAME, OP, PARENT, START, Tracer, default_specs,  # noqa: E402
                    function_table, layer_metrics, per_layer_units)
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "latgauss", "__init__.py")):
        sys.stderr.write(f"bench: no latgauss sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import latgauss

    if not os.path.abspath(latgauss.__file__).startswith(SRC):
        sys.stderr.write(f"bench: latgauss imported from {latgauss.__file__}, not {SRC}\n")
        raise SystemExit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _determinism_errors(outcomes, rerun) -> list[str]:
    return [f"{a.invocation.label}: record stream differs between runs"
            for a, b in zip(outcomes, rerun) if comparable(a.text) != comparable(b.text)]


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    setup = measure_setup(ROOT, _child_env(), SETUP_REPEATS)
    outcomes, elapsed, probes = run_for(workload.stream(seed), seconds, probe=HostProbe(),
                                        min_records=MIN_TAIL_SAMPLES)
    # everything below is outside the timed region
    rerun = [execute(o.invocation) for o in leading(outcomes, workload.rotation, RERUN_S)]
    errors = _determinism_errors(outcomes, rerun) + workload.check(outcomes)
    latencies = [x for o in outcomes for x in o.latencies_s]
    attempted = sum(o.ops for o in outcomes)
    rates = rotation_rates(outcomes, workload.rotation)
    slowdown = host_slowdown(probes)
    raw = {"ops_per_s": median(rates),
           "op_ms_p50": median(latencies) * 1e3,
           "op_ms_p90": tail_percentile(latencies) * 1e3}
    metrics = {
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_ms_p50": raw["op_ms_p50"] / slowdown,
        "op_ms_p90": raw["op_ms_p90"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(setup),
    }
    shapes: dict[str, list[float]] = {}
    for o in outcomes:
        shapes.setdefault(o.invocation.label.split(" #")[0], []).append(o.end - o.start)
    counts = {"attempted": attempted, "failed": sum(o.failed for o in outcomes),
              "seconds_by_shape": {k: {"invocations": len(v), "median_s": median(v)}
                                   for k, v in shapes.items()},
              "invocations": len(outcomes), "latency_samples": len(latencies),
              "rotations": len(rates), "elapsed_s": elapsed, "setup_samples": setup,
              "probes": len(probes), "host_slowdown": slowdown, "uncorrected": raw,
              "rerun_invocations": len(rerun)}
    return metrics, errors, counts


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, list[str], dict, list]:
    untraced, _, _ = run_for(workload.stream(seed), seconds / 2.0)
    tracer = Tracer(default_specs())

    def next_op():
        tracer.op += 1

    with tracer:
        traced = [execute(o.invocation, next_op) for o in untraced]
    errors = _determinism_errors(untraced, traced) + workload.check(traced)
    wall = lambda outs: sum(o.end - o.start for o in outs)
    metrics = layer_metrics(
        tracer.spans, op_time_s=wall(traced),
        records=sum(len(o.stamps) for o in traced),
        bytes_out=sum(len(o.text.encode()) for o in traced),
        overhead_frac=wall(traced) / wall(untraced) - 1.0)
    counts = {"attempted": sum(o.ops for o in traced), "failed": sum(o.failed for o in traced),
              "invocations": len(traced), "spans": len(tracer.spans),
              "functions": function_table(tracer.spans)}
    return metrics, errors, counts, tracer.spans


def _write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                 "parent": s[PARENT], "op": s[OP]}) + "\n")


def run_one(args) -> int:
    _import_program()
    workload = WORKLOADS[args.workload]
    spans = None
    if args.trace:
        metrics, errors, counts, spans = run_traced(workload, args.seed, args.seconds)
        units = per_layer_units()
    else:
        metrics, errors, counts = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(ROOT, PINNED_ENV),
              "metrics": metrics, "counts": counts, "errors": errors}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if spans is not None:
        _write_spans(stem + "-spans.jsonl", spans)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{counts['attempted']} operations in {counts['invocations']} invocations, "
          f"{counts['failed']} failed")
    if not args.trace:
        print(f"  latency samples {counts['latency_samples']}, "
              f"rotation windows {counts['rotations']}, "
              f"set-up samples {len(counts['setup_samples'])}, "
              f"failed_frac {counts['failed'] / counts['attempted']:.4g} ratio")
        print(f"  host slowdown {counts['host_slowdown']:.4g} over {counts['probes']} probes; "
              "uncorrected " + ", ".join(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}"
                                        for k, v in counts['uncorrected'].items()))
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload, each in its own process; nonzero if any check fails."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if proc.returncode != 0:
            status = 1
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
