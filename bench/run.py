#!/usr/bin/env python3
"""Benchmark of sltosim through its public entry point ``cli.run_experiment``.

One client in one process runs a seeded list of experiments in a closed
loop: the next op starts only after the previous one returned and its
output was checked.  The program is imported from ``src/`` of the checkout
this file sits in.

    python3 bench/run.py --workload cycle-grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every op runs once untraced and
once traced, and the object holds the per-layer metrics and the tracing
overhead instead.  Lines before it give the metrics in words, the tail
percentile and its sample count, the plain wall-clock throughput and
median, and the machine facts.  The full result, with every op's input
size and time, and the spans of a traced run are written under
``.bench_work/results`` in the checkout.

The timed phase replays the workload's inputs pass after pass, so each
input runs 30 times or more.  The op-time metrics take each input's
fastest run, as ``timeit`` does: a shared host alternates, for fractions
of a second to seconds at a time, between speed states up to twice apart,
so the slower runs of an input measure the neighbours while its fastest
run is the program's own cost.  ``op_p50_ms`` and ``op_tail_ms`` are the
median and tail over the inputs of those fastest times, and ``ops_per_s``
is the number of inputs over their sum: ops per second through one pass of
the workload's input mix.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: BLAS threads, fixed before numpy loads so that runs do not depend on the
#: machine's core count or on what else it is running
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cycle-grid", "detuning-sweep", "design-fit", "slto-verify")

#: end-to-end metrics of an untraced run, with their units
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

#: set-ups per run; setup_s reports the median.  A set-up imports sltosim in
#: a fresh interpreter, makes the inputs and runs one untimed warm-up op.
SETUP_REPEATS = 5

#: a tail percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it.

    Fewer than TAIL_SAMPLES + 1 values have no such percentile; the maximum
    stands in for it.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_SAMPLES - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def import_seconds(src: Path) -> float:
    """Wall time of starting a fresh interpreter and importing sltosim from src."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
                    "import sltosim"], check=True)
    return time.perf_counter() - started


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


class Runner:
    """Runs ops through ``cli.run_experiment`` and keeps the tallies."""

    def __init__(self, cli, workloads, out_dir: Path, instrumentation=None):
        self.cli = cli
        self.workloads = workloads
        self.out_dir = out_dir
        self.instrumentation = instrumentation
        self.attempted = 0
        self.failed = 0

    def run(self, op, op_id=None) -> tuple[float | None, int]:
        """Run and check one op: (wall seconds or None if it raised, FAIL verdicts).

        With an op id the op runs traced.
        """
        self.attempted += 1
        traced = self.instrumentation(op_id) if op_id is not None else contextlib.nullcontext()
        try:
            with traced:
                started = time.perf_counter()
                artifact = self.cli.run_experiment(op.kind, op.params, self.out_dir,
                                                   write_series=True)
                wall = time.perf_counter() - started
            report = json.loads(Path(artifact.report_path).read_text())
            problems = self.workloads.check(op, report)
            verdicts = self.workloads.report_failures(report)
        except Exception:  # an op that raises is counted, and the run goes on
            self.failed += 1
            print(f"op {op.kind} {op.params} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None, 0
        if problems:
            self.failed += 1
            print(f"op {op.kind} {op.params} failed its check: {problems}", file=sys.stderr)
        return wall, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sltosim" / "__init__.py").is_file():
        print(f"error: no sltosim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    from sltosim import cli, designer, engine, optics, thermal
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: sltosim was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = instrumentation = setup_id = None
    if args.trace:
        setup_id = tracing.SETUP
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer, {
            "cli": cli, "designer": designer, "engine": engine,
            "optics": optics, "thermal": thermal,
        })
    runner = Runner(cli, workloads, work_dir / "out", instrumentation)
    try:
        # set-up: make the inputs and run one untimed warm-up op, several times
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds(src)
            started = time.perf_counter()
            with instrumentation(setup_id) if args.trace else contextlib.nullcontext():
                rounds = workloads.make_rounds(args.workload, args.seed,
                                               work_dir / "inputs", cli)
            runner.run(rounds[0][0], setup_id)
            setups.append(imported + time.perf_counter() - started)

        # timed phase: whole passes over every round, a new one only while
        # time is left; an input is its (round, position) slot
        walls, traced_walls, records = [], [], []
        best = {}
        started = time.perf_counter()
        passes = 0
        while time.perf_counter() - started < args.seconds:
            for r, ops in enumerate(rounds):
                for k, op in enumerate(ops):
                    op_id = len(records)
                    wall, verdicts = runner.run(op)
                    record = {"id": op_id, "pass": passes, "slot": [r, k], "kind": op.kind,
                              "size": op.size, "wall_s": wall, "checks_failed": verdicts}
                    if args.trace:
                        traced_wall, verdicts = runner.run(op, op_id)
                        tracer.op = op_id
                        tracer.count("cli.checks_failed", verdicts)
                        record["traced_wall_s"] = traced_wall
                        if wall is not None and traced_wall is not None:
                            traced_walls.append((wall, traced_wall))
                    if wall is not None:
                        walls.append(wall)
                        best[r, k] = min(wall, best.get((r, k), wall))
                    records.append(record)
            passes += 1
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not walls:
        print("error: no op completed", file=sys.stderr)
        return 1
    facts = machine_facts(np)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "elapsed_s": elapsed, "passes": passes, "inputs": len(best),
               "ops": len(records),
               "attempted": runner.attempted, "failed": runner.failed,
               "setup_repeats_s": setups, "machine": facts}
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, len(records), SETUP_REPEATS)
        untraced = sum(u for u, _ in traced_walls)
        traced = sum(t for _, t in traced_walls)
        metrics["trace_overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
        units = {name: unit for name, _, _, unit in tracing.PER_LAYER}
        units["trace_overhead_frac"] = "ratio"
        tracer.write(results_dir / f"{stem}-spans.jsonl.gz")
    else:
        fastest = list(best.values())
        tail_ms, tail_pct = tail(fastest)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(fastest) / sum(fastest),
            "op_p50_ms": 1000.0 * statistics.median(fastest),
            "op_tail_ms": 1000.0 * tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        summary["op_tail_percentile"] = tail_pct
        summary["op_tail_samples"] = len(fastest)
        summary["wall_ops_per_s"] = len(walls) / elapsed
        summary["wall_op_p50_ms"] = 1000.0 * statistics.median(walls)
        summary["failed_frac"] = runner.failed / runner.attempted

    summary["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}
    summary["op_records"] = records
    (results_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops, {passes} passes "
          f"over {len(best)} inputs, {elapsed:.2f} s timed, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  op times are the fastest run of each of {len(fastest)} inputs; op_tail_ms "
              f"is their p{summary['op_tail_percentile']:.2f}")
        print(f"  plain wall clock: {summary['wall_ops_per_s']:.6g} ops/s, median op "
              f"{summary['wall_op_p50_ms']:.6g} ms")
        print(f"  failed_frac = {summary['failed_frac']:.6g} "
              f"({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
