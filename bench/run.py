"""memsosc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload design_space --seed 1 --seconds 20 --trace 0

Run from a checkout: the library is imported from its `src/` (the package
need not be installed), in this process and in every child process.

With `--trace 0` the run measures the end-to-end metrics with no tracing.
With `--trace 1` it runs half as many operations twice, each block traced
and untraced back to back, and reports the per-layer metrics and the
tracing overhead; the two passes must give identical outputs.  Every operation's output is
checked outside the timed region.  Human-readable lines come first; the
last line of stdout is the JSON result.  The exit code is 0 when every
output was correct, 1 when one was not, 2 when the run could not start.

`--seconds` sets the amount of work: the workload's `ops_per_second`
(calibrated on a 2-CPU machine at the first benchmarked commit) times the
seconds, rounded to whole blocks of the workload's fixed operation mix.
A fixed seed and duration give the same operations, the same counts and
the same failures on every run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SETUP_CODE = ("import memsosc\n"
              "from memsosc import fixtures\n"
              "for n in sorted(fixtures.BUILTIN_RESONATORS): fixtures.get_resonator(n)\n"
              "for n in sorted(fixtures.BUILTIN_NETWORKS): fixtures.get_network(n)\n")
TAILS = (99.0, 90.0, 75.0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_children(args: list[str], repeats: int):
    """Wall times, process start to exit, of `repeats` fresh interpreters
    run after one untimed warm-up, and their completed processes."""
    env = child_env()
    subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    times, procs = [], []
    for _ in range(repeats):
        t = time.perf_counter()
        procs.append(subprocess.run([sys.executable, *args], env=env,
                                    capture_output=True, check=True, text=True))
        times.append(time.perf_counter() - t)
    return times, procs


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative seconds per package from `python -X importtime` output.

    A package's time is the sum of the cumulative times of its outermost
    entries (those with no ancestor from the same package), so
    `scipy.optimize`, imported by memsosc without `scipy` on the stack,
    counts towards scipy.
    """
    totals = {"memsosc": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[str] = []
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                                     # header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    # importtime prints children before their parent; walk it reversed so
    # each entry's ancestors are on the stack when it is seen
    for depth, name, seconds in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in stack):
            totals[top] += seconds
        stack.append(name)
    return totals


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def tail_allowed(n: int, p: float) -> bool:
    """At least ten samples lie beyond the p-th percentile."""
    return n - math.ceil(p / 100.0 * n) >= 10


def machine() -> dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            **threads}


def run_pass(ops, run_op, tracer=None, first: int = 0) -> tuple[list, float]:
    """One closed loop: each operation starts after the previous returned."""
    results = []
    t = time.perf_counter()
    for i, op in enumerate(ops, start=first):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(op))
    return results, time.perf_counter() - t


def traced_and_untraced(ops, run_op, tracer, block: int):
    """Run every block traced and untraced back to back, alternating which
    pass goes first, so that drift in machine speed falls on both alike."""
    traced, untraced = [], []
    traced_s = untraced_s = 0.0
    for n, start in enumerate(range(0, len(ops), block)):
        chunk = ops[start:start + block]
        for trace_it in ((True, False) if n % 2 == 0 else (False, True)):
            if trace_it:
                with tracer:
                    results, seconds = run_pass(chunk, run_op, tracer, start)
                traced += results
                traced_s += seconds
            else:
                results, seconds = run_pass(chunk, run_op)
                untraced += results
                untraced_s += seconds
    return traced, traced_s, untraced, untraced_s


def collect(results) -> tuple[dict[str, list[float]], dict[str, int]]:
    samples: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for r in results:
        for k, v in r.samples.items():
            samples.setdefault(k, []).extend(v)
        for k, v in r.work.items():
            work[k] = work.get(k, 0) + v
    return samples, work


# Per workload: the sample series of its main operation, the work count
# its throughput counts (None: one per call), and the series of its
# auxiliary operation.  BENCHMARK.json gates the three metrics built from
# these, and setup_s, on every workload; the names in NAMED are printed too.
ROLES = {
    "design_space": ("design", "designs", "sweep"),
    "mna_oracle": ("ac", "ac_points", "point"),
    "cli_cold": ("cli", None, "cli_block"),
}

NAMED = {
    "design_space": [
        ("designs_per_s", "1/s", "rate", "design", "designs"),
        ("design_p50_ms", "ms", 50.0, "design", 1e3),
        ("design_p99_ms", "ms", 99.0, "design", 1e3),
        ("sweep_points_per_s", "1/s", "rate", "sweep", "sweep_points"),
        ("sweep_p50_ms", "ms", 50.0, "sweep", 1e3),
        ("sweep_p99_ms", "ms", 99.0, "sweep", 1e3),
    ],
    "mna_oracle": [
        ("ac_points_per_s", "1/s", "rate", "ac", "ac_points"),
        ("ac_sweep_p50_ms", "ms", 50.0, "ac", 1e3),
        ("ac_sweep_p90_ms", "ms", 90.0, "ac", 1e3),
        ("oracle_point_p50_us", "us", 50.0, "point", 1e6),
        ("oracle_point_p99_us", "us", 99.0, "point", 1e6),
    ],
    "cli_cold": [
        ("cli_p50_s", "s", 50.0, "cli", 1.0),
        ("cli_p90_s", "s", 90.0, "cli", 1.0),
        ("cli_in_process_p50_ms", "ms", 50.0, "cli_in_process", 1e3),
        ("cli_block_in_process_p50_ms", "ms", 50.0, "cli_block", 1e3),
    ],
}


def report_named(name: str, samples, work) -> list[str]:
    lines = []
    for metric, unit, how, series, arg in NAMED[name]:
        xs = samples.get(series, [])
        n = len(xs)
        if n == 0:
            lines.append(f"{metric:<26}{'n/a':>14} {unit:<5} (not measured in this run)")
        elif how == "rate":
            done = work.get(arg, 0)
            lines.append(f"{metric:<26}{done / sum(xs):>14.6g} {unit:<5}"
                         f" ({done} completed in {sum(xs):.3f} s)")
        elif how == 50.0:
            lines.append(f"{metric:<26}{statistics.median(xs) * arg:>14.6g} {unit:<5} (n={n})")
        elif tail_allowed(n, how):
            lines.append(f"{metric:<26}{percentile(xs, how) * arg:>14.6g} {unit:<5} (n={n})")
        else:
            best = next((p for p in TAILS if tail_allowed(n, p)), None)
            alt = (f"; p{best:g} = {percentile(xs, best) * arg:.6g} {unit}"
                   if best is not None else "")
            need = math.ceil(10 / (1 - how / 100.0))
            lines.append(f"{metric:<26}{'n/a':>14} {unit:<5} (n={n}, needs {need}{alt})")
    return lines


def end_to_end(name: str, samples, work, setup_times) -> dict[str, float]:
    main, main_work, aux = ROLES[name]
    xs = samples[main]
    done = work.get(main_work, 0) if main_work else len(xs)
    return {
        "setup_s": statistics.median(setup_times),
        "main_p50_ms": statistics.median(xs) * 1e3,
        "main_rate_per_s": done / sum(xs),
        "aux_p50_ms": statistics.median(samples[aux]) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memsosc" / "__init__.py").is_file():
        print(f"error: no memsosc sources under {SRC}; run from a memsosc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memsosc
    if Path(memsosc.__file__).resolve().parent != SRC / "memsosc":
        print(f"error: imported memsosc from {memsosc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        return _run(args, spec, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, workloads, tracing, workdir: Path) -> int:
    name = args.workload
    wl = (workloads.CliCold(workdir) if name == "cli_cold" else
          {"design_space": workloads.DesignSpace, "mna_oracle": workloads.MnaOracle}[name]())
    print(f"# memsosc benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))

    blocks = max(1, round(wl.ops_per_second * args.seconds / wl.block))
    if args.trace:
        blocks = max(1, blocks // 2)
    run_op = wl.run
    if name == "cli_cold":
        # in_process_blocks times as many calls run in-process through
        # cli.main: the first ones are the cold calls' stdout reference, all
        # of them are the aux samples, and the traced run traces them
        in_process = wl.plan(random.Random(args.seed), blocks * wl.in_process_blocks)
        wl.prepare(in_process, child_env())
        if args.trace:
            ops, run_op = in_process, wl.run_in_process
        else:
            ops = in_process[:blocks * wl.block]
    else:
        ops = wl.plan(random.Random(args.seed), blocks)
        warm = wl.plan(random.Random(f"warm-up {args.seed}"), 1)
        run_pass(warm, run_op)

    if args.trace:
        _, procs = time_children(["-X", "importtime", "-c", "import memsosc"],
                                 SETUP_REPEATS)
        breakdowns = [import_breakdown(p.stderr) for p in procs]
        tracer = tracing.Tracer()
        results, traced_s, untraced, untraced_s = traced_and_untraced(
            ops, run_op, tracer, wl.block)
        differ = [i for i, (a, b) in enumerate(zip(results, untraced))
                  if (a.output, a.status) != (b.output, b.status)]
        results = untraced
    else:
        setup_times, _ = time_children(["-c", SETUP_CODE], SETUP_REPEATS)
        results, _ = run_pass(ops, run_op)
        differ = []
        if name == "cli_cold":
            refs, _ = run_pass(in_process, wl.run_in_process)
            for r, ref in zip(results, refs):
                r.reference = ref
            # a block's seven calls take very different times, so the
            # median of single calls would sit on an edge between kinds
            for i in range(0, len(refs), wl.block):
                refs[i].sample("cli_block", sum(
                    r.samples["cli_in_process"][0] for r in refs[i:i + wl.block]))
            ops, results = ops + in_process, results + refs

    for op, r in zip(ops, results):
        wl.check(op, r)
    samples, work = collect(results)
    wrong = [r for r in results if r.status == "wrong"]
    failed = sum(r.status != "ok" for r in results)
    correct = not wrong and not differ

    for line in report_named(name, samples, work):
        print(line)
    print(f"{'fail_frac':<26}{failed / len(results):>14.6g} {'':<5} "
          f"({failed} of {len(results)} failed; {len(wrong)} wrong)")
    if name == "mna_oracle":
        print(f"{'singular_points':<26}{work.get('singular_points', 0):>14d} count")
    for r in wrong[:5]:
        print(f"wrong {r.kind}: {r.problem}", file=sys.stderr)
    if differ:
        print(f"traced and untraced outputs differ at operations {differ[:10]}",
              file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.aggregate())
        for pkg in ("memsosc", "scipy", "numpy"):
            metrics[f"import.{pkg}_s"] = statistics.median(b[pkg] for b in breakdowns)
        metrics["trace.traced_s"] = traced_s
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{name}_seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        listed = spec["per_layer"]
    else:
        metrics = end_to_end(name, samples, work, setup_times)
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for k, v in metrics.items():
        print(f"{k:<52}{v:>14.6g} {units[k]}")
    if args.trace:
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        if tracer.missing:
            print(f"# not in the library, reads zero: {', '.join(tracer.missing)}")
    else:
        print(f"# setup_s is the median of {len(setup_times)} fresh interpreters")

    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
