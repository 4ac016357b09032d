"""Benchmark of cqms: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20 --out perfbench/baseline.json

With ``--trace 0`` it prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload,
untraced and traced, each in a child process, and writes the results with the
environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# nproc is small on the machines this runs on; one BLAS thread keeps a single
# op on a single core and makes cpu_s comparable with wall_s.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3                # at the start; one more after each timed op
CHILD_TIMEOUT_S = 600


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="sweep | certified | check | optimized")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, in child processes")
    parser.add_argument("--out", help="with --all: write the results and environment here")
    args = parser.parse_args(argv)

    if not (SRC / "cqms" / "__init__.py").is_file():
        print(f"error: no cqms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench_workloads.WORKLOADS)}")
    return run_workload(bench_workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


class Ledger:
    """Ops attempted and failed; an op fails if it raises, exits non-zero or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, workload, ctx, inputs, span=None) -> tuple[float, float]:
        """Run one op inside ``span`` (a context manager), check it; return wall and CPU seconds."""
        self.attempted += 1
        problems = []
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        try:
            with span or nullcontext():
                output = workload.run(ctx, inputs)
        except Exception:  # the op counts as failed; keep measuring the others
            traceback.print_exc()
            problems = ["raised"]
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        if not problems:
            try:
                problems = workload.check(output)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"output could not be read: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"op {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        return wall, cpu


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cqms_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "cqms" or name.startswith("cqms.")}


def _time_setup(workload) -> float:
    """Seconds for one set-up from a fresh import of cqms; the loaded modules stay in place."""
    saved = _cqms_modules()
    for name in saved:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        workload.setup()
        return time.perf_counter() - start
    finally:
        for name in _cqms_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_workload(workload, seed: int, seconds: float, traced: bool) -> int:
    import numpy  # noqa: F401  loaded before timing: setup_s counts cqms, not numpy

    start = time.perf_counter()
    ctx = workload.setup()
    setup_times = [time.perf_counter() - start]
    loaded_from = Path(sys.modules["cqms"].__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        print(f"error: cqms was imported from {loaded_from}, not from {SRC}", file=sys.stderr)
        return 2

    outdir = OUT / f"{workload.name}-seed{seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(ctx, outdir, seed)
    ledger = Ledger()
    ledger.op(workload, ctx, inputs)               # warm-up, not timed
    if traced:
        metrics = _traced_metrics(workload, ctx, inputs, seconds, ledger, outdir)
    else:
        metrics = _untraced_metrics(workload, ctx, inputs, seconds, ledger, setup_times)
    print(f"workload {workload.name}, seed {seed}: {workload.why}")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_frac: {ledger.failed}/{ledger.attempted} ops "
          f"(warm-up included; {'traced run' if traced else 'untraced run'})")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


def _timed_loop(seconds: float, step) -> None:
    """Call ``step`` while another call is expected to end within ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _untraced_metrics(workload, ctx, inputs, seconds, ledger, setup_times) -> dict:
    walls, cpus = [], []
    setup_times += [_time_setup(workload) for _ in range(SETUP_REPEATS - 1)]

    def step():
        wall, cpu = ledger.op(workload, ctx, inputs)
        walls.append(wall)
        cpus.append(cpu)
        setup_times.append(_time_setup(workload))   # spread set-ups over the run

    _timed_loop(seconds, step)
    print(f"  {len(walls)} timed ops, {len(setup_times)} set-ups; medians below")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _traced_metrics(workload, ctx, inputs, seconds, ledger, outdir) -> dict:
    """Alternate untraced and traced ops; per-layer figures come from the traced ones."""
    tracer = bench_trace.Tracer()
    plain, traced = [], []

    def step():
        plain.append(ledger.op(workload, ctx, inputs)[0])
        with tracer:
            traced.append(ledger.op(workload, ctx, inputs, span=tracer.op(len(traced)))[0])

    _timed_loop(seconds, step)
    tracer.write_jsonl(outdir / "trace.jsonl")
    print(f"  {len(traced)} traced and {len(plain)} untraced ops; per-op medians below")
    values = bench_trace.layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".lp_per_call"):
        return "count/call"
    return "count"


def environment() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "processor": _cpu_model()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_all(args) -> int:
    results, code = {}, 0
    for name in bench_workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                code = 1
                continue
            result = json.loads(lines[-1])
            result["fail_frac"] = result["failed"] / result["attempted"]
            results.setdefault(name, {})["traced" if trace else "untraced"] = result
    summary = {"seed": args.seed, "seconds": args.seconds, "environment": environment(),
               "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
