"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload tc_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qccc is imported from ``src/``. The workload
builds one pass of tasks from ``--seed``, and the run repeats that pass
max(3, round(seconds / nominal pass seconds)) times, so a run does the same
work on every commit. Every task checks its output.

``--trace 0`` reports the end-to-end metrics: setup_s; wall_s and task_s.p50,
the sum and the median of each task's fastest run; task_s.tail over every
task run; and peak_rss_mb. Task times are scaled by a calibration timed in
the same run (see CALIBRATION_REF_S).
``--trace 1`` runs each task of about seconds / 2 worth of passes twice,
untraced and then with spans around qccc's public functions, and reports the
per-layer metrics. The line before the last holds the run's record:
environment, seed, task counts, fail_ratio and failures; ``--out FILE``
appends it to a JSONL file that ``compare.py`` reads.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; one compute thread keeps runs
# comparable on a shared two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Each task runs in at least three passes and is timed by its fastest run:
# other tenants of a shared machine slow stretches of a run by up to 80%, and
# they only ever add time.
MIN_PASSES = 3
# The machine's speed also drifts by 20-40% over tens of minutes. A short
# calibration that runs no qccc code is timed three times before every task;
# task times are scaled by CALIBRATION_REF_S / (the run's fastest
# calibration), which reports them at the speed the calibration had on the
# reference machine (2-core Xeon, one BLAS thread) and halves the run-to-run
# spread there.
CALIBRATION_REF_S = 0.006
TAIL_BEYOND = 10


def tail_index(n: int) -> int:
    """Index in the sorted sample of the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the minimum is used
    and the record says how many samples lie beyond it.
    """
    return max(0, n - 1 - TAIL_BEYOND)


def tail_stats(times):
    s = sorted(times)
    k = tail_index(len(s))
    return {
        "tail": s[k],
        "tail_percentile": 100.0 * k / (len(s) - 1) if len(s) > 1 else 0.0,
        "tail_beyond": len(s) - 1 - k,
        "tasks": len(s),
    }


def run_task(task, tracer=None):
    """Run one task; a failed check or an exception is returned as the failure text."""
    fn = task.fn if tracer is None else tracer.span("bench.task", task.fn)
    failure = counts = None
    t0 = time.perf_counter()
    try:
        counts = fn()
    except Exception as exc:  # a task's failure is a result, not a crash
        failure = f"{task.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None and counts:
        tracer.counters.update(counts)
    return elapsed, failure


def _cal_interpreter():
    d = {}
    for i in range(20000):
        d[i & 511] = d.get(i & 511, 0) + (i >> 3)


def _cal_small_arrays():
    import numpy as np

    x = np.eye(4, dtype=complex)
    for _ in range(150):
        np.kron(x, x).reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).sum(axis=0)


def calibrate() -> float:
    """Seconds of fixed interpreter and small-array numpy work that qccc never runs."""
    t0 = time.perf_counter()
    _cal_interpreter()
    _cal_small_arrays()
    return time.perf_counter() - t0


def passes_for(seconds: float, nominal: float, minimum: int) -> int:
    return max(minimum, round(seconds / nominal))


def setup(workload: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[workload][0](seed, workdir)


def measure_setup(args) -> float:
    """Median seconds from a fresh interpreter until the workload is ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=args.workdir) as wd:
            cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
                   "--seed", str(args.seed), "--workdir", wd]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return statistics.median(samples)


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": None,
        "git_sha": git_sha(),
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                env["cpu_model"],
            )
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads_in_use"] = openblas_threads()
    return env


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """Commit of the checkout from .git, without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run record to this JSONL file")
    ap.add_argument("--spans", help="write the traced run's spans to this JSONL file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "qccc" / "__init__.py").is_file():
        print(f"qccc sources not found under {SRC}; run from a qccc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nominal = WORKLOADS[args.workload][1]

    if args.setup_only:
        setup(args.workload, args.seed, args.workdir)
        return 0

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as wd:
            args.workdir = wd
            return measure(args, nominal)
    finally:
        try:
            work.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, nominal: float) -> int:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    times, failures = [], []
    if args.trace == 0:
        setup_s = measure_setup(args)
        passes = passes_for(args.seconds, nominal, MIN_PASSES)
        tasks = setup(args.workload, args.seed, args.workdir)
        rows, cal = [], []
        for _ in range(passes):
            row = []
            for task in tasks:
                cal += [calibrate() for _ in range(3)]
                elapsed, failure = run_task(task)
                row.append(elapsed)
                failures += [failure] if failure else []
            rows.append(row)
        scale = CALIBRATION_REF_S / min(cal)
        times = [t * scale for row in rows for t in row]
        best = [min(column) * scale for column in zip(*rows)]
        stats = tail_stats(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(best), "s"),
            "task_s.p50": (statistics.median(best), "s"),
            "task_s.tail": (stats["tail"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["task_s"] = stats
        record["pass_walls_s"] = [sum(row) for row in rows]
        record["calibration_min_s"] = min(cal)
        record["time_scale"] = scale
    else:
        from tracing import Tracer, per_layer_units

        # each task runs untraced, then traced, so warm-up favours neither side
        passes = passes_for(args.seconds / 2, nominal, 1)
        tracer = Tracer()
        untraced = traced = 0.0
        with tracer.installed():
            tracer.task = "setup"
            tasks = tracer.span("bench.setup", setup)(args.workload, args.seed, args.workdir)
        for i, task in enumerate(tasks * passes):
            elapsed, failure = run_task(task)
            untraced += elapsed
            with tracer.installed():
                tracer.task = i
                elapsed_traced, failure_traced = run_task(task, tracer)
            traced += elapsed_traced
            times += [elapsed, elapsed_traced]
            failures += [f for f in (failure, failure_traced) if f]
        units = per_layer_units()
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(traced, untraced).items()}
        record["untraced_wall_s"] = untraced
        if args.spans:
            tracer.write_spans(args.spans)

    attempted = len(times)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(
        passes=passes,
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
        failures=failures[:20],
        elapsed_s=time.perf_counter() - STARTED,
        cpu_user_s=usage.ru_utime,
        cpu_sys_s=usage.ru_stime,
        environment=environment(args.seed),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
