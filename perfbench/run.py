"""qprenorm-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload universality --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. One client runs the workload's seeded op
list back to back in this process (a closed loop), single-threaded
(QPRENORM_THREADS=1). The op count is round(seconds / nominal op cost), so
a run lasts about --seconds at the commit that defined the benchmark.

The shared machine's speed drifts by 20-30% over minutes. Each untraced
run therefore also times a fixed reference kernel, which runs no
qprenorm_lab code, before and after every op and every set-up sample. Each
set-up and op time is reported rescaled to the kernel's nominal speed:
seconds x REFERENCE_S / (mean of the two kernel samples around it). The
table before the result line also lists the raw seconds and the mean speed
factor.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each op untraced and then traced, back to back, checks that both give
bit-identical outputs, and reports the per-layer metrics. The last line of
standard output is the JSON result; the lines before it list the inputs,
the environment and a readable table.
"""

import argparse
import collections
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

THREAD_VARS = ("QPRENORM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Median reference-kernel seconds on the 2-vCPU Xeon box that defined the
# benchmark; a scale only, so rescaled times read like seconds there.
REFERENCE_S = 0.11

# name, unit, better; passed_frac stands in for failed_frac, which is 0 on
# a healthy run and so has no relative bound.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("passed_frac", "1", "higher"),
)

# A fresh interpreter: import the package and solve the fixed point.
SETUP_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import qprenorm_lab
fp = qprenorm_lab.feigenbaum_fixed_point(qprenorm_lab.DomainConfig())
dt = time.perf_counter() - t0
print(json.dumps({"setup_s": dt, "delta": fp.delta_feig,
                  "module": qprenorm_lab.__file__}))
"""


def import_package():
    """Import qprenorm_lab from this checkout's src/ or exit with an error."""
    if not (SRC / "qprenorm_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import qprenorm_lab
    if Path(qprenorm_lab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {qprenorm_lab.__file__}, not {SRC}")
    return qprenorm_lab


def reference_kernel():
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    Its time follows the slow drift of the machine's speed closely (window
    correlation 0.8-0.9 with the contraction op), so it serves as the
    yardstick for the rescaled timings.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    c = rng.standard_normal(40)
    a = rng.standard_normal((40, 40)) / 40
    t0 = time.perf_counter()
    s = 0.0
    for i in range(5000):
        s += float(np.polynomial.chebyshev.chebval(0.3 + 1e-4 * i, c))
    m = np.eye(40)
    for _ in range(1000):
        m = a @ m + 0.5 * m
    for i in range(300000):
        s += i * 1e-9
    return time.perf_counter() - t0


def measure_setup(repeats):
    """Set-up seconds of fresh interpreters, the deltas seen, and
    reference-kernel samples taken before and after each interpreter."""
    times, deltas, kernel = [], [], []
    for _ in range(repeats):
        kernel.append(reference_kernel())
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        kernel.append(reference_kernel())
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(res["module"]).resolve().parent.parent != SRC:
            raise RuntimeError(f"set-up imported {res['module']}")
        times.append(res["setup_s"])
        deltas.append(res["delta"])
    return times, deltas, kernel


def rescale(seconds, before, after):
    """Each timing scaled to the reference speed by the mean of the kernel
    samples taken right before and right after it."""
    return [t * 2.0 * REFERENCE_S / (b + a)
            for t, b, a in zip(seconds, before, after)]


def git_commit():
    """HEAD of the checkout's git metadata, when there is any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "QPRENORM_THREADS": os.environ["QPRENORM_THREADS"],
            "git_commit": git_commit()}


def timed_op(workloads, lib, workload, op, ctx):
    """Run one op; returns (seconds, digest, artifact bytes, error class)."""
    t0 = time.perf_counter()
    try:
        digest, size = workloads.run_op(workload, op, ctx)
        error = None
    except workloads.CheckFailed as e:
        digest, size, error = None, 0, f"CheckFailed:{e}"
    except lib.QPRenormError as e:
        digest, size, error = None, 0, type(e).__name__
    except Exception as e:
        # an op that crashes is counted, with its traceback on stderr
        traceback.print_exc()
        digest, size, error = None, 0, type(e).__name__
    return time.perf_counter() - t0, digest, size, error


def run_ops(workloads, lib, workload, ops, scratch, tracer=None,
            kernel_samples=None):
    """Run the op list; with a tracer, each op runs again traced right away.

    Running the two copies of an op back to back keeps slow drift in the
    machine's speed out of the tracing overhead. With kernel_samples, a
    reference-kernel sample is taken before each op and after the last.
    """
    results, traced = [], []
    for i, op in enumerate(ops):
        ctx = {"scratch": str(scratch), "index": i}
        if kernel_samples is not None:
            kernel_samples.append(reference_kernel())
        results.append(timed_op(workloads, lib, workload, op, ctx))
        if tracer:
            tracer.current_op = i
            with tracer.installed():
                traced.append(timed_op(workloads, lib, workload, op, ctx))
    if kernel_samples is not None:
        kernel_samples.append(reference_kernel())
    return results, traced


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # single-threaded BLAS, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    lib = import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    ops = workloads.make_ops(args.workload, args.seed,
                             workloads.op_count(args.workload, args.seconds))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "inputs": ops}))
    print(json.dumps({"environment": environment()}))

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    try:
        # the set-up phase is traced too, so the fixed-point solve is seen
        with tracer.installed() if tracer else contextlib.nullcontext():
            try:
                delta = workloads.check_fixed_point()
            except workloads.CheckFailed as e:
                print(f"set-up check failed: {e}")
                delta = None
        kernel_samples = None if tracer else []
        results, traced = run_ops(workloads, lib, args.workload, ops,
                                  scratch, tracer, kernel_samples)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = delta is not None
    if tracer and [r[1:] for r in traced] != [r[1:] for r in results]:
        print("traced outputs differ from untraced outputs")
        correct = False
    errors = collections.Counter(r[3] for r in results if r[3])
    failed = sum(errors.values())
    attempted = len(results)
    correct = correct and failed == 0

    info = {}
    if tracer:
        overhead = (sum(r[0] for r in traced) / sum(r[0] for r in results)
                    - 1.0)
        layer = tracer.metrics(overhead, sum(r[2] for r in traced))
        tracer.write(OUT / f"spans-{args.workload}.npz")
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        metrics = {name: metric(layer[name], units[name]) for name in units}
    else:
        setup_raw, deltas, setup_kernel = measure_setup(SETUP_REPEATS)
        if not all(abs(d - workloads.DELTA_ANCHOR) <= workloads.DELTA_TOL
                   for d in deltas):
            correct = False
        secs = [r[0] for r in results]
        k = kernel_samples
        op_ref = rescale(secs, k[:-1], k[1:])
        raw = {"setup_s": statistics.median(setup_raw), "wall_s": sum(secs),
               "op_p50_s": statistics.median(secs)}
        values = {
            "setup_s": statistics.median(rescale(
                setup_raw, setup_kernel[0::2], setup_kernel[1::2])),
            "wall_s": sum(op_ref),
            "op_p50_s": statistics.median(op_ref),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit, _ in END_TO_END}
        speed = REFERENCE_S / statistics.mean(k + setup_kernel)
        info.update(raw_seconds=raw, speed_factor=speed,
                    kernel_seconds=k, setup_kernel_seconds=setup_kernel)
        table = dict(metrics, failed_frac=metric(failed / attempted, "1"),
                     speed_factor=metric(speed, "1"),
                     **{f"raw_{n}": metric(v, "s") for n, v in raw.items()})
        for name, m in table.items():
            print(f"{name:>18} {m['value']:14.6f} {m['unit']}")
    info.update(delta=delta, errors_by_class=errors,
                op_seconds=[r[0] for r in results])
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
