"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads universality,curves \
        --seeds 1-10 --out perfbench/baseline/example.json

Runs perfbench/run.py once per (workload, seed), one run at a time, with
the run_seconds of BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags a spread above a third of the metric's
bound. --out saves every run's result together with the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[1])["environment"]
    return dict(json.loads(lines[-1]), **json.loads(lines[-2])), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med:
        spread = (q3 - q1) / abs(med)
    else:
        spread = 0.0 if q3 == q1 else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res, env = one_run(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **res})
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                    if k in bounds}
            vals["failed_frac"] = res["failed"] / res["attempted"]
            print(workload, seed, res["correct"], vals, flush=True)
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs])
                   for n in runs[0]["metrics"] if len(runs) > 1}
        for n, s in summary.items():
            if n not in bounds:
                continue
            flag = ""
            if n != "setup_s" and s["spread"] > bounds[n] / 3:
                flag = "  above bound/3"
            print(f"{workload:>15} {n:>12} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:>15} {'failed_frac':>12} {failed / attempted:.4f} "
              f"({failed} of {attempted} ops)")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        report["environment"] = env
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
