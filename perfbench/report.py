"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/report.py [--seeds 10] [--first-seed 1] [--seconds 20]
                                [--workloads a,b] [--trace] [--out FILE]

Each (workload, seed) is one ``run.py`` process.  For every metric the
report prints the median, the quartiles (``statistics.quantiles(n=4)``),
the sample count, and the spread: the distance between the quartiles as a
share of the median, which is what a metric's bound in BENCHMARK.json is
compared against.  ``--trace`` adds one traced run per workload and prints
its per-layer metrics.  ``--out`` writes every run's output as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, False)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        summary = {}
        print("%s  (%d runs of %gs)" % (workload, len(runs), args.seconds), flush=True)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            s = summary[name] = dict(spread(values), unit=unit, bound=bound)
            print("  %-12s %12.5g %-5s [%.5g, %.5g] n=%d  spread %.3f (bound %.2f)"
                  % (name, s["median"], unit, s["q1"], s["q3"], s["n"], s["spread"], bound))
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print("  failed_ops %d / ops %d" % (failed, attempted))
        entry = {"end_to_end": summary, "failed_ops": failed, "ops": attempted, "runs": runs}
        if args.trace:
            traced = run_once(workload, args.first_seed, args.seconds, True)
            entry["traced"] = traced
            wall = traced["result"]["metrics"]["trace.wall_s"]["value"]
            print("  traced run, seed %d: per traced pass" % args.first_seed)
            for name, m in traced["result"]["metrics"].items():
                share = ("  (%.1f %% of traced wall)" % (100 * m["value"] / wall)
                         if m["unit"] == "s" and name != "trace.wall_s" else "")
                print("    %-44s %12.5g %s%s" % (name, m["value"], m["unit"], share))
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
