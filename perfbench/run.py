"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds 30 --trace 0|1

Run from the root of a source checkout; ttsketch is imported from ``src/``.
The workload's passes run closed loop in this process for ``--seconds``
seconds, each pass timed on its own, and every operation is checked.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
the mean wall and CPU time of a pass, operations per second, the median of
ten set-up timings (nine in fresh child interpreters spread between the
passes, one in this process) and the process's peak RSS.  The mean, not the
median, of the pass times is reported because the host's speed changes in
phases of several seconds, which make the pass times bimodal.  With ``--trace 1`` the first half of
the time runs untraced and the second half under span wrappers, and the
metrics are the per-layer ones, per traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the pass times, the ungated quality figures and the environment.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# One BLAS thread: the einsums that dominate every workload are single-threaded,
# and idle OpenBLAS workers busy-wait on the second CPU (eigensolve_tfim used
# 21 s of CPU for 16.5 s of wall time with two), so one thread makes cpu_s the
# work done and leaves any thread-level gain visible as cpu_s > wall_s.
BLAS_THREADS = 1
SETUP_PROBES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("eigensolve_tfim", "round_noisy", "embed_kron", "hadamard_qtt")

# Per-layer metrics, in BENCHMARK.json order: (name, unit).
KERNEL_SPANS = ("contract.sketch_matvec", "tt.tt_inner",
                "contract.partial_contractions", "contract.sketch_hadamard")
# stta and left_partial_contractions run only on round_noisy, which is not in
# BENCHMARK.json; a traced run prints them with every other span in its
# detail line.
CALL_SPANS = ("analysis.empirical_spectrum", "sketch.make_sketch", "tt.rng_for",
              "rounding.tt_round", "rounding.tt_rand_round", "numpy.einsum", "numpy.linalg")
SELF_SPANS = ("tt.tt_orthogonalize", "tt.tto_apply_assemble", "tt.tt_linear_combination",
              "eigensolver.sketched_rayleigh_ritz", "eigensolver.ritz_solve")
LAYER_TOTALS = ("tt", "sketch", "contract", "rounding", "analysis", "eigensolver", "qtt", "cli")

PER_LAYER = (
    [("%s.%s" % (s, stat), unit) for s in KERNEL_SPANS
     for stat, unit in (("calls", "count"), ("self_s", "s"), ("gflops", "GFLOP/s"))]
    + [("%s.%s" % (s, stat), unit) for s in CALL_SPANS
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("%s.self_s" % s, "s") for s in SELF_SPANS]
    + [("eigensolver.restarts", "count"), ("eigensolver.final_rank", "count")]
    + [("%s.self_s" % layer, "s") for layer in LAYER_TOTALS]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.accounted_frac", "ratio")]
)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def import_program():
    """Import ttsketch from this checkout's ``src``; exit non-zero if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ttsketch
    except ImportError as exc:
        sys.exit("perfbench: cannot import ttsketch from %s: %s" % (src, exc))
    if Path(ttsketch.__file__).resolve().parent.parent != src.resolve():
        sys.exit("perfbench: ttsketch was imported from outside this checkout")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    return workloads


def timed_setup(name, seed):
    """Import the program and build the workload's inputs; (seconds, wl, state)."""
    t0 = time.perf_counter()
    workloads = import_program()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    return time.perf_counter() - t0, wl, state


def probe_setup(name, seed):
    """Set-up time of a fresh interpreter, measured in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        sys.exit("perfbench: set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class SetupProbes:
    """``SETUP_PROBES`` set-up timings in child interpreters, spread over a run.

    The host's speed changes in phases of seconds to minutes.  Probes taken
    back to back would all fall in one phase and make the median follow it
    from run to run; spread between the passes, they meet the same phases
    as the passes do.
    """

    def __init__(self, name, seed, seconds):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.samples = []

    def take(self, elapsed):
        """Run the probes that are due ``elapsed`` seconds into the run."""
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / self.seconds))
        while len(self.samples) < due:
            self.samples.append(probe_setup(self.name, self.seed))


def run_passes(wl, state, seconds, out_dir, start, tracer=None, between=None):
    """Closed loop of passes for ``seconds``; returns pass times and checked ops.

    ``between``, if given, is called with the elapsed seconds after each
    checked pass, untimed.
    """
    from workloads import Op

    walls, cpus, ops = [], [], []
    index = start
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            outputs = wl.run(state, index, out_dir)
            t1 = time.perf_counter()
            c1 = time.process_time()
        except Exception:
            traceback.print_exc()
            outputs = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if outputs is None:
            ops.extend(Op(False) for _ in range(wl.ops_per_pass))
        else:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            try:
                ops.extend(wl.check(state, outputs, out_dir))
            except Exception:
                traceback.print_exc()
                ops.extend(Op(False) for _ in range(wl.ops_per_pass))
        index += 1
        elapsed = time.perf_counter() - t_begin
        if between is not None:
            between(elapsed)
        if elapsed >= seconds:
            return walls, cpus, ops, index


def args_key(key_fn):
    """Span recorder that keys a call by its arguments (flop-model shapes)."""
    return lambda args, kwargs, result: key_fn(*args, **kwargs)


def solve_key(args, kwargs, result):
    """Span recorder for a solve: (restarts used, largest bond of the result)."""
    return len(result["history"]), max(result["vector"].ranks)


def layer_metrics(tracer, walls, untraced_walls):
    """Per-layer metrics, per traced pass, from the tracer's span stats."""
    from flops import KERNELS
    from spans import SpanStats

    n = len(walls)
    stats = tracer.stats
    get = lambda name: stats.get(name, SpanStats())
    out = {}
    for name in KERNEL_SPANS:
        st = get(name)
        flop = sum(count * KERNELS[name][1](key) for key, count in st.keys.items())
        out[name + ".calls"] = st.calls / n
        out[name + ".self_s"] = st.self_s / n
        out[name + ".gflops"] = flop / st.self_s / 1e9 if st.self_s > 0 else 0.0
    for name in CALL_SPANS:
        out[name + ".calls"] = get(name).calls / n
        out[name + ".self_s"] = get(name).self_s / n
    for name in SELF_SPANS:
        out[name + ".self_s"] = get(name).self_s / n
    solves = get("eigensolver.sketched_rayleigh_ritz").keys
    n_solves = sum(solves.values())
    out["eigensolver.restarts"] = (
        sum(c * k[0] for k, c in solves.items()) / n_solves if n_solves else 0.0)
    out["eigensolver.final_rank"] = (
        sum(c * k[1] for k, c in solves.items()) / n_solves if n_solves else 0.0)
    layer_self = 0.0
    for layer in LAYER_TOTALS:
        total = sum(st.self_s for name, st in stats.items() if name.split(".")[0] == layer)
        out[layer + ".self_s"] = total / n
        layer_self += total
    out["trace.wall_s"] = mean(walls)
    out["trace.overhead_frac"] = mean(walls) / mean(untraced_walls) - 1.0
    out["trace.accounted_frac"] = layer_self / sum(walls)
    return out


def environment(seed):
    """Versions, thread counts and code identity, read inside the checkout."""
    import platform
    from importlib import metadata

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
        commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ttsketch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_probe:
        setup_s, _, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_s, wl, state = timed_setup(args.workload, args.seed)

    out_dir = ROOT / ".perfbench_out" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    out_dir = str(out_dir)
    if args.trace:
        from spans import Tracer, installed_wrappers
        from flops import KERNELS

        recorders = {name: args_key(key_fn) for name, (key_fn, _) in KERNELS.items()}
        recorders["eigensolver.sketched_rayleigh_ritz"] = solve_key
        tracer = Tracer(recorders=recorders)
        plain_walls, _, plain_ops, nxt = run_passes(wl, state, args.seconds / 2, out_dir, 0)
        walls, cpus, ops, _ = run_passes(wl, state, args.seconds / 2, out_dir, nxt, tracer)
        if installed_wrappers():
            sys.exit("perfbench: span wrappers left installed")
        ops = plain_ops + ops
        metrics = layer_metrics(tracer, walls, plain_walls) if walls and plain_walls else {}
        units = dict(PER_LAYER)
        setups = [setup_s]
        spans = {name: {"calls": st.calls / max(len(walls), 1),
                        "self_s": st.self_s / max(len(walls), 1)}
                 for name, st in sorted(tracer.stats.items()) if st.calls}
    else:
        probes = SetupProbes(wl.name, args.seed, args.seconds)
        probes.take(0.0)
        walls, cpus, ops, _ = run_passes(wl, state, args.seconds, out_dir, 0,
                                         between=probes.take)
        setups = probes.samples + [setup_s]
        spans = None
        metrics = {}
        if walls:
            metrics = {
                "wall_s": mean(walls),
                "cpu_s": mean(cpus),
                "ops_per_s": wl.ops_per_pass * len(walls) / sum(walls),
                "setup_s": median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = dict(END_TO_END)

    failed = sum(1 for op in ops if not op.ok)
    checked = [op for op in ops if op.quality]
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "setup_samples_s": setups,
        "spans_per_traced_pass": spans,
        "quality": wl.quality(checked) if checked else {},
        "environment": environment(args.seed),
    }
    print(json.dumps(detail, default=float))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, float("nan"))), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
