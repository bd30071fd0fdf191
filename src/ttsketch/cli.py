"""Command-line experiment runner.

Usage: ttsketch <experiment> --config cfg.json [--seed N] [--out DIR]

Experiments: embed_quality, round_synthetic, hadamard, eigensolve,
verify_moments, gamma_table.  ``ttsketch convert A B`` translates between
the binary train format (.ttf) and JSON.  Every experiment writes a CSV of
raw rows plus a summary.json with medians and interquartile ranges.
"""

import argparse
import csv
import json
import os
import time

import numpy as np

from . import analysis, io as ttio
from .contract import partial_contractions, sketch_hadamard
from .eigensolver import (
    RayleighRitzConfig,
    sketched_rayleigh_ritz,
    true_rayleigh_quotient,
    tto_heisenberg,
    tto_tfim,
)
from .qtt import hadamard_experiment_factors
from .rounding import tt_rand_round, tt_round
from .sketch import SketchSpec, make_sketch
from .tt import (
    STREAM_EXPERIMENT,
    TensorTrain,
    rng_for,
    tt_dense,
    tt_hadamard_assemble,
    tt_linear_combination,
    tt_norm,
    tt_random,
    tt_random_orthogonal_ranks,
    tt_residual_norm,
    tt_scale,
    tto_dense,
)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _summarize(values):
    v = np.asarray(values, dtype=float)
    q1, q2, q3 = np.percentile(v, [25, 50, 75])
    return {"median": q2, "iqr": q3 - q1, "n": int(v.size)}


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        return json.load(f)


def _kron_basis(d, n, r, seed):
    """r orthonormal rank-1 trains on distinct Kronecker index tuples."""
    rng = rng_for(seed, STREAM_EXPERIMENT, 7, 0)
    seen = set()
    basis = []
    while len(basis) < r:
        idx = tuple(int(i) for i in rng.integers(0, n, size=d))
        if idx in seen:
            continue
        seen.add(idx)
        cores = []
        for k in range(d):
            c = np.zeros((1, n, 1))
            c[0, idx[k], 0] = 1.0
            cores.append(c)
        basis.append(TensorTrain(cores))
    return basis


def _tt_basis(d, n, r, rank, seed):
    dims = (n,) * d
    caps = tt_random_orthogonal_ranks(dims, rank)
    out = []
    for i in range(r):
        v = tt_random(dims, caps, seed=seed + i, stream=STREAM_EXPERIMENT)
        out.append(tt_scale(v, 1.0 / tt_norm(v)))
    return out


def run_embed_quality(cfg, seed, out):
    d = int(cfg.get("d", 40))
    n = int(cfg.get("n", 4))
    r = int(cfg.get("r", 16))
    trials = int(cfg.get("trials", 100))
    basis_kind = cfg.get("basis", "kron")
    field = cfg.get("field", "real")
    variants = cfg.get(
        "variants",
        [{"variant": "tts", "P": 2 * r, "R": 1}, {"variant": "tts", "P": 2, "R": r}],
    )
    if basis_kind == "kron":
        basis = _kron_basis(d, n, r, seed)
    else:
        basis = _tt_basis(d, n, r, int(cfg.get("basis_rank", 2)), seed)
    rows = []
    for vspec in variants:
        for t in range(trials):
            spec = SketchSpec(
                vspec["variant"], (n,) * d, P=int(vspec["P"]), R=int(vspec["R"]),
                field=field, seed=seed * 1000003 + 7919 * t,
                base=vspec.get("base", "gaussian"),
            )
            lo, hi = analysis.empirical_spectrum(basis, make_sketch(spec))
            rows.append([d, n, r, spec.variant, spec.P, spec.R, t, lo, hi])
    _write_csv(
        os.path.join(out, "embed_quality.csv"),
        ["d", "n", "r", "variant", "P", "R", "trial", "sigma_min_sq", "sigma_max_sq"],
        rows,
    )
    summary = {}
    for vspec in variants:
        key = "%s_P%d_R%d" % (vspec["variant"], vspec["P"], vspec["R"])
        sel = [row for row in rows if row[3] == vspec["variant"]
               and row[4] == int(vspec["P"]) and row[5] == int(vspec["R"])]
        summary[key] = {
            "sigma_min_sq": _summarize([s[7] for s in sel]),
            "sigma_max_sq": _summarize([s[8] for s in sel]),
        }
    return summary


def synthetic_lowrank_plus_noise(d, n, signal_rank, noise_rank, eps, seed):
    """Unit-norm rank-``signal_rank`` train plus eps times unit-norm noise."""
    dims = (n,) * d
    sig = tt_random(dims, tt_random_orthogonal_ranks(dims, signal_rank),
                    seed=seed, stream=STREAM_EXPERIMENT)
    sig = tt_scale(sig, 1.0 / tt_norm(sig))
    noise = tt_random(dims, tt_random_orthogonal_ranks(dims, noise_rank),
                      seed=seed + 10007, stream=STREAM_EXPERIMENT)
    noise = tt_scale(noise, eps / tt_norm(noise))
    return sig, tt_linear_combination([sig, noise], [1.0, 1.0])


def run_round_synthetic(cfg, seed, out):
    d = int(cfg.get("d", 20))
    n = int(cfg.get("n", 4))
    signal_rank = int(cfg.get("signal_rank", 16))
    noise_rank = int(cfg.get("noise_rank", 10))
    pr = int(cfg.get("PR", 16))
    r_list = [int(v) for v in cfg.get("R_list", [1, 4, 8, 16])]
    eps_list = [float(v) for v in cfg.get("eps_list", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])]
    trials = int(cfg.get("trials", 20))
    rows = []
    for eps in eps_list:
        for t in range(trials):
            sig, x = synthetic_lowrank_plus_noise(
                d, n, signal_rank, noise_rank, eps, seed * 1000003 + t)
            xn = tt_norm(x)
            det = tt_round(x, signal_rank)
            err_det = tt_residual_norm(x, det) / xn
            rows.append([eps, 0, 0, t, "deterministic", err_det])
            for r_blk in r_list:
                p_blk = max(pr // r_blk, 1)
                spec = SketchSpec("tts", (n,) * d, P=p_blk, R=r_blk,
                                  seed=seed * 999983 + 31 * t + r_blk)
                rnd = tt_rand_round(x, signal_rank, sk=make_sketch(spec))
                err = tt_residual_norm(x, rnd) / xn
                rows.append([eps, r_blk, p_blk, t, "randomized", err])
    _write_csv(
        os.path.join(out, "round_synthetic.csv"),
        ["eps", "R", "P", "trial", "method", "rel_error"],
        rows,
    )
    summary = {}
    for eps in eps_list:
        block = {"deterministic": _summarize(
            [r[5] for r in rows if r[0] == eps and r[4] == "deterministic"])}
        for r_blk in r_list:
            block["R%d" % r_blk] = _summarize(
                [r[5] for r in rows if r[0] == eps and r[1] == r_blk])
        summary["eps_%g" % eps] = block
    return summary


def run_hadamard(cfg, seed, out):
    bits = int(cfg.get("bits", 20))
    target_rank = int(cfg.get("target_rank", 30))
    r_list = [int(v) for v in cfg.get("R_list", [1, 2, 4, 8, 16])]
    pr = int(cfg.get("PR", 2 * target_rank))
    trials = int(cfg.get("trials", 20))
    grid, factors = hadamard_experiment_factors(bits)
    exact = tt_hadamard_assemble(factors)
    xn = tt_norm(exact)
    dims = exact.dims
    rows = []
    t0 = time.perf_counter()
    det = tt_round(exact, target_rank)
    det_ms = (time.perf_counter() - t0) * 1000.0
    err_det = tt_residual_norm(exact, det) / xn
    rows.append([target_rank, 0, 0, 0, "deterministic", err_det, det_ms])
    for r_blk in r_list:
        p_blk = max(pr // r_blk, 1)
        for t in range(trials):
            spec = SketchSpec("tts", dims, P=p_blk, R=r_blk,
                              seed=seed * 1000003 + 31 * t + r_blk)
            sk = make_sketch(spec)
            t0 = time.perf_counter()
            ps = sketch_hadamard(sk, factors)
            rnd = tt_rand_round(exact, target_rank, partials=ps)
            ms = (time.perf_counter() - t0) * 1000.0
            err = tt_residual_norm(exact, rnd) / xn
            rows.append([target_rank, r_blk, p_blk, t, "randomized", err, ms])
    _write_csv(
        os.path.join(out, "hadamard.csv"),
        ["target_rank", "R", "P", "trial", "method", "rel_error", "wall_time_ms"],
        rows,
    )
    summary = {"deterministic": {"rel_error": err_det, "wall_time_ms": det_ms}}
    for r_blk in r_list:
        sel = [r for r in rows if r[1] == r_blk]
        summary["R%d" % r_blk] = {
            "rel_error": _summarize([s[5] for s in sel]),
            "wall_time_ms": _summarize([s[6] for s in sel]),
        }
    return summary


def run_eigensolve(cfg, seed, out, args=None):
    if args is not None:
        flags = ("model", "d", "ranks", "P", "R", "m", "restarts")
        cfg = dict(cfg, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None})
    model = cfg.get("model", "tfim")
    d = int(cfg.get("d", 10))
    if model == "tfim":
        h = tto_tfim(d, J=float(cfg.get("J", 1.0)), g=float(cfg.get("g", 1.5)))
    elif model == "heisenberg":
        h = tto_heisenberg(
            d,
            Jx=float(cfg.get("Jx", 1.0)), Jy=float(cfg.get("Jy", 1.0)),
            Jz=float(cfg.get("Jz", 1.0)), h=float(cfg.get("h", 0.0)),
        )
    else:
        raise SystemExit("unknown model %r" % model)
    rr = RayleighRitzConfig(ranks=int(cfg.get("ranks", 16)), m=int(cfg.get("m", 10)),
                            max_restarts=int(cfg.get("restarts", 5)),
                            P=int(cfg.get("P", 4)), R=int(cfg.get("R", 16)), seed=seed)
    res = sketched_rayleigh_ritz(h, rr)
    rows = [
        [e["restart"], e["ranks"], e["value"], e["sketched_residual"]]
        for e in res["history"]
    ]
    _write_csv(
        os.path.join(out, "eigensolve.csv"),
        ["restart", "ranks", "ritz_value", "sketched_residual"],
        rows,
    )
    quotient = true_rayleigh_quotient(h, res["vector"])
    summary = {
        "model": model,
        "d": d,
        "ritz_value": res["value"],
        "true_rayleigh_quotient": quotient,
        "sketched_residual": res["sketched_residual"],
        "restarts_used": len(res["history"]),
    }
    if 2 ** d <= 4096:
        w = np.linalg.eigvalsh(tto_dense(h))
        summary["dense_ground_energy"] = float(w[0])
        summary["rel_energy_error"] = float(
            abs(quotient - w[0]) / abs(w[0]))
    return summary


def run_verify_moments(cfg, seed, out):
    R = int(cfg.get("R", 2))
    n = int(cfg.get("n", 3))
    nsamples = int(cfg.get("nsamples", 100000))
    fields = cfg.get("fields", ["real", "complex"])
    rows = []
    rng = rng_for(seed, STREAM_EXPERIMENT, 3, 0)
    for field in fields:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((n, n))
            b = b + 1j * rng.standard_normal((n, n))
        for form in ("trace", "hs"):
            est, se, exact = analysis.mc_moment_matrix(
                a, b, R, field, nsamples, seed=seed, form=form)
            z = abs(est - exact) / se
            rows.append([field, form, R, n, nsamples,
                         complex(est).real, complex(est).imag,
                         complex(exact).real, complex(exact).imag, se, z])
    _write_csv(
        os.path.join(out, "verify_moments.csv"),
        ["field", "form", "R", "n", "nsamples", "est_re", "est_im",
         "exact_re", "exact_im", "se", "z"],
        rows,
    )
    return {"max_z": max(r[-1] for r in rows), "rows": len(rows)}


def run_gamma_table(cfg, seed, out):
    d = int(cfg.get("d", 6))
    R = int(cfg.get("R", 4))
    field = cfg.get("field", "real")
    table = analysis.gamma_table(d, R, field)
    rows = [
        [mask, "{" + ",".join(str(k) for k in range(d) if (mask >> k) & 1) + "}", val]
        for mask, val in sorted(table.items())
    ]
    _write_csv(os.path.join(out, "gamma_table.csv"), ["mask", "modes", "gamma"], rows)
    return {
        "d": d,
        "R": R,
        "field": field,
        "sum": sum(table.values()),
        "sum_closed_form": analysis.gamma_sum(d, R, field),
        "gamma_full": table[(1 << d) - 1],
        "gamma_empty_recursion": table[0],
        "gamma_empty_closed_form": analysis.gamma_empty_closed_form(d, R, field),
    }


def run_convert(args):
    src, dst = args.src, args.dst
    if src.endswith(".json"):
        x = ttio.read_tt_json(src)
    else:
        x = ttio.read_tt(src)
    if dst.endswith(".json"):
        ttio.write_tt_json(dst, x)
    else:
        ttio.write_tt(dst, x)


EXPERIMENTS = {
    "embed_quality": run_embed_quality,
    "round_synthetic": run_round_synthetic,
    "hadamard": run_hadamard,
    "verify_moments": run_verify_moments,
    "gamma_table": run_gamma_table,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ttsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(EXPERIMENTS) + ["eigensolve"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".")
        if name == "eigensolve":
            p.add_argument("--model", choices=["tfim", "heisenberg"], default=None)
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--ranks", type=int, default=None)
            p.add_argument("--P", type=int, default=None)
            p.add_argument("--R", type=int, default=None)
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--restarts", type=int, default=None)
    pc = sub.add_parser("convert")
    pc.add_argument("src")
    pc.add_argument("dst")
    args = parser.parse_args(argv)
    if args.command == "convert":
        run_convert(args)
        return 0
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    if args.command == "eigensolve":
        summary = run_eigensolve(cfg, args.seed, args.out, args=args)
    else:
        summary = EXPERIMENTS[args.command](cfg, args.seed, args.out)
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=float)
    print(json.dumps(summary, indent=2, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
