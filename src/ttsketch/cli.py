"""Command-line experiment runner.

Usage: ttsketch <experiment> --config cfg.json [--seed N] [--out DIR]

Experiments: embed_quality, round_synthetic, hadamard, eigensolve,
verify_moments, gamma_table.  ``ttsketch convert A B`` translates between
the binary train format (.ttf) and JSON.  Every experiment writes a CSV of
raw rows plus a summary.json with medians and interquartile ranges.  A
config is read through the experiment's table in ``CONFIGS``: an unknown
key or a value of the wrong type is an error that names the key.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import analysis, io as ttio
from .contract import sketch_hadamard
from .eigensolver import (
    RayleighRitzConfig,
    ground_energy,
    sketched_rayleigh_ritz,
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
    tt_feasible_ranks,
    tt_hadamard_assemble,
    tt_linear_combination,
    tt_norm,
    tt_random,
    tt_residual_norm,
    tt_scale,
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


FIELDS = ("real", "complex")

# Each experiment's config keys: key -> (type, default).  A type is int
# (a positive integer), float (finite; ints accepted), a tuple of allowed
# strings, list, or [type] for a list of that type; a list is not empty.  A
# default of None is resolved from other keys after the lookup, in ``_config``.
CONFIGS = {
    "embed_quality": {
        "d": (int, 40), "n": (int, 4), "r": (int, 16), "trials": (int, 100),
        "basis": (("kron", "tt"), "kron"), "basis_rank": (int, 2),
        "field": (FIELDS, "real"), "variants": (list, None),
    },
    "round_synthetic": {
        "d": (int, 20), "n": (int, 4), "signal_rank": (int, 16), "noise_rank": (int, 10),
        "PR": (int, 16), "R_list": ([int], [1, 4, 8, 16]),
        "eps_list": ([float], [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]), "trials": (int, 20),
    },
    "hadamard": {
        "bits": (int, 20), "target_rank": (int, 30), "R_list": ([int], [1, 2, 4, 8, 16]),
        "PR": (int, None), "trials": (int, 20),
    },
    "eigensolve": {
        "model": (("tfim", "heisenberg"), "tfim"), "d": (int, 10),
        "J": (float, 1.0), "g": (float, 1.5),
        "Jx": (float, 1.0), "Jy": (float, 1.0), "Jz": (float, 1.0), "h": (float, 0.0),
        "ranks": (int, 16), "m": (int, 10), "restarts": (int, 5), "P": (int, 4), "R": (int, 16),
    },
    "verify_moments": {
        "R": (int, 2), "n": (int, 3), "nsamples": (int, 100000),
        "fields": ([FIELDS], ["real", "complex"]),
    },
    "gamma_table": {"d": (int, 6), "R": (int, 4), "field": (FIELDS, "real")},
}

# (low, high) bounds of int keys beyond positivity; None leaves a side open.
BOUNDS = {
    "gamma_table": {"d": (1, analysis.MAX_SUBSET_MODES)},
    "eigensolve": {"d": (2, None)},
}


def _typed(key, kind, v):
    """``v`` checked against a table type; ints are widened for floats, which
    must be finite (JSON's NaN and Infinity fail, and so does a huge int)."""
    if isinstance(kind, list):
        if isinstance(v, list) and v:
            return [_typed(key, kind[0], u) for u in v]
    elif isinstance(kind, tuple):
        if isinstance(v, str) and v in kind:
            return v
    elif kind in (int, float):
        if (isinstance(v, (int, kind)) and not isinstance(v, bool)
                and (v >= 1 if kind is int else abs(v) <= sys.float_info.max)):
            return kind(v)
    elif isinstance(v, kind) and v:
        return v
    raise ValueError("config %r has a bad value: %r" % (key, v))


def _variant_spec(entry, cfg, seed):
    """The sketch of one embed_quality ``variants`` entry; the experiment
    sets its dims, field and seed."""
    if not isinstance(entry, dict) or not set(entry) <= {"variant", "P", "R"}:
        raise ValueError("config 'variants' entry %r must be an object with keys among "
                         "variant, P, R" % (entry,))
    try:
        return SketchSpec.from_json_obj(
            dict(entry, dims=[cfg["n"]] * cfg["d"], field=cfg["field"], seed=seed))
    except ValueError as e:
        raise ValueError("config 'variants' entry %r: %s" % (entry, e)) from None


def _config(name, cfg):
    """The full config of experiment ``name``, defaults filled in.

    ValueError names an unknown key, a value of the wrong type or outside
    its ``BOUNDS``, a bad ``variants`` entry, two ``variants`` entries with
    one summary key (variant, P, R), or a kron basis with more vectors r than
    index tuples n**d.  A full config passes through unchanged.
    """
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    table = CONFIGS[name]
    for key in cfg:
        if key not in table:
            raise ValueError("unknown config key %r for %s" % (key, name))
    out = {key: _typed(key, kind, cfg[key]) if key in cfg else default
           for key, (kind, default) in table.items()}
    for key, (lo, hi) in BOUNDS.get(name, {}).items():
        if out[key] < lo or hi is not None and out[key] > hi:
            raise ValueError("config %r = %d is outside [%d, %s]"
                             % (key, out[key], lo, "inf" if hi is None else hi))
    if name == "hadamard" and out["PR"] is None:
        out["PR"] = 2 * out["target_rank"]
    if name == "embed_quality":
        if out["variants"] is None:
            r = out["r"]
            out["variants"] = [{"variant": "tts", "P": 2 * r, "R": 1},
                               {"variant": "tts", "P": 2, "R": r}]
        seen = {}
        for entry in out["variants"]:
            spec = _variant_spec(entry, out, 0)
            key = (spec.variant, spec.P, spec.R)
            if key in seen:
                raise ValueError("config 'variants' entries %r and %r both give summary key "
                                 "'%s_P%d_R%d'" % ((seen[key], entry) + key))
            seen[key] = entry
        if out["basis"] == "kron" and out["r"] > out["n"] ** out["d"]:
            raise ValueError("config 'r' = %d exceeds the n**d = %d index tuples of the kron basis"
                             % (out["r"], out["n"] ** out["d"]))
    return out


def _kron_basis(d, n, r, seed):
    """r orthonormal rank-1 trains on distinct Kronecker index tuples."""
    if r > n ** d:
        raise ValueError("r = %d exceeds the n**d = %d distinct index tuples" % (r, n ** d))
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
    caps = tt_feasible_ranks(dims, rank)
    out = []
    for i in range(r):
        v = tt_random(dims, caps, seed=seed + i, stream=STREAM_EXPERIMENT)
        out.append(tt_scale(v, 1.0 / tt_norm(v)))
    return out


def run_embed_quality(cfg, seed, out):
    cfg = _config("embed_quality", cfg)
    d, n, r, trials = cfg["d"], cfg["n"], cfg["r"], cfg["trials"]
    specs = [_variant_spec(entry, cfg, 0) for entry in cfg["variants"]]
    if cfg["basis"] == "kron":
        basis = _kron_basis(d, n, r, seed)
    else:
        basis = _tt_basis(d, n, r, cfg["basis_rank"], seed)
    draws = [(spec, t) for spec in specs for t in range(trials)]
    sketches = (make_sketch(replace(spec, seed=seed * 1000003 + 7919 * t)) for spec, t in draws)
    rows = [[d, n, r, spec.variant, spec.P, spec.R, t, lo, hi]
            for (spec, t), (lo, hi) in zip(draws, analysis.empirical_spectrum(basis, sketches))]
    _write_csv(
        os.path.join(out, "embed_quality.csv"),
        ["d", "n", "r", "variant", "P", "R", "trial", "sigma_min_sq", "sigma_max_sq"],
        rows,
    )
    summary = {}
    for spec in specs:
        sel = [row for row in rows if row[3:6] == [spec.variant, spec.P, spec.R]]
        summary["%s_P%d_R%d" % (spec.variant, spec.P, spec.R)] = {
            "sigma_min_sq": _summarize([s[7] for s in sel]),
            "sigma_max_sq": _summarize([s[8] for s in sel]),
        }
    return summary


def synthetic_lowrank_plus_noise(d, n, signal_rank, noise_rank, eps, seed):
    """Unit-norm rank-``signal_rank`` train plus eps times unit-norm noise."""
    dims = (n,) * d
    sig = tt_random(dims, tt_feasible_ranks(dims, signal_rank),
                    seed=seed, stream=STREAM_EXPERIMENT)
    sig = tt_scale(sig, 1.0 / tt_norm(sig))
    noise = tt_random(dims, tt_feasible_ranks(dims, noise_rank),
                      seed=seed + 10007, stream=STREAM_EXPERIMENT)
    noise = tt_scale(noise, eps / tt_norm(noise))
    return sig, tt_linear_combination([sig, noise], [1.0, 1.0])


def run_round_synthetic(cfg, seed, out):
    cfg = _config("round_synthetic", cfg)
    d, n, signal_rank, noise_rank = cfg["d"], cfg["n"], cfg["signal_rank"], cfg["noise_rank"]
    pr, r_list, eps_list, trials = cfg["PR"], cfg["R_list"], cfg["eps_list"], cfg["trials"]
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
    cfg = _config("hadamard", cfg)
    target_rank, r_list, pr, trials = cfg["target_rank"], cfg["R_list"], cfg["PR"], cfg["trials"]
    grid, factors = hadamard_experiment_factors(cfg["bits"])
    exact = tt_hadamard_assemble(factors)
    xn = tt_norm(exact)
    dims = exact.dims
    rows, times_ms = [], {}
    t0 = time.perf_counter()
    det = tt_round(exact, target_rank)
    det_ms = (time.perf_counter() - t0) * 1000.0
    err_det = tt_residual_norm(exact, det) / xn
    rows.append([target_rank, 0, 0, 0, "deterministic", err_det])
    for r_blk in r_list:
        p_blk = max(pr // r_blk, 1)
        for t in range(trials):
            spec = SketchSpec("tts", dims, P=p_blk, R=r_blk,
                              seed=seed * 1000003 + 31 * t + r_blk)
            sk = make_sketch(spec)
            t0 = time.perf_counter()
            ps = sketch_hadamard(sk, factors)
            rnd = tt_rand_round(exact, target_rank, partials=ps)
            times_ms.setdefault(r_blk, []).append((time.perf_counter() - t0) * 1000.0)
            err = tt_residual_norm(exact, rnd) / xn
            rows.append([target_rank, r_blk, p_blk, t, "randomized", err])
    _write_csv(
        os.path.join(out, "hadamard.csv"),
        ["target_rank", "R", "P", "trial", "method", "rel_error"],
        rows,
    )
    summary = {"deterministic": {"rel_error": err_det, "wall_time_ms": det_ms}}
    for r_blk in r_list:
        sel = [r for r in rows if r[1] == r_blk]
        summary["R%d" % r_blk] = {
            "rel_error": _summarize([s[5] for s in sel]),
            "wall_time_ms": _summarize(times_ms[r_blk]),
        }
    return summary


# Largest 2**d for which eigensolve reports the exact ground energy, by
# Lanczos on dense vectors (0.3-1 s at d = 14).
MAX_REFERENCE_STATES = 2 ** 14


def run_eigensolve(cfg, seed, out):
    cfg = _config("eigensolve", cfg)
    model, d = cfg["model"], cfg["d"]
    if model == "tfim":
        h = tto_tfim(d, J=cfg["J"], g=cfg["g"])
    else:
        h = tto_heisenberg(d, Jx=cfg["Jx"], Jy=cfg["Jy"], Jz=cfg["Jz"], h=cfg["h"])
    rr = RayleighRitzConfig(ranks=cfg["ranks"], m=cfg["m"], max_restarts=cfg["restarts"],
                            P=cfg["P"], R=cfg["R"], seed=seed)
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
    quotient = res["true_rayleigh_quotient"]
    summary = {
        "model": model,
        "d": d,
        "ritz_value": res["value"],
        "true_rayleigh_quotient": quotient,
        "sketched_residual": res["sketched_residual"],
        "restarts_used": len(res["history"]),
    }
    if 2 ** d <= MAX_REFERENCE_STATES:
        e0 = ground_energy(h)
        summary["dense_ground_energy"] = e0
        if e0 != 0:  # a relative error of a zero energy is NaN, not JSON
            summary["rel_energy_error"] = float(abs(quotient - e0) / abs(e0))
    return summary


def run_verify_moments(cfg, seed, out):
    cfg = _config("verify_moments", cfg)
    R, n, nsamples, fields = cfg["R"], cfg["n"], cfg["nsamples"], cfg["fields"]
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
    cfg = _config("gamma_table", cfg)
    d, R, field = cfg["d"], cfg["R"], cfg["field"]
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
    "eigensolve": run_eigensolve,
    "verify_moments": run_verify_moments,
    "gamma_table": run_gamma_table,
}

# Config keys that eigensolve also takes as command-line flags.
EIGENSOLVE_FLAGS = ("model", "d", "ranks", "P", "R", "m", "restarts")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ttsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".")
        if name == "eigensolve":
            for key in EIGENSOLVE_FLAGS:
                p.add_argument("--" + key, type=int if key != "model" else str)
    pc = sub.add_parser("convert")
    pc.add_argument("src")
    pc.add_argument("dst")
    args = parser.parse_args(argv)
    if args.command == "convert":
        run_convert(args)
        return 0
    try:
        cfg = _load_config(args.config)
        if isinstance(cfg, dict):
            cfg.update((k, getattr(args, k)) for k in EIGENSOLVE_FLAGS
                       if getattr(args, k, None) is not None)
        cfg = _config(args.command, cfg)
    except ValueError as e:
        parser.error(str(e))
    os.makedirs(args.out, exist_ok=True)
    summary = EXPERIMENTS[args.command](cfg, args.seed, args.out)
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=float)
    print(json.dumps(summary, indent=2, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
