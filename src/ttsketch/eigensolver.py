"""Sketched Rayleigh-Ritz iteration for operator trains.

A single sketch, drawn up front, is reused for three jobs: rounding of the
Krylov-style updates, the sketched Gram-Schmidt coefficients, and the final
small Ritz problem.  Basis vectors are kept as trains; products with the
operator are only ever assembled at the current iteration ranks.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .contract import PartialSketchSet, partial_contractions, sketch_matvec
from .rounding import tt_rand_round, tt_round
from .sketch import SketchSpec, make_sketch
from .tt import (
    STREAM_EXPERIMENT,
    TTOperator,
    tt_inner,
    tt_linear_combination,
    tt_norm,
    tt_random,
    tt_random_orthogonal_ranks,
    tt_scale,
    tto_apply_assemble,
)

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _mpo_from_w(w_first, w_mid, w_last, d):
    """Operator train from boundary rows/columns of a transfer block."""
    if d < 2:
        raise ValueError("need at least two sites")

    def to_core(w):
        # w is (rl, rr) of 2x2 blocks -> core (rl, 2, 2, rr)
        rl, rr = len(w), len(w[0])
        c = np.zeros((rl, 2, 2, rr), dtype=np.result_type(*(np.asarray(b).dtype for row in w for b in row)))
        for a in range(rl):
            for b in range(rr):
                c[a, :, :, b] = w[a][b]
        return c

    cores = [to_core(w_first)]
    for _ in range(d - 2):
        cores.append(to_core(w_mid))
    cores.append(to_core(w_last))
    return TTOperator(cores)


def tto_tfim(d, J=1.0, g=1.0):
    """Transverse-field Ising chain, bond rank 3.

    H = -J sum Z_k Z_{k+1} - g sum X_k
    """
    z = np.zeros((2, 2))
    mid = [
        [PAULI_I, z, z],
        [PAULI_Z, z, z],
        [-g * PAULI_X, -J * PAULI_Z, PAULI_I],
    ]
    first = [mid[2]]
    last = [[row[0]] for row in mid]
    return _mpo_from_w(first, mid, last, d)


def tto_heisenberg(d, Jx=1.0, Jy=1.0, Jz=1.0, h=0.0):
    """Anisotropic Heisenberg chain with a Z field, bond rank 5.

    H = sum (Jx X X + Jy Y Y + Jz Z Z) + h sum Z
    """
    z = np.zeros((2, 2))
    mid = [
        [PAULI_I, z, z, z, z],
        [PAULI_X, z, z, z, z],
        [PAULI_Y, z, z, z, z],
        [PAULI_Z, z, z, z, z],
        [h * PAULI_Z, Jx * PAULI_X, Jy * PAULI_Y, Jz * PAULI_Z, PAULI_I],
    ]
    first = [mid[4]]
    last = [[row[0]] for row in mid]
    return _mpo_from_w(first, mid, last, d)


@dataclass
class RayleighRitzConfig:
    ranks: int = 16
    m: int = 10
    max_restarts: int = 5
    P: int = 4
    R: int = 16
    variant: str = "tts"
    seed: int = 0
    rank_cap: int = 64
    tol: float = 1e-10
    history: list = dc_field(default_factory=list)


def ritz_solve(c, d_mat):
    """Eigenpairs of pinv(C) D through a QR factorization of C.

    Returns eigenvalues (ascending real part), coefficient vectors, and the
    sketched residual norms ||D y - lambda C y||.
    """
    q, r = np.linalg.qr(c)
    m = np.linalg.solve(r, q.conj().T @ d_mat)
    lam, y = np.linalg.eig(m)
    order = np.argsort(lam.real)
    lam = lam[order]
    y = y[:, order]
    res = np.array([
        np.linalg.norm(d_mat @ y[:, i] - lam[i] * (c @ y[:, i]))
        for i in range(lam.size)
    ])
    return lam, y, res


def true_rayleigh_quotient(h, x):
    hx = tto_apply_assemble(h, x)
    return (tt_inner(x, hx) / tt_inner(x, x)).real


def estimate_true_residual(h, x, lam, sk):
    """Sketched norm of H x - lambda x; the product train is never
    assembled at full rank."""
    w_h = sketch_matvec(sk, h, x).vector()
    w_x = partial_contractions(sk, x).vector()
    return float(np.linalg.norm(w_h - lam * w_x))


def sketched_rayleigh_ritz(h, cfg=None):
    """Restarted sketched Rayleigh-Ritz ground-state iteration.

    Each restart runs ``cfg.m`` basis-building steps at the current ranks,
    solves the small sketched Ritz problem, keeps the best Ritz vector, and
    doubles the ranks.  Returns a dict with the final Ritz value/vector and
    a per-restart history.
    """
    if cfg is None:
        cfg = RayleighRitzConfig()
    dims = h.dims_out
    field = "complex" if any(np.iscomplexobj(c) for c in h.cores) else "real"
    spec = SketchSpec(cfg.variant, dims, P=cfg.P, R=cfg.R, field=field, seed=cfg.seed)
    sk = make_sketch(spec)
    ranks = cfg.ranks
    caps = tt_random_orthogonal_ranks(dims, ranks)
    v0 = tt_random(dims, caps, field=field, seed=cfg.seed, stream=STREAM_EXPERIMENT)
    v0 = tt_scale(v0, 1.0 / tt_norm(v0))
    history = []
    best = None
    for restart in range(cfg.max_restarts):
        # A sketch is linear, so the sketches of x / ||S x|| are those of x
        # scaled; each basis vector is swept once.
        ps = partial_contractions(sk, v0)
        nv = np.linalg.norm(ps.vector())
        basis = [tt_scale(v0, 1.0 / nv)]
        ps_b = [PartialSketchSet.combine([ps], [1.0 / nv])]
        ps_h = []
        for _ in range(cfg.m - 1):
            ps_h.append(sketch_matvec(sk, h, basis[-1]))
            c_mat = np.stack([p.vector() for p in ps_b], axis=1)
            alpha, *_ = np.linalg.lstsq(c_mat, ps_h[-1].vector(), rcond=None)
            coeffs = [1.0] + [-a for a in alpha]
            comb = tt_linear_combination([tto_apply_assemble(h, basis[-1])] + basis, coeffs)
            ps_comb = PartialSketchSet.combine([ps_h[-1]] + ps_b, coeffs)
            vj = tt_rand_round(comb, ranks, partials=ps_comb)
            vj = tt_round(vj, ranks)
            ps = partial_contractions(sk, vj)
            nv = np.linalg.norm(ps.vector())
            if nv < 1e-300:
                break
            basis.append(tt_scale(vj, 1.0 / nv))
            ps_b.append(PartialSketchSet.combine([ps], [1.0 / nv]))
        ps_h.append(sketch_matvec(sk, h, basis[-1]))
        c_mat = np.stack([p.vector() for p in ps_b], axis=1)
        d_mat = np.stack([p.vector() for p in ps_h], axis=1)
        lam, y, res = ritz_solve(c_mat, d_mat)
        y0 = y[:, 0]
        if field == "real":
            phase = y0[np.argmax(np.abs(y0))]
            y0 = (y0 * np.conj(phase) / abs(phase)).real
        ritz = tt_linear_combination(basis, list(y0))
        ritz = tt_round(ritz, ranks)
        ritz = tt_scale(ritz, 1.0 / tt_norm(ritz))
        cyn = np.linalg.norm(c_mat @ y[:, 0])
        entry = {
            "restart": restart,
            "ranks": ranks,
            "value": lam[0].real,
            "sketched_residual": res[0] / max(cyn, 1e-300),
            "ritz_values": lam,
        }
        history.append(entry)
        if best is None or entry["sketched_residual"] < best["sketched_residual"]:
            best = dict(entry, vector=ritz)
        if entry["sketched_residual"] < cfg.tol:
            best = dict(entry, vector=ritz)
            break
        v0 = ritz
        ranks = min(2 * ranks, cfg.rank_cap)
    return {
        "value": best["value"],
        "vector": best["vector"],
        "sketched_residual": best["sketched_residual"],
        "history": history,
        "sketch": sk,
    }
