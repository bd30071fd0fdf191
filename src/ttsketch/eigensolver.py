"""Sketched Rayleigh-Ritz iteration for operator trains.

A single sketch, drawn up front, is reused for three jobs: rounding of the
Krylov-style updates, the sketched Gram-Schmidt coefficients and the small
Ritz problem.  Basis vectors are kept as trains.  Each update is rounded
by ``tt_rand_round`` as a ``TTSum`` of its terms, so neither the sum nor
the operator's product with a basis vector is assembled.  The Ritz vector
is rounded deterministically, by ``tt_round`` of its ``TTSum``: a sketch
that also fitted the Ritz coefficients gave a worse rank-16 Ritz vector
and, at one pass seed, a solve stuck on an excited state.  The restart
returned is the one with the lowest true Rayleigh quotient.

Two exact references check the solver.  ``tfim_ground_energy`` is the
closed-form free-fermion energy of the TFIM chain, at any length.
``ground_energy`` takes any operator train: a Lanczos iteration on dense
vectors, with the operator applied core by core, so no dense matrix is
ever formed.
"""

from dataclasses import dataclass

import numpy as np

from .contract import PartialSketchSet, partial_contractions, sketch_matvec
from .rounding import tt_rand_round, tt_round
from .sketch import SketchSpec, make_sketch
from .tt import (
    STREAM_EXPERIMENT,
    TTOperator,
    TTSum,
    _inner,
    tt_feasible_ranks,
    tt_inner,
    tt_norm,
    tt_random,
    tt_scale,
)

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _mpo_from_w(w, d):
    """Operator train of the transfer block ``w``, a (rl, rr) grid of 2x2
    blocks: its last row is the first core and its first column the last."""
    if d < 2:
        raise ValueError("need at least two sites")

    def to_core(blocks):
        # (rl, rr) grid of 2x2 blocks -> core (rl, 2, 2, rr)
        return np.array(blocks).transpose(0, 2, 3, 1).copy()

    cores = [to_core(w[-1:])] + [to_core(w) for _ in range(d - 2)]
    return TTOperator(cores + [to_core([row[:1] for row in w])])


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
    return _mpo_from_w(mid, d)


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
    return _mpo_from_w(mid, d)


def tfim_ground_energy(d, J=1.0, g=1.0):
    """Ground energy of ``tto_tfim(d, J, g)`` in closed form.

    The Jordan-Wigner map makes the open chain free fermions whose mode
    energies are the singular values of the d x d bidiagonal matrix with g
    on the diagonal and J above it; the ground energy is minus their sum.
    """
    b = np.diag(np.full(d, float(g))) + np.diag(np.full(d - 1, float(J)), 1)
    return -float(np.linalg.svd(b, compute_uv=False).sum())


def _tto_apply_dense(h, x):
    """``tto_dense(h) @ x`` for a dense vector ``x``, one core at a time.

    The vector is held as (unread input modes, written output modes, bond);
    each core is one matmul of the (rest, r * n_in) unfolding against the
    (r * n_in, n_out * r') core, after which the output mode joins the
    written ones behind the remaining input modes.
    """
    t = np.asarray(x).reshape(-1, 1)
    for c in h.cores:
        r, n_out, n_in, r2 = c.shape
        t = t.reshape(n_in, -1, r).transpose(1, 2, 0).reshape(-1, r * n_in)
        t = t @ c.transpose(0, 2, 1, 3).reshape(r * n_in, n_out * r2)
    return t.reshape(-1)


def ground_energy(h, max_iter=500):
    """Lowest eigenvalue of a Hermitian operator train, by Lanczos.

    Every Lanczos vector is reorthogonalized against all earlier ones by two
    Gram-Schmidt passes, and the start vector comes from a fixed-seed local
    generator, not from a ttsketch stream.  The iteration stops once the
    Ritz residual beta_k |s_k0| of the lowest Ritz pair is at most
    1e-14 ||T|| for the tridiagonal T, or once the Krylov space is the whole
    space.  ValueError if neither happens within ``max_iter`` steps.
    """
    n = int(np.prod(h.dims_in))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    if any(np.iscomplexobj(c) for c in h.cores):
        v = v + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    basis = np.empty((min(n, 64), n), v.dtype)
    alphas, betas = [], []
    for k in range(min(n, max_iter)):
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis[:min(k, n - k)])])
        basis[k] = v
        w = _tto_apply_dense(h, v)
        alphas.append(np.vdot(v, w).real)
        for _ in range(2):
            w = w - (basis[:k + 1] @ w.conj()).conj() @ basis[:k + 1]
        betas.append(np.linalg.norm(w))
        t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
        theta, s = np.linalg.eigh(t)
        if betas[-1] * abs(s[-1, 0]) <= 1e-14 * np.abs(theta).max() or k + 1 == n:
            return float(theta[0])
        v = w / betas[-1]
    raise ValueError("Lanczos did not converge in %d iterations" % max_iter)


@dataclass
class RayleighRitzConfig:
    ranks: int = 16
    m: int = 10
    max_restarts: int = 5
    P: int = 4
    R: int = 16
    seed: int = 0
    rank_cap: int = 64
    tol: float = 1e-10


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
    return (_inner(x, (h, x)) / tt_inner(x, x)).real  # H x is never assembled


def sketched_rayleigh_ritz(h, cfg=None):
    """Restarted sketched Rayleigh-Ritz ground-state iteration.

    Each restart builds up to ``cfg.m`` basis vectors at the current ranks,
    solves the small sketched Ritz problem, keeps the best Ritz vector, and
    doubles the ranks.  Returns a dict with the value, vector,
    sketched_residual and true_rayleigh_quotient of the restart with the
    lowest true Rayleigh quotient, and the per-restart history.  No quotient
    is below the ground energy, so no other restart is a better answer; the
    sketched residual can rank an excited restart first.
    """
    if cfg is None:
        cfg = RayleighRitzConfig()
    dims = h.dims_out
    field = "complex" if any(np.iscomplexobj(c) for c in h.cores) else "real"
    spec = SketchSpec("tts", dims, P=cfg.P, R=cfg.R, field=field, seed=cfg.seed)
    sk = make_sketch(spec)
    ranks = cfg.ranks
    caps = tt_feasible_ranks(dims, ranks)
    v0 = tt_random(dims, caps, field=field, seed=cfg.seed, stream=STREAM_EXPERIMENT)
    v0 = tt_scale(v0, 1.0 / tt_norm(v0))
    history = []
    best = None
    for restart in range(cfg.max_restarts):
        # One step per basis vector: sweep its sketches once, divide it by
        # its sketched norm (a sketch is linear, so the sketches of
        # v / ||S v|| are those of v scaled), sketch H b, and form the next
        # Krylov update.  Stop at m vectors or when a sketch vanishes.
        basis, ps_b, ps_h = [], [], []
        v = v0
        while True:
            ps = partial_contractions(sk, v)
            nv = np.linalg.norm(ps.vector())
            if nv < 1e-300:
                break
            basis.append(tt_scale(v, 1.0 / nv))
            ps_b.append(PartialSketchSet.combine([ps], [1.0 / nv]))
            ps_h.append(sketch_matvec(sk, h, basis[-1]))
            if len(basis) >= cfg.m:
                break
            c_mat = np.stack([p.vector() for p in ps_b], axis=1)
            alpha, *_ = np.linalg.lstsq(c_mat, ps_h[-1].vector(), rcond=None)
            coeffs = [1.0] + [-a for a in alpha]
            ps_comb = PartialSketchSet.combine([ps_h[-1]] + ps_b, coeffs)
            v = tt_rand_round(TTSum([(h, basis[-1])] + basis, coeffs), ranks, partials=ps_comb)
        c_mat = np.stack([p.vector() for p in ps_b], axis=1)
        d_mat = np.stack([p.vector() for p in ps_h], axis=1)
        lam, y, res = ritz_solve(c_mat, d_mat)
        y0 = y[:, 0]
        if field == "real":
            phase = y0[np.argmax(np.abs(y0))]
            y0 = (y0 * np.conj(phase) / abs(phase)).real
        ritz = tt_round(TTSum(basis, y0), ranks)
        ritz = tt_scale(ritz, 1.0 / tt_norm(ritz))
        cyn = np.linalg.norm(c_mat @ y[:, 0])
        entry = {
            "restart": restart,
            "ranks": ranks,
            "value": lam[0].real,
            "sketched_residual": res[0] / max(cyn, 1e-300),
            "true_rayleigh_quotient": true_rayleigh_quotient(h, ritz),
            "ritz_values": lam,
        }
        history.append(entry)
        if best is None or entry["true_rayleigh_quotient"] < best["true_rayleigh_quotient"]:
            best = dict(entry, vector=ritz)
        if entry["sketched_residual"] < cfg.tol:
            break
        v0 = ritz
        ranks = min(2 * ranks, cfg.rank_cap)
    return {
        "value": best["value"],
        "vector": best["vector"],
        "sketched_residual": best["sketched_residual"],
        "true_rayleigh_quotient": best["true_rayleigh_quotient"],
        "history": history,
    }
