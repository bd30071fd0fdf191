import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttsketch.eigensolver import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RayleighRitzConfig,
    _tto_apply_dense,
    ground_energy,
    ritz_solve,
    sketched_rayleigh_ritz,
    true_rayleigh_quotient,
    tto_heisenberg,
    tto_tfim,
)
from ttsketch.contract import partial_contractions, sketch_matvec
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import (
    STREAM_EXPERIMENT,
    tt_feasible_ranks,
    tt_inner,
    tt_norm,
    tt_random,
    tt_scale,
    tto_apply_assemble,
    tto_dense,
)


def kron_chain(mats):
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_tfim(d, J, g):
    n = 2 ** d
    h = np.zeros((n, n))
    for k in range(d - 1):
        ops = [np.eye(2)] * d
        ops[k] = PAULI_Z
        ops[k + 1] = PAULI_Z
        h -= J * kron_chain(ops)
    for k in range(d):
        ops = [np.eye(2)] * d
        ops[k] = PAULI_X
        h -= g * kron_chain(ops)
    return h


def dense_heisenberg(d, Jx, Jy, Jz, hz):
    n = 2 ** d
    h = np.zeros((n, n), dtype=complex)
    for k in range(d - 1):
        for coef, pauli in ((Jx, PAULI_X), (Jy, PAULI_Y), (Jz, PAULI_Z)):
            ops = [np.eye(2)] * d
            ops[k] = pauli
            ops[k + 1] = pauli
            h += coef * kron_chain(ops)
    for k in range(d):
        ops = [np.eye(2)] * d
        ops[k] = PAULI_Z
        h += hz * kron_chain(ops)
    return h


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tfim_matches_dense_sum(d):
    op = tto_tfim(d, J=1.3, g=0.7)
    assert_allclose(tto_dense(op), dense_tfim(d, 1.3, 0.7), atol=1e-12)


def test_tfim_interior_rank_three():
    op = tto_tfim(6)
    assert all(c.shape[0] <= 3 and c.shape[3] <= 3 for c in op.cores)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_heisenberg_matches_dense_sum(d):
    op = tto_heisenberg(d, Jx=0.9, Jy=1.1, Jz=0.5, h=0.3)
    assert_allclose(tto_dense(op), dense_heisenberg(d, 0.9, 1.1, 0.5, 0.3),
                    atol=1e-12)


def free_fermion_tfim_energy(d, J, g):
    """Ground energy of the open TFIM chain: by the Jordan-Wigner map the
    mode energies are the singular values of the bidiagonal matrix with g on
    the diagonal and J above it, and the ground energy is minus their sum."""
    b = np.diag([float(g)] * d) + np.diag([float(J)] * (d - 1), 1)
    return -np.linalg.svd(b, compute_uv=False).sum()


@pytest.mark.parametrize("op", [tto_tfim(5, J=1.3, g=0.7), tto_heisenberg(4, 0.7, 1.3, 0.9, 0.3)],
                         ids=["tfim", "heisenberg"])
def test_dense_apply_matches_dense_operator(op):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2 ** op.d) + 1j * rng.standard_normal(2 ** op.d)
    assert_allclose(_tto_apply_dense(op, x), tto_dense(op) @ x, atol=1e-12)


@pytest.mark.parametrize("op", [
    tto_tfim(2), tto_tfim(7, J=1.3, g=0.7), tto_tfim(10, g=1.5),
    tto_heisenberg(3), tto_heisenberg(8), tto_heisenberg(10, Jx=0.7, Jy=1.3, Jz=0.9, h=0.3),
], ids=["tfim-2", "tfim-7", "tfim-10", "heis-3", "heis-8", "heis-10-aniso-field"])
def test_ground_energy_matches_dense_eigvalsh(op):
    w0 = np.linalg.eigvalsh(tto_dense(op))[0]
    assert abs(ground_energy(op) - w0) <= 1e-12 * abs(w0)


@pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
def test_ground_energy_matches_free_fermions_at_d14(g):
    e0 = free_fermion_tfim_energy(14, 1.0, g)
    assert abs(ground_energy(tto_tfim(14, g=g)) - e0) <= 1e-12 * abs(e0)


def test_ground_energy_raises_when_not_converged():
    with pytest.raises(ValueError, match="did not converge"):
        ground_energy(tto_tfim(10), max_iter=2)


def test_ritz_solve_known_pencil():
    rng = np.random.default_rng(0)
    # D = C diag(mu): eigenvalues of pinv(C) D are exactly mu
    c = rng.standard_normal((12, 4))
    mu = np.array([-3.0, -1.0, 0.5, 2.0])
    d_mat = c @ np.diag(mu)
    lam, y, res = ritz_solve(c, d_mat)
    assert_allclose(lam.real, mu, atol=1e-10)
    assert np.all(res < 1e-9)
    # eigenvector equation holds column by column
    m = np.linalg.pinv(c) @ d_mat
    for i in range(4):
        assert_allclose(m @ y[:, i], lam[i] * y[:, i], atol=1e-9)


def test_true_rayleigh_quotient_eigenvector():
    d = 3
    op = tto_tfim(d, J=1.0, g=1.5)
    hd = tto_dense(op)
    w, v = np.linalg.eigh(hd)
    from ttsketch.tt import tt_from_dense
    x = tt_from_dense(v[:, 0], (2,) * d)
    assert_allclose(true_rayleigh_quotient(op, x), w[0], atol=1e-10)
    # the one-sweep quotient agrees with the one through the assembled H x
    x = tt_random((2,) * 6, (1, 2, 4, 4, 4, 2, 1), seed=7)
    op = tto_tfim(6, J=1.0, g=1.5)
    assembled = (tt_inner(x, tto_apply_assemble(op, x)) / tt_inner(x, x)).real
    assert_allclose(true_rayleigh_quotient(op, x), assembled, rtol=1e-14)


def test_sketched_rayleigh_ritz_small_tfim():
    d = 6
    op = tto_tfim(d, J=1.0, g=1.5)
    w = np.linalg.eigvalsh(tto_dense(op))
    cfg = RayleighRitzConfig(ranks=8, m=8, max_restarts=5, P=4, R=8,
                             seed=3, rank_cap=16)
    out = sketched_rayleigh_ritz(op, cfg)
    lam = true_rayleigh_quotient(op, out["vector"])
    assert abs(lam - w[0]) / abs(w[0]) < 1e-6
    assert out["sketched_residual"] < 1e-3
    assert len(out["history"]) >= 1


def test_sketched_rayleigh_ritz_default_tfim_at_pass_seed_507013():
    # With the Ritz vector rounded by tt_rand_round from the solver's own
    # sketch, this default solve (d = 10) kept an excited state, -15.37,
    # with relative error 7.1e-2; rounded by tt_round it reaches 2.9e-6.
    op = tto_tfim(10, J=1.0, g=1.5)
    out = sketched_rayleigh_ritz(op, RayleighRitzConfig(seed=507013))
    e0 = ground_energy(op)
    assert abs(true_rayleigh_quotient(op, out["vector"]) - e0) / abs(e0) < 1e-3


def test_sketched_rayleigh_ritz_default_tfim_returns_lowest_quotient_at_seed_50():
    # At seed 50 restart 2 has the smallest sketched residual but is an
    # excited state (relative error 7.1e-2); restart 4 is near the ground
    # state.  The solve returns the restart with the lowest true quotient.
    op = tto_tfim(10, J=1.0, g=1.5)
    out = sketched_rayleigh_ritz(op, RayleighRitzConfig(seed=50))
    e0 = ground_energy(op)
    q = true_rayleigh_quotient(op, out["vector"])
    assert out["true_rayleigh_quotient"] == q
    assert q == min(e["true_rayleigh_quotient"] for e in out["history"])
    assert abs(q - e0) / abs(e0) < 1e-3


def test_sketched_rayleigh_ritz_heisenberg_runs():
    d = 5
    op = tto_heisenberg(d, h=0.5)
    w = np.linalg.eigvalsh(tto_dense(op))
    cfg = RayleighRitzConfig(ranks=8, m=8, max_restarts=3, P=4, R=8,
                             seed=1, rank_cap=16)
    out = sketched_rayleigh_ritz(op, cfg)
    lam = true_rayleigh_quotient(op, out["vector"])
    assert abs(lam - w[0]) / abs(w[0]) < 1e-4


def test_sketched_rayleigh_ritz_zero_hamiltonian():
    # The first Krylov update of H = 0 is zero, so its sketch vanishes and
    # the basis stops at one vector, with Ritz value 0 and residual 0.
    out = sketched_rayleigh_ritz(tto_tfim(6, J=0.0, g=0.0))
    assert out["value"] == 0
    assert out["sketched_residual"] == 0
    assert len(out["history"]) == 1


def test_sketched_rayleigh_ritz_one_vector_basis():
    # With m = 1, restart 0's Ritz value is the least-squares ratio of the
    # start vector's sketches S(H v) and S(v).
    op = tto_tfim(6, J=1.0, g=1.5)
    cfg = RayleighRitzConfig(ranks=4, m=1, max_restarts=2, P=4, R=8, seed=5)
    out = sketched_rayleigh_ritz(op, cfg)
    dims = op.dims_out
    sk = make_sketch(SketchSpec("tts", dims, P=cfg.P, R=cfg.R, seed=cfg.seed))
    v = tt_random(dims, tt_feasible_ranks(dims, cfg.ranks), seed=cfg.seed,
                  stream=STREAM_EXPERIMENT)
    v = tt_scale(v, 1.0 / tt_norm(v))
    c = partial_contractions(sk, v).vector()[:, None]
    ratio, *_ = np.linalg.lstsq(c, sketch_matvec(sk, op, v).vector(), rcond=None)
    assert_allclose(out["history"][0]["value"], ratio[0], rtol=1e-12)
    assert out["history"][0]["ritz_values"].shape == (1,)
