import numpy as np
import pytest
from numpy.testing import assert_allclose

from ttsketch.eigensolver import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RayleighRitzConfig,
    estimate_true_residual,
    ritz_solve,
    sketched_rayleigh_ritz,
    true_rayleigh_quotient,
    tto_heisenberg,
    tto_tfim,
)
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import (
    TensorTrain,
    tt_norm,
    tt_random,
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


def test_estimate_true_residual_eigenvector_is_zero():
    d = 4
    op = tto_tfim(d, J=1.0, g=1.5)
    w, v = np.linalg.eigh(tto_dense(op))
    from ttsketch.tt import tt_from_dense
    x = tt_from_dense(v[:, 0], (2,) * d)
    sk = make_sketch(SketchSpec("tts", (2,) * d, P=4, R=8, seed=0))
    assert estimate_true_residual(op, x, w[0], sk) < 1e-10
    # and it is comfortably nonzero for a random train
    y = tt_random((2,) * d, (1, 2, 2, 2, 1), seed=1)
    y = TensorTrain([c / tt_norm(y) ** (1.0 / d) for c in y.cores])
    assert estimate_true_residual(op, y, w[0], sk) > 1e-3


def test_sketched_rayleigh_ritz_small_tfim():
    d = 6
    op = tto_tfim(d, J=1.0, g=1.5)
    w = np.linalg.eigvalsh(tto_dense(op))
    cfg = RayleighRitzConfig(ranks=8, m=8, max_restarts=3, P=4, R=8,
                             seed=3, rank_cap=16)
    out = sketched_rayleigh_ritz(op, cfg)
    lam = true_rayleigh_quotient(op, out["vector"])
    assert abs(lam - w[0]) / abs(w[0]) < 1e-6
    assert out["sketched_residual"] < 1e-3
    assert len(out["history"]) >= 1


def test_sketched_rayleigh_ritz_heisenberg_runs():
    d = 5
    op = tto_heisenberg(d, h=0.5)
    w = np.linalg.eigvalsh(tto_dense(op))
    cfg = RayleighRitzConfig(ranks=8, m=8, max_restarts=3, P=4, R=8,
                             seed=1, rank_cap=16)
    out = sketched_rayleigh_ritz(op, cfg)
    lam = true_rayleigh_quotient(op, out["vector"])
    assert abs(lam - w[0]) / abs(w[0]) < 1e-4
