import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import oracle_dense, oracle_entry, oracle_vector, rel_err
from ttsketch.tt import (
    TensorTrain,
    TTOperator,
    core_unfold_left,
    core_unfold_right,
    is_orthogonal,
    tt_dense,
    tt_evaluate,
    tt_from_dense,
    tt_hadamard_assemble,
    tt_inner,
    tt_linear_combination,
    tt_norm,
    tt_orthogonalize,
    tt_random,
    tt_random_orthogonal_ranks,
    tt_residual_norm,
    tt_scale,
    tto_apply_assemble,
    tto_dense,
    unfold,
)


def random_tt(rng, dims, ranks, field="real"):
    cores = []
    for k in range(len(dims)):
        shape = (ranks[k], dims[k], ranks[k + 1])
        c = rng.standard_normal(shape)
        if field == "complex":
            c = c + 1j * rng.standard_normal(shape)
        cores.append(c)
    return TensorTrain(cores)


def test_validate_rejects_bond_mismatch(rng):
    cores = [rng.standard_normal((1, 2, 3)), rng.standard_normal((2, 2, 1))]
    with pytest.raises(ValueError, match="bond mismatch"):
        TensorTrain(cores)


def test_validate_rejects_bad_order(rng):
    with pytest.raises(ValueError, match="order"):
        TensorTrain([rng.standard_normal((1, 2))])


def test_dense_matches_entry_formula(rng):
    x = random_tt(rng, (2, 3, 2, 4), (1, 2, 3, 2, 1))
    d = tt_dense(x)
    for idx in [(0, 0, 0, 0), (1, 2, 1, 3), (0, 1, 1, 2)]:
        assert_allclose(d[idx], oracle_entry(x.cores, idx)[0, 0], rtol=1e-13)


def test_dense_block_boundaries(rng):
    x = random_tt(rng, (2, 3), (2, 2, 3))
    d = tt_dense(x)
    assert d.shape == (2, 2, 3, 3)
    assert_allclose(d, oracle_dense(x), rtol=1e-13)


def test_dense_cap():
    x = tt_random((4,) * 12, (1,) + (2,) * 11 + (1,), seed=0)
    with pytest.raises(ValueError, match="cap"):
        tt_dense(x)


def test_unfold_row_major():
    a = np.arange(24.0)
    m = unfold(a, (2, 3, 4), 1)
    assert m.shape == (2, 12)
    # row-major: first mode is the slowest index
    assert m[1, 0] == a[12]
    m2 = unfold(a, (2, 3, 4), 2)
    assert m2.shape == (6, 4)
    assert m2[4, 1] == a[4 * 4 + 1]


def test_strong_kron_unfolding_identity(rng):
    # (A join B) first unfolding equals A^{<=1} (I kron B^{<=1})
    a = random_tt(rng, (2, 3), (2, 2, 3))
    b = random_tt(rng, (2, 2), (3, 2, 1))
    joined = TensorTrain(a.cores + b.cores)
    lhs = oracle_dense(joined).reshape(2, -1)
    a_un = oracle_dense(a).reshape(2, 6 * 3)
    b_un = oracle_dense(b).reshape(3, 4)
    rhs = a_un @ np.kron(np.eye(6), b_un)
    assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_inner_matches_dense(rng, field):
    x = random_tt(rng, (2, 3, 2), (1, 2, 3, 1), field)
    y = random_tt(rng, (2, 3, 2), (1, 3, 2, 1), field)
    expect = np.vdot(oracle_vector(x), oracle_vector(y))
    assert_allclose(tt_inner(x, y), expect, rtol=1e-12)


@pytest.mark.parametrize("dist", [1e-2, 1e-14])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_residual_norm_matches_dense(rng, field, dist):
    # y = x + e exactly, so the oracle takes ||e|| without cancellation.  At
    # dist = 1e-14 the inner-product norm of x - y reads 0 or ~1e-8 ||x||.
    dims = (2, 3, 2, 3)
    x = random_tt(rng, dims, (1, 2, 3, 2, 1), field)
    e = random_tt(rng, dims, (1, 2, 2, 2, 1), field)
    xn = np.linalg.norm(oracle_vector(x))
    e = tt_scale(e, dist * xn / np.linalg.norm(oracle_vector(e)))
    y = tt_linear_combination([x, e], [1.0, 1.0])
    expect = np.linalg.norm(oracle_vector(e))
    assert abs(tt_residual_norm(x, y) - expect) < 10 * np.finfo(float).eps * xn


def test_inner_conjugate_linear_first_argument(rng):
    x = random_tt(rng, (2, 2), (1, 2, 1), "complex")
    y = random_tt(rng, (2, 2), (1, 2, 1), "complex")
    a = 0.3 - 1.2j
    assert_allclose(tt_inner(tt_scale(x, a), y), np.conj(a) * tt_inner(x, y),
                    rtol=1e-12)
    assert_allclose(tt_inner(x, tt_scale(y, a)), a * tt_inner(x, y), rtol=1e-12)


def test_inner_orthogonal_kron_vectors():
    e = np.zeros((1, 2, 1))
    e2 = np.zeros((1, 2, 1))
    e[0, 0, 0] = 1.0
    e2[0, 1, 0] = 1.0
    x = TensorTrain([e, e])
    y = TensorTrain([e2, e2])
    assert tt_inner(x, y) == 0.0


def test_norm_matches_dense(rng):
    x = random_tt(rng, (3, 2, 3), (1, 3, 2, 1))
    assert_allclose(tt_norm(x), np.linalg.norm(oracle_vector(x)), rtol=1e-12)


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_orthogonalize_preserves_tensor(rng, direction, field):
    x = random_tt(rng, (2, 3, 2, 2), (1, 3, 4, 2, 1), field)
    y = tt_orthogonalize(x, direction)
    assert rel_err(oracle_vector(y), oracle_vector(x)) < 1e-12
    assert is_orthogonal(y, direction)
    assert all(ry <= rx for ry, rx in zip(y.ranks, x.ranks))


def test_orthogonalize_idempotent_tensor(rng):
    x = random_tt(rng, (2, 2, 2), (1, 2, 2, 1))
    y = tt_orthogonalize(x, "right")
    z = tt_orthogonalize(y, "right")
    assert rel_err(oracle_vector(z), oracle_vector(x)) < 1e-12


def test_orthogonality_check_definitions(rng):
    x = random_tt(rng, (2, 3, 2), (1, 2, 3, 1))
    y = tt_orthogonalize(x, "right")
    for c in y.cores[1:]:
        m = core_unfold_right(c)
        assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < 1e-12
    z = tt_orthogonalize(x, "left")
    for c in z.cores[:-1]:
        m = core_unfold_left(c)
        assert np.abs(m.conj().T @ m - np.eye(m.shape[1])).max() < 1e-12


def test_linear_combination_dense(rng):
    terms = [random_tt(rng, (2, 3, 2), (1, 2, 2, 1)) for _ in range(3)]
    coeffs = [0.5, -1.5, 2.0]
    out = tt_linear_combination(terms, coeffs)
    expect = sum(a * oracle_vector(t) for a, t in zip(coeffs, terms))
    assert rel_err(oracle_vector(out), expect) < 1e-12
    assert out.ranks == (1, 6, 6, 1)


def test_linear_combination_single_mode(rng):
    terms = [random_tt(rng, (4,), (1, 1)) for _ in range(2)]
    out = tt_linear_combination(terms, [2.0, -1.0])
    expect = 2 * oracle_vector(terms[0]) - oracle_vector(terms[1])
    assert_allclose(oracle_vector(out), expect, rtol=1e-13)


def test_hadamard_dense(rng):
    a = random_tt(rng, (2, 3, 2), (1, 2, 2, 1))
    b = random_tt(rng, (2, 3, 2), (1, 3, 2, 1))
    c = random_tt(rng, (2, 3, 2), (1, 2, 3, 1))
    out = tt_hadamard_assemble([a, b, c])
    expect = oracle_vector(a) * oracle_vector(b) * oracle_vector(c)
    assert rel_err(oracle_vector(out), expect) < 1e-12
    assert out.ranks == (1, 12, 12, 1)


def test_tto_apply_dense(rng):
    h = TTOperator([
        rng.standard_normal((1, 2, 3, 2)),
        rng.standard_normal((2, 2, 2, 1)),
    ])
    x = random_tt(rng, (3, 2), (1, 2, 1))
    y = tto_apply_assemble(h, x)
    assert_allclose(oracle_vector(y), tto_dense(h) @ oracle_vector(x), rtol=1e-12)


def test_tto_dense_kron_structure(rng):
    # rank-1 operator train is a Kronecker product of the slices
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    h = TTOperator([a.reshape(1, 2, 2, 1), b.reshape(1, 3, 3, 1)])
    assert_allclose(tto_dense(h), np.kron(a, b), rtol=1e-13)


def test_evaluate(rng):
    x = random_tt(rng, (2, 3, 4), (1, 2, 3, 1))
    d = oracle_dense(x)
    for idx in [(0, 0, 0), (1, 2, 3), (0, 1, 2)]:
        assert_allclose(tt_evaluate(x, idx), d[idx], rtol=1e-13)


def test_random_deterministic():
    a = tt_random((2, 3), (1, 2, 1), seed=7)
    b = tt_random((2, 3), (1, 2, 1), seed=7)
    c = tt_random((2, 3), (1, 2, 1), seed=8)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)
    assert not np.array_equal(a.cores[0], c.cores[0])


def test_random_orthogonal_ranks_capped():
    assert tt_random_orthogonal_ranks((2, 2, 2), 100) == (1, 2, 2, 1)
    assert tt_random_orthogonal_ranks((2, 2, 2, 2), 100) == (1, 2, 4, 2, 1)
    assert tt_random_orthogonal_ranks((4, 4, 4, 4), 3) == (1, 3, 3, 3, 1)


def test_from_dense_roundtrip(rng):
    x = random_tt(rng, (2, 3, 2, 2), (1, 2, 3, 2, 1))
    d = oracle_dense(x)
    y = tt_from_dense(d, x.dims)
    assert rel_err(oracle_dense(y), d) < 1e-11
    assert all(r <= 6 for r in y.ranks)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(2, 3), min_size=1, max_size=4),
    seed=st.integers(0, 10 ** 6),
)
def test_property_orthogonalize_preserves(dims, seed):
    rng = np.random.default_rng(seed)
    ranks = [1] + [int(rng.integers(1, 4)) for _ in dims[:-1]] + [1]
    x = random_tt(rng, tuple(dims), ranks)
    for direction in ("left", "right"):
        y = tt_orthogonalize(x, direction)
        assert rel_err(oracle_vector(y), oracle_vector(x)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
def test_property_inner_bilinear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    x = random_tt(rng, (2, 3), (1, 2, 1))
    y = random_tt(rng, (2, 3), (1, 2, 1))
    z = random_tt(rng, (2, 3), (1, 3, 1))
    lhs = tt_inner(z, tt_linear_combination([x, y], [alpha, beta]))
    rhs = alpha * tt_inner(z, x) + beta * tt_inner(z, y)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
