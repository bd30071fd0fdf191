import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (
    is_orthogonal, oracle_dense, oracle_entry, oracle_vector, rel_err, tt_evaluate,
)
from ttsketch.rounding import STTASketchPair
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import (
    STREAM_EXPERIMENT,
    STREAM_SKETCH,
    STREAM_STTA_LEFT,
    STREAM_TT,
    TensorTrain,
    TTOperator,
    TTSum,
    _stacked_train,
    gaussian,
    rng_for,
    tt_dense,
    tt_feasible_ranks,
    tt_from_dense,
    tt_gram,
    tt_hadamard_assemble,
    tt_inner,
    tt_linear_combination,
    tt_norm,
    tt_orthogonalize,
    tt_random,
    tt_residual_norm,
    tt_scale,
    tto_apply_assemble,
    tto_dense,
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


def test_inner_block_trains_matches_dense(rng):
    # r0 = 2, r_d = 3: the Frobenius inner product of the (2, dims, 3) arrays
    x = random_tt(rng, (2, 3, 2), (2, 3, 2, 3), "complex")
    y = random_tt(rng, (2, 3, 2), (2, 2, 4, 3), "complex")
    expect = np.vdot(oracle_dense(x), oracle_dense(y))
    assert_allclose(tt_inner(x, y), expect, rtol=1e-12)


def random_tto(rng, dims_out, dims_in, ranks, field="real"):
    x = random_tt(rng, [n * m for n, m in zip(dims_out, dims_in)], ranks, field)
    return TTOperator([c.reshape(c.shape[0], n, m, c.shape[2])
                       for c, n, m in zip(x.cores, dims_out, dims_in)])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_inner_operator_pair_matches_dense(rng, field):
    # <x, h y> from one sweep, with n_out != n_in and unequal train ranks
    h = random_tto(rng, (2, 3, 2), (3, 2, 4), (1, 2, 3, 1), field)
    x = random_tt(rng, (2, 3, 2), (1, 3, 2, 1), field)
    y = random_tt(rng, (3, 2, 4), (1, 2, 4, 1), field)
    expect = np.vdot(oracle_vector(x), tto_dense(h) @ oracle_vector(y))
    assert_allclose(tt_inner(x, (h, y)), expect, rtol=1e-12)


def test_inner_operator_pair_dims_mismatch(rng):
    h = random_tto(rng, (2, 3), (3, 2), (1, 2, 1))
    x = random_tt(rng, (2, 3), (1, 2, 1))
    y = random_tt(rng, (3, 2), (1, 2, 1))
    with pytest.raises(ValueError, match="operator input dims"):
        tt_inner(x, (h, x))
    with pytest.raises(ValueError, match="mode dimension"):
        tt_inner(y, (h, y))


@pytest.mark.parametrize("dims,ranks", [
    ((2, 3, 2), [(1, 2, 3, 1), (1, 1, 1, 1), (1, 2, 2, 1)]),
    ((5,), [(1, 1), (1, 1), (1, 1), (1, 1)]),
], ids=["unequal-ranks", "d1"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_gram_matches_dense(rng, field, dims, ranks):
    trains = [random_tt(rng, dims, r, field) for r in ranks]
    vs = np.stack([oracle_vector(t) for t in trains], axis=1)
    expect = vs.conj().T @ vs
    assert_allclose(tt_gram(trains), expect, rtol=1e-12)


def test_gram_dims_mismatch(rng):
    with pytest.raises(ValueError, match="dimension"):
        tt_gram([random_tt(rng, (2, 3), (1, 2, 1)), random_tt(rng, (3, 2), (1, 2, 1))])


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
    # A complex train of other ranks, some beyond what the dims can hold.
    w = random_tt(rng, dims, (1, 3, 1, 4, 1), "complex")
    w = tt_scale(w, xn / np.linalg.norm(oracle_vector(w)))
    expect = np.linalg.norm(oracle_vector(x) - oracle_vector(w))
    for a, b in ((x, w), (w, x)):
        assert abs(tt_residual_norm(a, b) - expect) < 10 * np.finfo(float).eps * xn


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_residual_norm_is_the_orthogonalized_difference_exactly(rng, field, d):
    # Forming only the R factors gives the very bytes of the full QR sweep.
    dims = (2, 3, 2, 3, 2)[:d]
    x = random_tt(rng, dims, tt_feasible_ranks(dims, 3), field)
    for y in (random_tt(rng, dims, tt_feasible_ranks(dims, 2), field),
              random_tt(rng, dims, tt_feasible_ranks(dims, 4), "complex")):
        diff = tt_orthogonalize(TTSum([x, y], [1.0, -1.0]), "left")
        assert tt_residual_norm(x, y) == np.linalg.norm(diff.cores[-1])


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
    if direction == "left":
        # A sum is swept from its terms, one of them an operator applied.
        h = TTOperator([rng.standard_normal((a, n, n, b)) for a, n, b in
                        zip((1, 2, 3, 2), x.dims, (2, 3, 2, 1))])
        y = tt_orthogonalize(TTSum([(h, x), x], [0.5, -1.0 + 0.3j]), "left")
        expect = 0.5 * tto_dense(h) @ oracle_vector(x) + (-1.0 + 0.3j) * oracle_vector(x)
        assert rel_err(oracle_vector(y), expect) < 1e-12
        assert is_orthogonal(y, "left")


def test_orthogonalize_sum_left_mode_only(rng):
    x = random_tt(rng, (2, 3, 2), (1, 2, 2, 1))
    with pytest.raises(ValueError, match="left mode only"):
        tt_orthogonalize(TTSum([x, x], [1.0, 2.0]), "right")


def test_orthogonalize_idempotent_tensor(rng):
    x = random_tt(rng, (2, 2, 2), (1, 2, 2, 1))
    y = tt_orthogonalize(x, "right")
    z = tt_orthogonalize(y, "right")
    assert rel_err(oracle_vector(z), oracle_vector(x)) < 1e-12


def test_orthogonality_check_definitions(rng):
    x = random_tt(rng, (2, 3, 2), (1, 2, 3, 1))
    y = tt_orthogonalize(x, "right")
    for c in y.cores[1:]:
        m = c.reshape(c.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < 1e-12
    z = tt_orthogonalize(x, "left")
    for c in z.cores[:-1]:
        m = c.reshape(-1, c.shape[2])
        assert np.abs(m.conj().T @ m - np.eye(m.shape[1])).max() < 1e-12


def test_linear_combination_dense(rng):
    terms = [random_tt(rng, (2, 3, 2), (1, 2, 2, 1)) for _ in range(3)]
    coeffs = [0.5, -1.5, 2.0]
    out = tt_linear_combination(terms, coeffs)
    expect = sum(a * oracle_vector(t) for a, t in zip(coeffs, terms))
    assert rel_err(oracle_vector(out), expect) < 1e-12
    assert out.ranks == (1, 6, 6, 1)
    # one term, and complex coefficients on terms of unequal ranks
    one = tt_linear_combination(terms[:1], [-1.5])
    assert_allclose(oracle_vector(one), -1.5 * oracle_vector(terms[0]), rtol=1e-15)
    assert one.ranks == terms[0].ranks
    terms[1] = random_tt(rng, (2, 3, 2), (1, 1, 3, 1))
    coeffs = [0.5 - 2j, 1j, 2.0]
    out = tt_linear_combination(terms, coeffs)
    expect = sum(a * oracle_vector(t) for a, t in zip(coeffs, terms))
    assert rel_err(oracle_vector(out), expect) < 1e-12
    assert out.ranks == (1, 5, 7, 1) and out.field == "complex"


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


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        rng_for(-1, 1, 0)
    with pytest.raises(ValueError, match="seed"):
        tt_random((2, 2), (1, 2, 1), seed=-1)


def test_random_trains_keep_their_draws():
    # tt_random and the left sketch of STTASketchPair draw core k from
    # rng_for(seed, stream, 0, k); the digest pins those streams for seeds
    # below 2**32.
    h = hashlib.sha256()
    for seed in (0, 7, 12345, 2 ** 32 - 1):
        for field in ("real", "complex"):
            for c in tt_random((2, 3, 4, 2), (1, 2, 3, 2, 1), field=field, seed=seed).cores:
                h.update(c.tobytes())
            for c in STTASketchPair((2, 3, 4, 2), (1, 2, 3, 2, 1), field=field,
                                    seed=seed).left_cores:
                h.update(c.tobytes())
    assert h.hexdigest()[:16] == "2bc0b795dbbb1d5c"


STREAMS = [STREAM_TT, STREAM_SKETCH, STREAM_STTA_LEFT, STREAM_EXPERIMENT]


def batched_draws(seed, stream, dims, P):
    """(drawn, reference) core pairs: core k of a batch is one draw from rng_for.

    A train draws core k from rng_for(seed, stream, 0, k); a sketch draws
    core k of all P blocks at once from rng_for(seed, STREAM_SKETCH, k).
    """
    ranks = (1,) + (2,) * (len(dims) - 1) + (1,)
    pairs = []
    for k, c in enumerate(tt_random(dims, ranks, seed=seed, stream=stream).cores):
        pairs.append((c, gaussian(rng_for(seed, stream, 0, k), c.shape, "real")))
    for k, c in enumerate(tt_random(dims, ranks, "complex", seed, stream).cores):
        pairs.append((c, gaussian(rng_for(seed, stream, 0, k), c.shape, "complex")))
    if stream == STREAM_STTA_LEFT:
        left = STTASketchPair(dims, ranks, field="complex", seed=seed).left_cores
        for k, c in enumerate(left):
            ref = gaussian(rng_for(seed, stream, 0, k), c.shape, "complex",
                           scale=np.sqrt(1.0 / ranks[k]))
            pairs.append((c, ref))
    if stream == STREAM_SKETCH:
        sk = make_sketch(SketchSpec("khatri_rao", tuple(dims), P=P, seed=seed))
        for k, c in enumerate(sk.cores):
            pairs.append((c, gaussian(rng_for(seed, stream, k), (P, 1, dims[k], 1), "real")))
    return pairs


def assert_batched_draws(seed, stream, dims, P):
    for got, ref in batched_draws(seed, stream, dims, P):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    # Every bit of the seed keys the stream: flipping bit 32 moves each core.
    for (a, _), (b, _) in zip(batched_draws(seed, stream, dims, P),
                              batched_draws(seed ^ 2 ** 32, stream, dims, P)):
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32 + 5, 10 ** 12])
def test_batched_streams_match_rng_for(seed, stream):
    # Seeds of 2**32 and above are used in full, not masked to 32 bits.
    assert_batched_draws(seed, stream, (2, 3, 2, 4), P=5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 40), stream=st.integers(0, 2 ** 32 - 1),
       dims=st.lists(st.integers(2, 4), min_size=1, max_size=4),
       P=st.integers(1, 6))
@example(seed=5, stream=STREAM_SKETCH, dims=[2], P=1)
@example(seed=2 ** 32 - 1, stream=STREAM_SKETCH, dims=[3, 2, 2], P=6)
def test_batched_streams_match_rng_for_fuzz(seed, stream, dims, P):
    # Covers one-core trains, single-block sketches, and edge seeds.
    assert_batched_draws(seed, stream, tuple(dims), P)


def test_stacked_train_rows_are_the_trains():
    trains = [tt_random((2, 3, 2), r, seed=s) for s, r in
              enumerate([(1, 2, 2, 1), (1, 1, 3, 1), (1, 2, 1, 1)])]
    stacked = _stacked_train(trains)
    assert stacked.ranks[0] == 3 and stacked.ranks[-1] == 1
    dense = tt_dense(stacked)
    for i, t in enumerate(trains):
        assert_allclose(dense[i], tt_dense(t), rtol=1e-14, atol=1e-15)
    one = _stacked_train([tt_random((4,), (1, 1), seed=1)] * 2)
    assert tt_dense(one).shape == (2, 4)


def test_feasible_ranks_capped():
    assert tt_feasible_ranks((2, 2, 2), 100) == (1, 2, 2, 1)
    assert tt_feasible_ranks((2, 2, 2, 2), 100) == (1, 2, 4, 2, 1)
    assert tt_feasible_ranks((4, 4, 4, 4), 3) == (1, 3, 3, 3, 1)
    # The caps are exact products, also beyond 64 bits.
    assert tt_feasible_ranks((2,) * 140, 2 ** 80)[70] == 2 ** 70


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 3), (4, 1, 3, 2), (2, 2, 2, 2, 2)])
def test_feasible_ranks_are_the_ranks_of_a_generic_tensor(rng, dims):
    # The TT-SVD of a random dense tensor has the largest ranks its dims
    # allow; capped at r, those are the feasible ranks.
    a = rng.standard_normal(dims)
    for r in (1, 2, 3, 5, 100):
        assert tt_feasible_ranks(dims, r) == tt_from_dense(a, dims, max_rank=r).ranks


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
