import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import is_orthogonal, oracle_dense, oracle_vector, rel_err, stta_streams_add
from ttsketch import tt
from ttsketch.cli import run_hadamard
from ttsketch.contract import sketch_hadamard, sketch_linear_combination
from ttsketch.qtt import hadamard_experiment_factors
from ttsketch.rounding import (
    STTASketchPair,
    _svd,
    pinv_trunc,
    stta,
    stta_assemble,
    stta_streams,
    tt_rand_round,
    tt_round,
)
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import (
    TensorTrain,
    TTOperator,
    TTSum,
    tt_dense,
    tt_hadamard_assemble,
    tt_linear_combination,
    tt_norm,
    tt_orthogonalize,
    tt_random,
    tt_residual_norm,
    tt_scale,
    tto_apply_assemble,
    tto_dense,
)

DIMS = (2, 3, 2, 3, 2)


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
def test_svd_falls_back_to_the_conjugate_transpose(monkeypatch, rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    real_svd = np.linalg.svd

    def failing_svd(m, **kwargs):
        if m is a:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(m, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    u, s, vh = _svd(a)
    k = min(shape)
    assert u.shape == (shape[0], k) and vh.shape == (k, shape[1])
    assert_allclose((u * s) @ vh, a, atol=1e-12)
    assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
    assert_allclose(s, real_svd(a, compute_uv=False), atol=1e-12)
RANKS = (1, 2, 3, 3, 2, 1)


def make_x(seed, ranks=RANKS, field="real"):
    return tt_random(DIMS, ranks, field=field, seed=seed)


def inflate(x, extra=2):
    """Same tensor padded to artificially larger bond ranks."""
    pad = tt_random(x.dims, [1] + [extra] * (x.d - 1) + [1], seed=999)
    return tt_linear_combination([x, tt_scale(pad, 0.0)], [1.0, 1.0])


def err(a, b):
    # dense comparison avoids the sqrt(eps) cancellation floor of the
    # inner-product norm on near-zero differences
    da, db = tt_dense(a), tt_dense(b)
    return np.linalg.norm(da - db) / np.linalg.norm(db)


# ---------------------------------------------------------------- tt_round

def test_round_requires_some_target():
    with pytest.raises(ValueError):
        tt_round(make_x(0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_round_identity_at_current_ranks(field):
    x = make_x(1, field=field)
    y = tt_round(x, max_ranks=list(RANKS))
    assert err(y, x) < 1e-12
    assert is_orthogonal(y, "right")


def test_round_recovers_inflated_ranks():
    x = make_x(2)
    y = tt_round(inflate(x), max_ranks=list(RANKS))
    assert err(y, x) < 1e-11
    assert y.ranks == RANKS


def test_round_optimal_truncation_small():
    # single interior bond: rounding must match the truncated SVD optimum
    x = tt_random((3, 4), (1, 3, 1), seed=3)
    m = oracle_vector(x).reshape(3, 4)
    s = np.linalg.svd(m, compute_uv=False)
    y = tt_round(x, max_ranks=[1, 1, 1])
    expect = np.sqrt(np.sum(s[1:] ** 2))
    got = tt_norm(tt_linear_combination([x, y], [1.0, -1.0]))
    assert_allclose(got, expect, rtol=1e-10)


def test_round_error_decomposition_dense():
    # total squared error = sum over sweep steps of discarded sigma^2
    x = tt_random((2, 3, 2, 2), (1, 2, 4, 2, 1), seed=4)
    caps = [1, 1, 2, 1, 1]
    left = tt_orthogonalize(x, "left")
    cores = [c.copy() for c in left.cores]
    discarded = 0.0
    for k in range(len(cores) - 1, 0, -1):
        r1, n, r2 = cores[k].shape
        u, s, vh = np.linalg.svd(cores[k].reshape(r1, n * r2), full_matrices=False)
        keep = min(caps[k], s.size)
        discarded += np.sum(s[keep:] ** 2)
        cores[k] = vh[:keep].reshape(keep, n, r2)
        cores[k - 1] = np.tensordot(cores[k - 1], u[:, :keep] * s[:keep], axes=(2, 0))
    y = tt_round(x, max_ranks=caps)
    total = tt_norm(tt_linear_combination([x, y], [1.0, -1.0])) ** 2
    assert_allclose(total, discarded, rtol=1e-8)


def test_round_tolerance_mode():
    x = make_x(5)
    noise = tt_random(DIMS, (1, 2, 2, 2, 2, 1), seed=6)
    noisy = tt_linear_combination(
        [x, tt_scale(noise, 1e-8 * tt_norm(x) / tt_norm(noise))], [1.0, 1.0])
    y = tt_round(noisy, tol=1e-6)
    assert err(y, noisy) < 1e-6
    assert all(ry <= rx for ry, rx in zip(y.ranks, RANKS))


# ----------------------------------------------------------- tt_rand_round

@pytest.mark.parametrize("field", ["real", "complex"])
def test_rand_round_exact_recovery(field):
    x = make_x(7, field=field)
    y = tt_rand_round(inflate(x), list(RANKS), seed=1)
    assert err(y, x) < 1e-10
    assert is_orthogonal(y, "left")


def test_rand_round_oversampled_sketch():
    # PR larger than the target rank goes through the truncated rangefinder
    x = make_x(8)
    sk = make_sketch(SketchSpec("tts", DIMS, P=3, R=4, seed=2))
    y = tt_rand_round(inflate(x), 3, sk=sk)
    assert err(y, x) < 1e-10


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (4, 3, 2)])
def test_rand_round_ranks_within_tail_size(dims):
    # Every bond of x is 4, above the tail size prod(dims[k:]) near the end;
    # the rounded ranks must be feasible, by the default sketch and by an
    # oversampled one alike.
    d = len(dims)
    x = tt_random(dims, (1,) + (4,) * (d - 1) + (1,), seed=21)
    for sk in (None, make_sketch(SketchSpec("tts", dims, P=3, R=4, seed=4))):
        y = tt_rand_round(x, 4, sk=sk)
        assert all(y.ranks[k] <= math.prod(dims[k:]) for k in range(1, d))
        assert err(y, x) < 1e-10


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dims, caps, pattern", [
    ((3,), 2, [1, 1]),
    ((2, 3), 2, [2, 2, 1]),
    ((2, 3, 2, 2), 3, [3, 3, 3, 3, 1]),
    ((2, 3, 2, 2), [1, 2, 3, 2, 1], [3, 3, 3, 3, 1]),
    ((2, 3, 2, 3, 2), [1, 2, 4, 4, 2, 1], [4, 4, 4, 4, 4, 1]),
])
def test_rand_round_default_sketch_is_a_gaussian_chain(field, dims, caps, pattern):
    # The default sketch is gaussian_tt at R = the largest inner cap, at
    # least 1.
    d = len(dims)
    x = tt_random(dims, (1,) + (4,) * (d - 1) + (1,), field=field, seed=23)
    sk = make_sketch(SketchSpec("gaussian_tt", dims, R=pattern[0], field=field, seed=9))
    assert sk.spec.bond_pattern() == pattern
    a, b = tt_rand_round(x, caps, seed=9), tt_rand_round(x, caps, sk=sk)
    for ca, cb in zip(a.cores, b.cores):
        np.testing.assert_array_equal(ca, cb)


@pytest.mark.parametrize("R", [1, 2, 4, 8, 16])
def test_rand_round_hadamard_bonds_within_target_are_exact(R):
    # The default hadamard product (bits = 20, d = 60) has rank 18, below
    # the target 30: the first 55 bonds are orthogonalized exactly, and the
    # last four are cut only to their tail sizes 16, 8, 4 and 2, within
    # the tensor's rank there, so every bond keeps at most its input rank
    # and nothing is lost, whatever the sketch.
    _, factors = hadamard_experiment_factors(20)
    x = tt_hadamard_assemble(factors)
    target = 30
    sk = make_sketch(SketchSpec("tts", x.dims, P=2 * target // R, R=R, seed=1000003 + R))
    y = tt_rand_round(x, target, partials=sketch_hadamard(sk, factors))
    assert all(ry <= min(rx, target) for ry, rx in zip(y.ranks, x.ranks))
    assert tt_residual_norm(x, y) <= 1e-13 * tt_norm(x)
    assert is_orthogonal(y, "left")


def test_rand_round_hadamard_below_product_rank(tmp_path):
    # Target 12 is below the product rank 18, so the sketched path runs.
    # Block ranks 8 and 16 keep to the regime the tts guarantees cover (R
    # growing with d = 60); R = 1 Khatri-Rao blocks blow up in d and exceed
    # 50x at about half of all seeds.  The rows at seed 0 read 1.6x to 2.7x
    # the deterministic error, and seeds 0-29 at most 18x; 50x still fails
    # a sketched path that loses the range (error ~ 1).
    run_hadamard({"target_rank": 12, "trials": 2, "R_list": [8, 16]}, 0, str(tmp_path))
    with open(tmp_path / "hadamard.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    det = [float(r["rel_error"]) for r in rows if r["method"] == "deterministic"]
    rnd = [float(r["rel_error"]) for r in rows if r["method"] == "randomized"]
    assert len(det) == 1 and len(rnd) == 2 * 2
    assert all(math.isfinite(e) and e <= 50 * det[0] for e in rnd)


def test_rand_round_accepts_precomputed_partials():
    from ttsketch.contract import partial_contractions
    x = make_x(9)
    sk = make_sketch(SketchSpec("tts", DIMS, P=2, R=3, seed=3))
    ps = partial_contractions(sk, x)
    y1 = tt_rand_round(x, 3, sk=sk)
    y2 = tt_rand_round(x, 3, partials=ps)
    assert err(y1, y2) < 1e-12


def test_rand_round_truncation_reasonable():
    # truncating a noisy tensor: randomized error within a modest factor of
    # the deterministic sweep
    x = make_x(10)
    noise = tt_random(DIMS, (1, 2, 2, 2, 2, 1), seed=11)
    noisy = tt_linear_combination(
        [x, tt_scale(noise, 1e-3 * tt_norm(x) / tt_norm(noise))], [1.0, 1.0])
    det = tt_round(noisy, 2)
    errs = []
    for s in range(10):
        rnd = tt_rand_round(noisy, 2, seed=s)
        errs.append(err(rnd, noisy))
    assert np.median(errs) <= 3 * err(det, noisy)


# ----------------------------------------------------- tt_rand_round of sums

SUM_DIMS = {1: (3,), 2: (2, 3), 6: (2, 3, 2, 2, 3, 2)}


def random_operator(dims, rank, seed):
    rng = np.random.default_rng(seed)
    bonds = [1] + [rank] * (len(dims) - 1) + [1]
    return TTOperator([rng.standard_normal((bonds[k], n, n, bonds[k + 1]))
                       for k, n in enumerate(dims)])


def sum_case(d, coefficient_field):
    """A TTSum of two plain and two (operator, train) terms, and its assembly."""
    dims = SUM_DIMS[d]

    def ranks(r):
        return [1] + [r] * (d - 1) + [1]

    x1 = tt_random(dims, ranks(2), seed=31)
    x2 = tt_random(dims, ranks(3), field="complex", seed=32)
    x3 = tt_random(dims, ranks(2), seed=33)
    h1, h2 = random_operator(dims, 2, 34), random_operator(dims, 3, 35)
    coefficients = [0.7, -1.3, 0.4, 2.1]
    if coefficient_field == "complex":
        coefficients = [0.7 - 0.2j, -1.3, 0.4 + 1.1j, 2.1j]
    terms = [(h1, x1), x2, (h2, x3), x3]
    assembled = tt_linear_combination(
        [tto_apply_assemble(h1, x1), x2, tto_apply_assemble(h2, x3), x3], coefficients)
    dense = sum(a * (tto_dense(t[0]) @ oracle_vector(t[1]) if isinstance(t, tuple)
                     else oracle_vector(t))
                for a, t in zip(coefficients, terms))
    return TTSum(terms, coefficients), assembled, dense


@pytest.mark.parametrize("coefficient_field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 6])
def test_rand_round_sum_matches_dense_when_every_bond_fits(d, coefficient_field):
    s, _, dense = sum_case(d, coefficient_field)
    y = tt_rand_round(s, 1000, seed=3)
    assert rel_err(oracle_vector(y), dense) < 1e-12
    assert is_orthogonal(y, "left")


@pytest.mark.parametrize("coefficient_field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 6])
def test_rand_round_sum_matches_assembled_train_at_cut_bonds(d, coefficient_field):
    # Same partial sketches, so the two routes differ only by round-off.
    # Eight sketch columns take the SVD at a cut bond, three at target 3
    # take the QR of the sketched unfolding.
    s, assembled, _ = sum_case(d, coefficient_field)
    for (p, r), target in (((2, 4), 2), ((2, 4), 3), ((1, 3), 3)):
        sk = make_sketch(SketchSpec("tts", s.dims, P=p, R=r, field="complex", seed=8))
        ps = sketch_linear_combination(sk, s.terms, s.coefficients)
        y = tt_rand_round(s, target, partials=ps)
        ref = tt_rand_round(assembled, target, partials=ps)
        assert y.ranks == ref.ranks
        assert rel_err(oracle_vector(y), oracle_vector(ref)) < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rand_round_train_is_the_one_term_sum(field):
    x = make_x(16, field=field)
    for sk in (None, make_sketch(SketchSpec("tts", DIMS, P=3, R=2, field=field, seed=9))):
        for target in (2, 3, 6):
            y = tt_rand_round(x, target, sk=sk, seed=4)
            z = tt_rand_round(TTSum([x], [1.0]), target, sk=sk, seed=4)
            assert all(np.array_equal(a, b) for a, b in zip(y.cores, z.cores))
    # The exact routes run the same sweep for both inputs too.
    one = TTSum([x], [1.0])
    pairs = [(tt_orthogonalize(x, "left"), tt_orthogonalize(one, "left"))]
    pairs += [(tt_round(x, target), tt_round(one, target)) for target in (2, 3, 6)]
    for y, z in pairs:
        assert all(np.array_equal(a, b) for a, b in zip(y.cores, z.cores))


@pytest.mark.parametrize("coefficient_field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 6])
def test_round_sum_matches_round_of_assembled_train(d, coefficient_field):
    s, assembled, dense = sum_case(d, coefficient_field)
    y = tt_round(s, 1000)
    assert rel_err(oracle_vector(y), dense) < 1e-12
    if d > 1:
        assert is_orthogonal(TensorTrain(y.cores[1:]), "right")
    for kwargs in ({"max_ranks": 2}, {"max_ranks": 3}, {"tol": 0.3}, {"max_ranks": 3, "tol": 0.1}):
        y = tt_round(s, **kwargs)
        ref = tt_round(assembled, **kwargs)
        assert y.ranks == ref.ranks
        assert rel_err(oracle_vector(y), oracle_vector(ref)) < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_round_one_term_sum_matches_train(field):
    x = make_x(18, field=field)
    for target in (2, 3, 6):
        y = tt_round(TTSum([x], [1.0]), target)
        ref = tt_round(x, target)
        assert y.ranks == ref.ranks
        assert rel_err(oracle_vector(y), oracle_vector(ref)) < 1e-12


def test_ttsum_rejects_malformed_terms():
    x = make_x(17)
    h = random_operator(DIMS, 2, 36)
    with pytest.raises(ValueError, match="one coefficient per term"):
        TTSum([x, x], [1.0])
    with pytest.raises(ValueError, match="empty"):
        TTSum([], [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        TTSum([x, tt_random((2, 3), (1, 2, 1))], [1.0, 1.0])
    with pytest.raises(ValueError, match="operator input dims"):
        TTSum([(random_operator((2, 3), 2, 37), x)], [1.0])
    with pytest.raises(ValueError, match="pair"):
        TTSum([(x, h)], [1.0])
    with pytest.raises(ValueError, match="block trains"):
        TTSum([TensorTrain([np.ones((2, 2, 1))])], [1.0])
    with pytest.raises(ValueError, match="pair"):
        TTSum([np.ones(3)], [1.0])


# ------------------------------------------------------------------- stta

@pytest.mark.parametrize("field", ["real", "complex"])
def test_stta_exact_recovery(field):
    x = make_x(12, field=field)
    y = stta(inflate(x), list(RANKS), seed=5)
    assert err(y, x) < 1e-8


def test_stta_streaming_linearity():
    pair = STTASketchPair(DIMS, list(RANKS), seed=6)
    x = make_x(13)
    y = make_x(14, (1, 2, 2, 2, 2, 1))
    sx = stta_streams(x, pair)
    sy = stta_streams(y, pair)
    combo = tt_linear_combination([x, y], [1.0, -2.5])
    direct = stta_streams(combo, pair)
    added = stta_streams_add(sx, sy, beta=-2.5)
    for (sa, za), (sb, zb) in zip(added, direct):
        assert np.abs(sa - sb).max() < 1e-10
        assert np.abs(za - zb).max() < 1e-10
    a1 = stta_assemble(added)
    a2 = stta_assemble(direct)
    assert err(a1, a2) < 1e-10


def test_left_sweep_invariant():
    # the left sketch of stta_streams: V_k pairs modes 1..k of chain and
    # train; with an (operator, train) pair, of chain and the product h x
    dims = (2, 3, 2, 2)
    x = tt_random(dims, (1, 2, 3, 2, 1), seed=61)
    chain = STTASketchPair(dims, [1, 2, 3, 2, 1], seed=4).left_cores
    rng = np.random.default_rng(62)
    h = TTOperator([rng.standard_normal((a, n, n, b))
                    for a, n, b in zip((1, 2, 2, 3), dims, (2, 2, 3, 1))])
    hx = tto_apply_assemble(h, x)  # the dense oracle's input only
    for ops, y in [(x.cores, x), (list(zip(h.cores, x.cores)), hx)]:
        vs = tt._left_sweep(chain, ops, np.ones((1, 1)))
        for k in range(1, len(dims) + 1):
            g_head = oracle_dense(TensorTrain(chain[:k]))
            y_head = oracle_dense(TensorTrain(y.cores[:k]))
            g_head = g_head.reshape(-1, chain[k - 1].shape[2])
            y_head = y_head.reshape(-1, y.cores[k - 1].shape[2])
            expect = g_head.T @ y_head
            assert rel_err(vs[k - 1], expect) < 1e-12


def test_stta_oversampling_lists():
    x = make_x(15)
    y = stta(inflate(x), list(RANKS), oversample=[0, 1, 2, 2, 1, 0], seed=7)
    assert err(y, x) < 1e-8


@pytest.mark.parametrize("dims, ranks, oversample, pattern", [
    ((3,), 2, None, [1, 1]),
    (DIMS, list(RANKS), None, [6] * 5 + [1]),
    (DIMS, list(RANKS), 1, [4] * 5 + [1]),
    ((2, 3, 2, 2), [1, 2, 3, 2, 1], [0, 2, 1, 0, 5], [4] * 4 + [1]),
])
def test_stta_right_sketch_bonds(dims, ranks, oversample, pattern):
    # The right sketch is gaussian_tt at R = the largest inner bond of ranks
    # plus oversample.
    pair = STTASketchPair(dims, ranks, oversample=oversample, seed=2)
    assert pair.right.spec.bond_pattern() == pattern


def test_stta_oversample_forms():
    # A scalar oversample is the list with it at every inner bond; a list
    # must have d + 1 entries.
    d = len(DIMS)
    x = make_x(16)
    scalar = stta(x, list(RANKS), oversample=2, seed=8)
    listed = stta(x, list(RANKS), oversample=[0] + [2] * (d - 1) + [0], seed=8)
    for ca, cb in zip(scalar.cores, listed.cores):
        np.testing.assert_array_equal(ca, cb)
    for bad in ([2] * d, [2] * (d + 2)):
        with pytest.raises(ValueError, match="d\\+1"):
            STTASketchPair(DIMS, list(RANKS), oversample=bad)
        with pytest.raises(ValueError, match="d\\+1"):
            stta(x, list(RANKS), oversample=bad)


# ------------------------------------------------- rank arguments

@pytest.mark.parametrize("call,key", [
    (lambda x: tt_round(x, 2.5), "max_ranks"),
    (lambda x: tt_round(x, 0), "max_ranks"),
    (lambda x: tt_round(x, -1), "max_ranks"),
    (lambda x: tt_round(x, [1, 2, 2.0, 2, 2, 1]), "max_ranks"),
    (lambda x: tt_rand_round(x, True), "max_ranks"),
    (lambda x: tt_rand_round(x, 0), "max_ranks"),
    (lambda x: stta(x, 0), "ranks"),
    (lambda x: stta(x, "3"), "ranks"),
    (lambda x: stta(x, 2, oversample=-1), "oversample"),
    (lambda x: STTASketchPair(x.dims, 2, oversample=[0, 1, 1.5, 1, 1, 0]), "oversample"),
], ids=["float", "zero", "negative", "float-entry", "bool", "rand-zero", "stta-zero",
        "stta-str", "negative-oversample", "float-oversample-entry"])
def test_rank_arguments_must_be_integers(call, key):
    # These used to round at int(r) or at rank 1, or fail inside numpy
    # (tt_rand_round at 0) or with a ZeroDivisionError (stta at 0).
    with pytest.raises(ValueError, match=repr(key)):
        call(make_x(18))


def test_numpy_integer_ranks_round_as_ints():
    x = make_x(19)
    pairs = [(tt_round(x, 2), tt_round(x, np.int64(2))),
             (tt_rand_round(x, 2, seed=3), tt_rand_round(x, np.int32(2), seed=3)),
             (stta(x, list(RANKS), oversample=0, seed=3),
              stta(x, [np.int64(r) for r in RANKS], oversample=np.uint8(0), seed=3))]
    for a, b in pairs:
        for ca, cb in zip(a.cores, b.cores, strict=True):
            np.testing.assert_array_equal(ca, cb)


# ------------------------------------------------------------- pinv_trunc

def test_pinv_trunc_matches_pinv():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 6))
    assert_allclose(pinv_trunc(a), np.linalg.pinv(a), atol=1e-10)


def test_pinv_trunc_drops_tiny_singular_values():
    u = np.eye(3)
    s = np.array([1.0, 1e-16, 0.0])
    a = u * s
    p = pinv_trunc(a, rcond=1e-12)
    assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
