import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import oracle_vector, rel_err
from ttsketch.rounding import (
    STTASketchPair,
    pinv_trunc,
    stta,
    stta_assemble,
    stta_streams,
    stta_streams_add,
    tt_rand_round,
    tt_round,
)
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import (
    is_orthogonal,
    tt_dense,
    tt_linear_combination,
    tt_norm,
    tt_orthogonalize,
    tt_random,
    tt_scale,
)

DIMS = (2, 3, 2, 3, 2)
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


def test_stta_oversampling_lists():
    x = make_x(15)
    y = stta(inflate(x), list(RANKS), oversample=[0, 1, 2, 2, 1, 0], seed=7)
    assert err(y, x) < 1e-8


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
