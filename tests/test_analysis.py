import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import mc_moment_samples, oracle_entry

from ttsketch.analysis import (
    as_mask,
    cq_upper_bound,
    empirical_spectrum,
    entanglement_constant,
    gamma_empty_closed_form,
    gamma_sum,
    gamma_table,
    isotropy_samples,
    mc_moment_matrix,
    mc_moment_tensor,
    moment_identity_matrix,
    moment_subset_bound,
    ose_sufficient_params,
    osi_sufficient_P,
    p_field,
    partial_trace,
    rounding_error_constant,
    rsvd_constant,
)
from ttsketch.cli import _kron_basis
from ttsketch.sketch import SketchSpec, make_sketch
from ttsketch.tt import tt_from_dense, tt_random


# ------------------------------------------------------------ subsets

def test_as_mask_forms():
    assert as_mask([0, 2], 3) == 5
    assert as_mask(5, 3) == 5
    assert as_mask([], 3) == 0
    with pytest.raises(ValueError):
        as_mask([3], 3)
    with pytest.raises(ValueError):
        as_mask(8, 3)


def test_p_field():
    assert p_field("real") == 2
    assert p_field("complex") == 1
    with pytest.raises(ValueError):
        p_field("quaternion")


# ------------------------------------------------------- partial traces

def brute_partial_trace(s, dims, inside):
    """Index-by-index reference implementation."""
    d = len(dims)
    outside = [k for k in range(d) if k not in inside]
    nc = int(np.prod([dims[k] for k in outside])) if outside else 1
    out = np.zeros((nc, nc), dtype=np.asarray(s).dtype)
    t = np.asarray(s).reshape(tuple(dims) * 2)
    for ridx, row in enumerate(itertools.product(*[range(dims[k]) for k in outside])):
        for cidx, col in enumerate(itertools.product(*[range(dims[k]) for k in outside])):
            acc = 0.0
            for tr in itertools.product(*[range(dims[k]) for k in inside]):
                ia = [0] * d
                ib = [0] * d
                for k, v in zip(outside, row):
                    ia[k] = v
                for k, v in zip(outside, col):
                    ib[k] = v
                for k, v in zip(inside, tr):
                    ia[k] = v
                    ib[k] = v
                acc += t[tuple(ia) + tuple(ib)]
            out[ridx, cidx] = acc
    return out


@pytest.mark.parametrize("inside", [[], [0], [1], [2], [0, 2], [0, 1, 2]])
def test_partial_trace_matches_brute_force(inside):
    dims = (2, 3, 2)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((12, 12))
    got = partial_trace(s, dims, inside)
    assert_allclose(got, brute_partial_trace(s, dims, inside), atol=1e-12)


def test_partial_trace_preserves_trace():
    dims = (2, 2, 3)
    rng = np.random.default_rng(1)
    s = rng.standard_normal((12, 12))
    for mask in range(8):
        assert_allclose(np.trace(partial_trace(s, dims, mask)), np.trace(s))


def test_partial_trace_full_subset_is_trace():
    dims = (2, 3)
    rng = np.random.default_rng(2)
    s = rng.standard_normal((6, 6))
    assert partial_trace(s, dims, [0, 1]).shape == (1, 1)
    assert_allclose(partial_trace(s, dims, [0, 1])[0, 0], np.trace(s))


def test_partial_trace_positivity():
    # partial traces of a psd matrix are psd
    dims = (2, 2, 2)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    s = a @ a.T
    for mask in range(8):
        w = np.linalg.eigvalsh(partial_trace(s, dims, mask))
        assert w.min() > -1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2 ** 31 - 1))
def test_partial_trace_norm_inequality(mask, seed):
    # tracing out modes cannot increase the nuclear-dominated Frobenius norm
    # of a rank-one psd matrix beyond its trace
    dims = (2, 2, 2)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8)
    v = v / np.linalg.norm(v)
    t = partial_trace(np.outer(v, v), dims, mask)
    f = np.linalg.norm(t)
    assert f <= 1.0 + 1e-12
    assert f >= np.trace(t) / np.sqrt(t.shape[0]) - 1e-12


# --------------------------------------------------------------- gamma

@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("R", [1, 2, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_gamma_sum_identity(d, R, field):
    g = gamma_table(d, R, field)
    assert abs(sum(g.values()) - gamma_sum(d, R, field)) < 1e-12
    assert g[(1 << d) - 1] == 1.0


def test_gamma_nonnegative():
    for d in (2, 4, 6):
        g = gamma_table(d, 3, "real")
        assert all(v >= 0 for v in g.values())


def test_gamma_d1_by_hand():
    # one mode, R=2, real: out[0] = 1 + 1/2, wait, start g={1:1, 0:0} and the
    # final fold gives out[0] = (1 + (p-1)/R)*0 + (p/R)*1 and out[1] = 0 + 1
    g = gamma_table(1, 2, "real")
    assert_allclose(g[0], 1.0)
    assert_allclose(g[1], 1.0)
    gc = gamma_table(1, 2, "complex")
    assert_allclose(gc[0], 0.5)
    assert_allclose(gc[1], 1.0)


def test_gamma_d2_by_hand():
    # two modes, complex, R: interior step then fold, tracked by hand
    R = 4.0
    g = gamma_table(2, R, "complex")
    # interior from {1:1, 0:0}: new[0] = 1/R, new[3] = 1; fold on mode 1:
    # out[0] = 1/R, out[1] = 1/R, out[2] = 1/R^2, out[3] = 1
    assert_allclose(g[0], 1.0 / R)
    assert_allclose(g[1], 1.0 / R)
    assert_allclose(g[2], 1.0 / R ** 2)
    assert_allclose(g[3], 1.0)
    assert abs(sum(g.values()) - (1 + 1 / R) ** 2) < 1e-14


def test_gamma_empty_closed_form_matches_recursion():
    for d in (1, 2, 3, 5, 8):
        for R in (1, 2, 4):
            for field in ("real", "complex"):
                assert_allclose(gamma_table(d, R, field)[0],
                                gamma_empty_closed_form(d, R, field),
                                rtol=1e-12)


def test_cq_upper_bound():
    assert_allclose(cq_upper_bound(3, 2, "real"), 2.0 ** 3 - 1.0)
    assert_allclose(cq_upper_bound(2, 4, "complex"), 1.25 ** 2 - 1.0)


# ------------------------------------------------------ moment identities

@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("form", ["trace", "hs"])
def test_moment_identity_small_mc(field, form):
    rng = np.random.default_rng(7)
    n = 3
    if field == "complex":
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
    est, se, exact = mc_moment_matrix(a, b, R=2, field=field,
                                      nsamples=20000, seed=1, form=form)
    assert abs(est - exact) < 5 * max(se, 1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("form", ["trace", "hs"])
@pytest.mark.parametrize("R, n, nsamples", [(2, 3, 9000), (1, 3, 500), (3, 1, 50)])
def test_mc_moment_matrix_equals_per_sample_reference(field, form, R, n, nsamples):
    # The batched draws and products give the per-sample loop's values bit
    # for bit; 9000 samples cross a batch boundary.
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, n, n))
    if field == "complex":
        a, b = a + 1j * rng.standard_normal((n, n)), b + 1j * rng.standard_normal((n, n))
    est, se, _ = mc_moment_matrix(a, b, R=R, field=field, nsamples=nsamples, seed=5, form=form)
    vals = mc_moment_samples(a, b, R, field, nsamples, seed=5, form=form)
    assert est == vals.mean()
    assert se == vals.std(ddof=1) / np.sqrt(nsamples)


def test_moment_identity_symmetric_trace_real():
    # for symmetric real a = b the trace form reads (tr a)^2 + 2||a||_F^2/R
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    val = moment_identity_matrix(a, a, R=3, field="real", form="trace")
    assert_allclose(val, np.trace(a) ** 2 + 2 * np.linalg.norm(a) ** 2 / 3)


def test_moment_identity_bad_form():
    with pytest.raises(ValueError):
        moment_identity_matrix(np.eye(2), np.eye(2), 1, "real", form="bogus")


def test_moment_subset_bound_identity_matrix():
    # S = I: every partial trace of I_(n^d) has ||Tr_I I||_F^2 = n^{2|I^c|+|I|}
    # pulled through the gamma weights; just check hand value at d=2, n=2
    dims = (2, 2)
    s = np.eye(4)
    R = 2.0
    g = gamma_table(2, R, "real")
    expect = (g[3] * 16 + g[1] * 8 + g[2] * 8 + g[0] * 4)
    assert_allclose(moment_subset_bound(s, dims, R, "real"), expect)


def test_mc_moment_tensor_bound_holds():
    dims = (2, 2, 2)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 8))
    s = a @ a.T
    est, se, bound = mc_moment_tensor(s, dims, R=2, nsamples=4000, seed=2)
    assert est <= bound + 4 * se


# --------------------------------------------------- entanglement constant

def test_entanglement_rank_one_exact():
    dims = (2, 2)
    v = np.zeros(4)
    v[0] = 1.0
    # product state: partial trace is rank one, norm 1
    assert_allclose(entanglement_constant([v], dims, [0]), 1.0)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    # maximally entangled: Tr_0 |bell><bell| = I/2, Frobenius norm 1/sqrt(2)
    assert_allclose(entanglement_constant([bell], dims, [0]), 1 / np.sqrt(2))


def test_entanglement_bounds():
    dims = (2, 2, 2)
    rng = np.random.default_rng(10)
    basis = [rng.standard_normal(8) for _ in range(3)]
    for mask in [1, 3, 5]:
        val = entanglement_constant(basis, dims, mask, n_starts=8, iters=50)
        assert 1 / np.sqrt(8) - 1e-10 <= val <= 1.0 + 1e-10


def test_entanglement_product_vector_in_span():
    # a span containing a product state achieves the maximum value 1
    dims = (2, 2)
    e00 = np.array([1.0, 0, 0, 0])
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    val = entanglement_constant([e00, bell], dims, [0], n_starts=16, iters=400)
    assert_allclose(val, 1.0, atol=1e-4)


def test_entanglement_matches_sphere_grid():
    # two-dimensional real span: compare against a fine 1-parameter grid
    dims = (2, 2)
    rng = np.random.default_rng(11)
    b1 = rng.standard_normal(4)
    b2 = rng.standard_normal(4)
    q, _ = np.linalg.qr(np.stack([b1, b2], axis=1))
    best = 0.0
    for th in np.linspace(0, np.pi, 4001):
        v = np.cos(th) * q[:, 0] + np.sin(th) * q[:, 1]
        best = max(best, np.linalg.norm(
            partial_trace(np.outer(v, v), dims, [0])))
    val = entanglement_constant([b1, b2], dims, [0], n_starts=16, iters=100)
    assert val >= best - 1e-6
    assert val <= best + 1e-4


# ------------------------------------------------------ empirical spectrum

def test_empirical_spectrum_orthogonal_square_case():
    # an orthogonal sketch with as many rows as the ambient space preserves
    # the Gram exactly up to the known scale N / (P R)
    dims = (2, 2, 2)
    spec = SketchSpec("otts", dims, P=2, R=4, seed=0)
    sk = make_sketch(spec)
    rng = np.random.default_rng(12)
    basis = [tt_from_dense(rng.standard_normal(dims), dims, max_rank=4)
             for _ in range(3)]
    [(lo, hi)] = empirical_spectrum(basis, [sk])
    scale = np.prod(dims) / (spec.P * spec.R)
    assert_allclose(lo, scale, rtol=1e-10)
    assert_allclose(hi, scale, rtol=1e-10)


def test_empirical_spectrum_brackets_one_for_tts():
    dims = (2, 2, 2, 2)
    rng = np.random.default_rng(13)
    basis = [tt_from_dense(rng.standard_normal(dims), dims, max_rank=2)
             for _ in range(2)]
    sketches = (make_sketch(SketchSpec("tts", dims, P=30, R=8, seed=s)) for s in (1, 2, 3))
    spectra = empirical_spectrum(basis, sketches)
    assert len(spectra) == 3
    for lo, hi in spectra:
        assert 0 < lo <= hi
        assert lo < 1.6 and hi > 0.4


@pytest.mark.parametrize("P,R,basis_seed,sketch_seed", [
    (32, 1, 0, 1000), (2, 16, 0, 16000), (2, 80, 0, 80000),
    # a rank-deficient sketch whose sigma_min^2 used to read -3.8e-15
    # (pass 202 of the embed_kron benchmark at seed 501)
    (32, 1, 501202, 501202 * 1000003),
    # fewer sketch rows (8) than basis vectors
    (2, 4, 0, 4000)], ids=["32-1", "2-16", "2-80", "32-1-rank-deficient", "2-4-few-rows"])
def test_empirical_spectrum_kron_basis_d40(P, R, basis_seed, sketch_seed):
    # criterion 07's setting: r = 16 unit vectors on distinct index tuples
    # at d = 40, far too large to densify.  Each sketched column is rebuilt
    # entry by entry from the realized block cores; the basis Gram is the
    # identity, so the spectrum is that of M^T M.
    d, n, r = 40, 4, 16
    basis = _kron_basis(d, n, r, seed=basis_seed)
    tuples = []
    for v in basis:
        idx = tuple(int(np.argmax(c[0, :, 0])) for c in v.cores)
        for c, i in zip(v.cores, idx):
            assert np.array_equal(c, np.eye(n)[i].reshape(1, n, 1))
        tuples.append(idx)
    assert len(set(tuples)) == r
    sk = make_sketch(SketchSpec("tts", (n,) * d, P=P, R=R, seed=sketch_seed))
    assert len(sk.blocks) == P
    m = np.stack([
        np.concatenate([oracle_entry(block, idx)[:, 0] for block in sk.blocks])
        for idx in tuples], axis=1) / np.sqrt(P)
    assert m.shape == (P * R, r)
    ev = np.linalg.eigvalsh(m.T @ m)
    lo, hi = empirical_spectrum(basis, sk)
    # a single sketch gives the pair the batched form gives for each copy
    assert empirical_spectrum(basis, [sk, sk]) == [(lo, hi)] * 2
    assert 0 <= lo <= hi
    assert_allclose(hi, ev[-1], rtol=1e-10)
    assert_allclose(lo, ev[0], rtol=1e-10, atol=1e-12 * ev[-1])


def test_isotropy_samples_mean_near_one():
    dims = (2, 2, 2, 2)
    x = tt_random(dims, (1, 2, 2, 2, 1), seed=3)
    spec = SketchSpec("tts", dims, P=4, R=4, seed=0)
    vals = isotropy_samples(spec, x, nsamples=600, seed=5)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 4 * se


# ----------------------------------------------------------- calculators

def test_osi_sufficient_P_hand_value():
    # eps=1, delta=2/e, r=1, c=1: 4 * (8 + 2 * log(e)) = 40
    assert osi_sufficient_P(1.0, 2.0 / np.e, 1, 1.0) == 40
    val = 4.0 / 0.25 * (8.0 * 4.0 * 8 + 5.0 * np.log(2.0 * 8 / 0.1))
    assert osi_sufficient_P(0.5, 0.1, 8, 2.0) == int(np.ceil(val))


def test_rsvd_constant_hand_value():
    # alpha=1, delta=2, P=1, R=1, d=1, complex: blow = 1, sqrt(1/1) = 1
    assert_allclose(rsvd_constant(1.0, 2.0, 1, 1, 1, "complex"), 3.0, atol=1e-12)
    expect = 1.0 + 2.0 * (1.0 + np.sqrt((1.5 ** 2 - 1) / (4 * 0.05)))
    assert_allclose(rsvd_constant(0.5, 0.1, 4, 4, 2, "real"), expect, atol=1e-12)


def test_rounding_error_constant_hand_value():
    d = 3
    expect = (d - 1) * rsvd_constant(0.5, 0.1 / (d - 1), 2, 4, d, "real")
    assert_allclose(rounding_error_constant(0.5, 0.1, 2, 4, d, "real"),
                    expect, atol=1e-12)
    with pytest.raises(ValueError):
        rounding_error_constant(0.5, 0.1, 2, 4, 1)


def test_ose_sufficient_params_hand_value():
    R, P = ose_sufficient_params(1.0, 1.0, 1.0 / np.e, 1, 1)
    assert_allclose(R, 32.0 * np.e ** 2 * (np.log(9.0) + 1.0), atol=1e-12)
    assert_allclose(P, 16.0 * np.e ** 4, atol=1e-12)
