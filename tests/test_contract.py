import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import oracle_dense, oracle_vector, rel_err
from ttsketch.contract import (
    _left_step,
    _sweep,
    partial_contractions,
    sketch_hadamard,
    sketch_linear_combination,
    sketch_matvec,
)
from ttsketch.sketch import SketchSpec, make_sketch, sketch_dense
from ttsketch.tt import (
    TTOperator,
    TensorTrain,
    _left_sweep,
    tt_hadamard_assemble,
    tt_linear_combination,
    tt_random,
    tto_apply_assemble,
)

DIMS = (2, 3, 2, 2)


# One spec per sketch variant; the stacked sweep must agree on each layout.
SKETCHES = [
    pytest.param("tts", dict(P=3, R=2), id="tts"),
    pytest.param("otts", dict(P=2, R=3), id="otts"),
    pytest.param("khatri_rao", dict(P=5, R=1), id="khatri_rao"),
    pytest.param("gaussian_tt", dict(P=1, R=4), id="gaussian_tt"),
]


def tt(seed, ranks=(1, 2, 3, 2, 1), dims=DIMS, field="real"):
    return tt_random(dims, ranks, field=field, seed=seed)


def gaussian(rng, shape, field):
    g = rng.standard_normal(shape)
    if field == "complex":
        g = g + 1j * rng.standard_normal(shape)
    return g


@pytest.mark.parametrize(
    "variant,kw",
    [
        ("tts", dict(P=3, R=2)),
        ("otts", dict(P=2, R=3)),
        ("khatri_rao", dict(P=5, R=1)),
        ("gaussian_tt", dict(P=1, R=4)),
    ],
)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_w1_matches_dense_sketch(variant, kw, field):
    spec = SketchSpec(variant, DIMS, field=field, seed=3, **kw)
    sk = make_sketch(spec)
    x = tt(11, field=field)
    expect = sketch_dense(sk) @ oracle_vector(x)
    got = partial_contractions(sk, x).vector()
    assert rel_err(got, expect) < 1e-12


@pytest.mark.parametrize("variant,kw", SKETCHES)
def test_partial_invariant_every_cut(variant, kw):
    # W_k equals the unfolded tail sketch times the unfolded tail train
    spec = SketchSpec(variant, DIMS, seed=5, **kw)
    sk = make_sketch(spec)
    x = tt(21)
    ps = partial_contractions(sk, x)
    d = len(DIMS)
    for k in range(1, d):
        tails = []
        for block in sk.blocks:
            g_tail = oracle_dense(TensorTrain(block[k:])).reshape(block[k].shape[0], -1)
            x_tail = oracle_dense(TensorTrain(x.cores[k:])).reshape(
                x.cores[k].shape[0], -1)
            tails.append(g_tail @ x_tail.T)
        expect = np.concatenate(tails, axis=0)
        assert rel_err(ps.Ws[k], expect) < 1e-12


def test_scale_applied_only_at_w1():
    spec = SketchSpec("tts", DIMS, P=4, R=2, seed=9)
    sk = make_sketch(spec)
    x = tt(4)
    ps = partial_contractions(sk, x)
    unscaled = partial_contractions(
        type(sk)(spec=sk.spec, cores=sk.cores, scale=1.0), x)
    assert_allclose(ps.Ws[0], 0.5 * unscaled.Ws[0])
    for k in range(1, len(DIMS)):
        assert_allclose(ps.Ws[k], unscaled.Ws[k])


def test_vector_requires_scalar_boundary():
    spec = SketchSpec("tts", DIMS, P=1, R=2, seed=0)
    sk = make_sketch(spec)
    x = TensorTrain([np.random.default_rng(0).standard_normal((2, n, 2))
                     if k == 0 else np.random.default_rng(k).standard_normal((2, n, 2))
                     for k, n in enumerate(DIMS[:-1])]
                    + [np.random.default_rng(9).standard_normal((2, DIMS[-1], 1))])
    ps = partial_contractions(sk, x)
    with pytest.raises(ValueError, match="boundary"):
        ps.vector()


def test_dims_mismatch_rejected():
    sk = make_sketch(SketchSpec("tts", (2, 2), P=1, R=2))
    with pytest.raises(ValueError, match="dims"):
        partial_contractions(sk, tt(0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_linear_combination_matches_assembled(field):
    sk = make_sketch(SketchSpec("tts", DIMS, P=2, R=3, seed=2, field=field))
    terms = [tt(31, field=field), tt(32, (1, 2, 2, 2, 1), field=field),
             tt(33, (1, 1, 2, 1, 1), field=field)]
    coeffs = [1.5, -0.5 + (1j if field == "complex" else 0), 2.0]
    # The one-term case is a scaled train: the sketched eigensolver relies on
    # combine([ps], [a]) matching a sweep over tt_scale(x, a).
    for terms, coeffs in [(terms, coeffs), (terms[1:2], coeffs[1:2])]:
        ps = sketch_linear_combination(sk, terms, coeffs)
        assembled = partial_contractions(sk, tt_linear_combination(terms, coeffs))
        for a, b in zip(ps.Ws, assembled.Ws):
            assert rel_err(a, b) < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_linear_combination_of_operator_terms_matches_assembled(rng, field):
    # (operator, train) terms are sketched by sketch_matvec; the columns
    # follow the assembled sum's blocks, operator bond major within a term.
    bonds = (1, 2, 2, 2, 1)
    h = TTOperator([gaussian(rng, (bonds[k], n, n, bonds[k + 1]), field)
                    for k, n in enumerate(DIMS)])
    x, y = tt(34, field=field), tt(35, (1, 2, 2, 2, 1), field=field)
    sk = make_sketch(SketchSpec("tts", DIMS, P=2, R=3, seed=3, field=field))
    coeffs = [0.5, -2.0 + (1j if field == "complex" else 0), 1.5]
    ps = sketch_linear_combination(sk, [(h, x), y, (h, y)], coeffs)
    assembled = partial_contractions(sk, tt_linear_combination(
        [tto_apply_assemble(h, x), y, tto_apply_assemble(h, y)], coeffs))
    for a, b in zip(ps.Ws, assembled.Ws):
        assert rel_err(a, b) < 1e-12


@pytest.mark.parametrize("variant,kw", SKETCHES)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_matvec_matches_assembled(rng, field, variant, kw):
    h = TTOperator([
        gaussian(rng, (1, 2, 2, 3), field),
        gaussian(rng, (3, 3, 3, 2), field),
        gaussian(rng, (2, 2, 2, 2), field),
        gaussian(rng, (2, 2, 2, 1), field),
    ])
    x = tt(41, field=field)
    sk = make_sketch(SketchSpec(variant, DIMS, seed=6, field=field, **kw))
    ps = sketch_matvec(sk, h, x)
    assembled = partial_contractions(sk, tto_apply_assemble(h, x))
    for a, b in zip(ps.Ws, assembled.Ws):
        assert rel_err(a, b) < 1e-12
    # and against the fully dense route
    from ttsketch.tt import tto_dense
    expect = sketch_dense(sk) @ (tto_dense(h) @ oracle_vector(x))
    assert rel_err(ps.vector(), expect) < 1e-11


@pytest.mark.parametrize("nterms", [2, 3])
@pytest.mark.parametrize("variant,kw", SKETCHES)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_hadamard_matches_assembled(field, variant, kw, nterms):
    sk = make_sketch(SketchSpec(variant, DIMS, seed=8, field=field, **kw))
    terms = [tt(50 + i, (1, 2, 2, 2, 1), field=field) for i in range(nterms)]
    ps = sketch_hadamard(sk, terms)
    assembled = partial_contractions(sk, tt_hadamard_assemble(terms))
    for a, b in zip(ps.Ws, assembled.Ws):
        assert rel_err(a, b) < 1e-12


@pytest.mark.parametrize("bonds", [[(2, 3), (3, 1)], [(1, 2), (3, 2), (2, 4)]], ids=["J2", "J3"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_left_step_hadamard_factors_match_assembled_core(rng, field, bonds):
    # The middle cores (a_j, 3, A_j) of plain trains, projected as factors and
    # as the slice-wise Kronecker core that tt_hadamard_assemble builds.
    trains = [TensorTrain([gaussian(rng, (1, 2, a), field), gaussian(rng, (a, 3, b), field),
                           gaussian(rng, (b, 2, 1), field)]) for a, b in bonds]
    core = tt_hadamard_assemble(trains).cores[1]
    p = gaussian(rng, (5, core.shape[0]), field)
    got = _left_step(p, [t.cores[1] for t in trains])
    assert got.shape == (5, 3, core.shape[2])
    assert rel_err(got, _left_step(p, core)) < 1e-13


def swap_bonds(op):
    # The first and last axes of every core swapped, written apart from
    # contract._mirror.
    if isinstance(op, (tuple, list)):
        return type(op)(np.swapaxes(c, 0, -1) for c in op)
    return np.swapaxes(op, 0, -1)


@pytest.mark.parametrize("kind", ["train", "pair", "hadamard"])
@pytest.mark.parametrize("variant,kw", SKETCHES)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_sweep_blocks_match_left_sweep_of_mirrored_chain(rng, field, variant, kw, kind):
    # Block j's rows of W_1 are the left sweep of that block's cores and the
    # local operators, both with their bonds swapped and in reverse order.
    sk = make_sketch(SketchSpec(variant, DIMS, seed=9, field=field, **kw))
    if kind == "train":
        ops = tt(60, field=field).cores
    elif kind == "pair":
        x = tt(60, dims=(3, 2, 2, 3), field=field)
        ops = [(gaussian(rng, (a, n, m, b), field), c)
               for a, n, m, b, c in zip((1, 2, 3, 2), DIMS, x.dims, (2, 3, 2, 1), x.cores)]
    else:
        ops = [[a, b] for a, b in zip(tt(60, field=field).cores,
                                      tt(61, (1, 3, 2, 2, 1), field=field).cores)]
    w1 = _sweep(sk, ops).Ws[0]
    rows = sk.cores[0].shape[1]
    for j in range(sk.cores[0].shape[0]):
        chain = [swap_bonds(c[j]) for c in sk.cores[::-1]]
        expect = _left_sweep(chain, [swap_bonds(op) for op in ops[::-1]], np.ones((1, 1)))[-1]
        assert rel_err(w1[j * rows:(j + 1) * rows], sk.scale * expect) < 1e-12
