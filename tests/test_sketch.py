import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import oracle_dense
from ttsketch.sketch import (
    SketchSpec,
    block_tt_view,
    make_sketch,
    sketch_dense,
    stiefel_sample,
)
from ttsketch.tt import rng_for


def test_spec_validation():
    with pytest.raises(ValueError, match="variant"):
        SketchSpec("nope", (2, 2))
    with pytest.raises(ValueError, match="R = 1"):
        SketchSpec("khatri_rao", (2, 2), P=2, R=2)
    with pytest.raises(ValueError, match="P = 1"):
        SketchSpec("gaussian_tt", (2, 2), P=2, R=2)
    with pytest.raises(ValueError, match="base"):
        SketchSpec("khatri_rao", (2, 2), P=2, base="cauchy")
    with pytest.raises(ValueError, match="rank list"):
        SketchSpec("gaussian_tt", (2, 2), ranks=(2, 2, 2))
    with pytest.raises(ValueError, match="field"):
        SketchSpec("tts", (2, 2), field="quaternion")


def test_bond_patterns():
    assert SketchSpec("tts", (2, 3, 2), P=2, R=4).bond_pattern() == [4, 4, 4, 1]
    assert SketchSpec("khatri_rao", (2, 3), P=3).bond_pattern() == [1, 1, 1]
    assert SketchSpec("f_tt_r", (2, 3, 2), P=2, R=4).bond_pattern() == [1, 4, 4, 1]
    assert SketchSpec("gaussian_tt", (2, 3, 2), R=3,
                      ranks=(3, 2, 2, 1)).bond_pattern() == [3, 2, 2, 1]


def test_otts_rank_clipping():
    # chain ranks are clipped by the remaining dimension product
    spec = SketchSpec("otts", (2, 2, 2), P=1, R=4)
    assert spec.bond_pattern() == [4, 4, 2, 1]
    shapes = [c.shape for c in make_sketch(spec).blocks[0]]
    assert shapes == [(4, 2, 4), (4, 2, 2), (2, 2, 1)]


def test_json_roundtrip():
    spec = SketchSpec("khatri_rao", (2, 3, 4), P=5, field="complex", seed=9,
                      base="spherical")
    again = SketchSpec.from_json(spec.to_json())
    assert again == spec
    spec2 = SketchSpec("gaussian_tt", (2, 2), R=2, ranks=(2, 2, 1))
    assert SketchSpec.from_json(spec2.to_json()) == spec2


def test_determinism_and_seed_sensitivity():
    spec = SketchSpec("tts", (2, 3, 2), P=2, R=3, seed=5)
    a = make_sketch(spec)
    b = make_sketch(spec)
    for ca, cb in zip(a.blocks[1], b.blocks[1]):
        assert np.array_equal(ca, cb)
    c = make_sketch(SketchSpec("tts", (2, 3, 2), P=2, R=3, seed=6))
    assert not np.array_equal(a.blocks[0][0], c.blocks[0][0])


def test_blocks_independent_of_generation_order():
    # the counter-based streams make block 1 identical whether or not
    # block 0 was generated
    spec = SketchSpec("tts", (2, 2), P=3, R=2, seed=1)
    sk = make_sketch(spec)
    from ttsketch.sketch import _block_cores
    solo = _block_cores(spec, 1)
    for ca, cb in zip(sk.blocks[1], solo):
        assert np.array_equal(ca, cb)


@pytest.mark.parametrize("variant,kw,digest", [
    ("tts", dict(P=3, R=2), "7351647869f3fb91"),
    ("otts", dict(P=2, R=3), "afc39f264d9ca651"),
    ("khatri_rao", dict(P=4, R=1, base="rademacher"), "81301aea17fac7c0"),
    ("gaussian_tt", dict(P=1, R=4, ranks=(4, 3, 2, 2, 1)), "820d60f9b3cb821e"),
    ("f_tt_r", dict(P=3, R=2, field="complex"), "59a363a2360b167c"),
])
def test_stacked_blocks_keep_the_pinned_draws(variant, kw, digest):
    # The digests were taken from the per-block draws before the cores were
    # stacked; a different digest means the random stream moved (otts also
    # depends on the LAPACK QR).  Blocks are views of the stacked cores.
    sk = make_sketch(SketchSpec(variant, (2, 3, 2, 2), seed=7, **kw))
    h = hashlib.sha256()
    for j, block in enumerate(sk.blocks):
        for k, c in enumerate(block):
            assert np.shares_memory(c, sk.cores[k])
            assert np.array_equal(c, sk.cores[k][j])
            h.update(np.ascontiguousarray(c).tobytes())
    assert h.hexdigest()[:16] == digest


def test_tts_entry_variance():
    spec = SketchSpec("tts", (4,) * 4, P=4, R=8, seed=3)
    sk = make_sketch(spec)
    entries = np.concatenate([c.ravel() for b in sk.blocks for c in b[:-1]])
    # iid N(0, 1/R): sample variance within 5 sigma of 1/R
    se = np.sqrt(2.0 / entries.size) / 8
    assert abs(entries.var() - 1.0 / 8) < 5 * se


def test_complex_gaussian_halved_components():
    spec = SketchSpec("tts", (4,) * 5, P=6, R=8, field="complex", seed=3)
    sk = make_sketch(spec)
    entries = np.concatenate([c.ravel() for b in sk.blocks for c in b[:-1]])
    assert abs(entries.real.var() * 8 - 0.5) < 0.02
    assert abs(entries.imag.var() * 8 - 0.5) < 0.02
    assert abs(np.mean(entries.real * entries.imag)) < 0.01


def test_khatri_rao_bases():
    rad = make_sketch(SketchSpec("khatri_rao", (3, 4), P=4, base="rademacher"))
    for b in rad.blocks:
        for c in b:
            assert set(np.unique(c)) <= {-1.0, 1.0}
    sph = make_sketch(SketchSpec("khatri_rao", (3, 4), P=4, base="spherical"))
    for b in sph.blocks:
        for c in b:
            assert_allclose(np.linalg.norm(c), np.sqrt(c.shape[1]), rtol=1e-12)


def test_f_tt_r_variances():
    spec = SketchSpec("f_tt_r", (3,) * 6, P=50, R=4, seed=2)
    sk = make_sketch(spec)
    first = np.concatenate([b[0].ravel() for b in sk.blocks])
    interior = np.concatenate([b[2].ravel() for b in sk.blocks])
    assert abs(first.var() - 1 / np.sqrt(4)) < 0.1
    assert abs(interior.var() - 1 / 4) < 0.05


def test_stiefel_sample_rows_orthonormal():
    for field in ("real", "complex"):
        m = stiefel_sample(rng_for(0, 9, 0, 0), 3, 7, field)
        assert_allclose(m @ m.conj().T, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        stiefel_sample(rng_for(0, 9, 0, 0), 7, 3, "real")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_otts_core_unfoldings_orthonormal(field):
    spec = SketchSpec("otts", (2, 3, 2, 2), P=2, R=3, field=field, seed=4)
    sk = make_sketch(spec)
    pat = spec.bond_pattern()
    for k, c in enumerate(sk.blocks[0]):
        scale = np.sqrt(pat[k + 1] * spec.dims[k] / pat[k])
        m = (c / scale).reshape(c.shape[0], -1)
        assert_allclose(m @ m.conj().T, np.eye(c.shape[0]), atol=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_otts_global_row_orthogonality(field):
    spec = SketchSpec("otts", (2, 2, 3), P=3, R=2, field=field, seed=8)
    om = sketch_dense(make_sketch(spec))
    n = 12
    gram = om @ om.conj().T
    assert np.abs(gram - (n / 6) * np.eye(om.shape[0])).max() < 1e-10


@pytest.mark.parametrize(
    "variant,kw",
    [
        ("tts", dict(P=3, R=2)),
        ("otts", dict(P=2, R=3)),
        ("khatri_rao", dict(P=4, R=1)),
        ("gaussian_tt", dict(P=1, R=3)),
        ("f_tt_r", dict(P=3, R=2)),
    ],
)
def test_block_view_matches_dense(variant, kw):
    spec = SketchSpec(variant, (2, 3, 2), seed=13, **kw)
    sk = make_sketch(spec)
    om = sketch_dense(sk)
    assert om.shape == (spec.rows, 12)
    view = oracle_dense(block_tt_view(sk)).reshape(-1, 12)
    assert_allclose(view, om, atol=1e-13)


def test_scale_is_block_average():
    sk = make_sketch(SketchSpec("tts", (2, 2), P=9, R=2))
    assert_allclose(sk.scale, 1.0 / 3.0)
    sk1 = make_sketch(SketchSpec("gaussian_tt", (2, 2), P=1, R=2))
    assert sk1.scale == 1.0
