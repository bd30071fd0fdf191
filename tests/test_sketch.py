import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import block_tt_view, oracle_dense, spec_rows, spec_to_json_obj
from ttsketch.sketch import (
    VARIANTS,
    SketchSpec,
    make_sketch,
    sketch_dense,
    stiefel_sample,
)
from ttsketch.tt import STREAM_SKETCH, gaussian, rng_for


def test_spec_validation():
    with pytest.raises(ValueError, match="variant"):
        SketchSpec("nope", (2, 2))
    with pytest.raises(ValueError, match="R = 1"):
        SketchSpec("khatri_rao", (2, 2), P=2, R=2)
    with pytest.raises(ValueError, match="P = 1"):
        SketchSpec("gaussian_tt", (2, 2), P=2, R=2)
    with pytest.raises(ValueError, match="field"):
        SketchSpec("tts", (2, 2), field="quaternion")
    with pytest.raises(ValueError, match="seed"):
        SketchSpec("tts", (2, 2), seed=-1)


def test_bond_patterns():
    assert SketchSpec("tts", (2, 3, 2), P=2, R=4).bond_pattern() == [4, 4, 4, 1]
    assert SketchSpec("khatri_rao", (2, 3), P=3).bond_pattern() == [1, 1, 1]
    assert SketchSpec("gaussian_tt", (2, 3, 2), R=3).bond_pattern() == [3, 3, 3, 1]
    assert SketchSpec("otts", (2, 3, 2), P=2, R=4).bond_pattern() == [8, 6, 2, 1]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 3, 4, 2)])
def test_tts_interpolates_khatri_rao_and_gaussian_tt(field, dims):
    # khatri_rao is tts at R = 1 and gaussian_tt is tts at P = 1: the same
    # draws and the same scale.
    pairs = [(SketchSpec("khatri_rao", dims, P=5, field=field, seed=3),
              SketchSpec("tts", dims, P=5, R=1, field=field, seed=3)),
             (SketchSpec("gaussian_tt", dims, R=4, field=field, seed=3),
              SketchSpec("tts", dims, P=1, R=4, field=field, seed=3))]
    for special, general in pairs:
        a, b = make_sketch(special), make_sketch(general)
        assert a.scale == b.scale
        assert len(a.cores) == len(b.cores)
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)


def test_otts_rank_clipping():
    # chain ranks are clipped by the remaining dimension product
    spec = SketchSpec("otts", (2, 2, 2), P=1, R=4)
    assert spec.bond_pattern() == [4, 4, 2, 1]
    shapes = [c.shape for c in make_sketch(spec).blocks[0]]
    assert shapes == [(4, 2, 4), (4, 2, 2), (2, 2, 1)]


def test_json_roundtrip():
    spec = SketchSpec("khatri_rao", (2, 3, 4), P=5, field="complex", seed=9)
    again = SketchSpec.from_json_obj(json.loads(json.dumps(spec_to_json_obj(spec))))
    assert again == spec
    spec2 = SketchSpec("gaussian_tt", (2, 2), R=2, seed=2 ** 40)
    assert SketchSpec.from_json_obj(json.loads(json.dumps(spec_to_json_obj(spec2)))) == spec2


@pytest.mark.parametrize("kw,key", [
    (dict(dims=(2, 2.5)), "dims"), (dict(dims=(2, True)), "dims"), (dict(dims=3), "dims"),
    (dict(seed=1.5), "seed"), (dict(P=2.5), "P"), (dict(P="3"), "P"), (dict(R=True), "R"),
    (dict(R=np.float64(2)), "R"),
], ids=["float-dim", "bool-dim", "scalar-dims", "float-seed", "float-P", "str-P", "bool-R",
        "numpy-float-R"])
def test_non_integer_values_raise_naming_the_field(kw, key):
    with pytest.raises(ValueError, match=repr(key)):
        SketchSpec(**dict(dict(variant="tts", dims=(2, 2)), **kw))


def test_numpy_integers_are_read_as_ints():
    spec = SketchSpec("tts", (np.int64(2), np.int32(3)), P=np.int64(2), R=np.uint8(3),
                      seed=np.int64(5))
    assert spec == SketchSpec("tts", (2, 3), P=2, R=3, seed=5)
    assert all(type(v) is int for v in (*spec.dims, spec.P, spec.R, spec.seed))


@pytest.mark.parametrize("obj,key", [
    ({"dims": [2, 2]}, "variant"),
    ({"variant": "tts"}, "dims"),
    ({"variant": "tts", "dims": 3}, "dims"),
    ({"variant": "tts", "dims": [2, "x"]}, "dims"),
    ({"variant": "tts", "dims": [2, 2], "P": None}, "P"),
    ({"variant": "tts", "dims": [2, 2], "R": 1.5}, "R"),
    ({"variant": "tts", "dims": [2, 2], "seed": True}, "seed"),
    ({"variant": "gaussian_tt", "dims": [2, 2], "ranks": None}, "ranks"),
    ({"variant": 7, "dims": [2, 2]}, "variant"),
    ({"variant": "tts", "dims": [2, 2], "p": 4}, "p"),
    ({"variant": "khatri_rao", "dims": [2, 2], "P": 2, "base": "gaussian"}, "base"),
], ids=["no-variant", "no-dims", "scalar-dims", "str-dim", "null-P", "float-R",
        "bool-seed", "null-ranks", "int-variant", "typo-p", "retired-base"])
def test_json_spec_errors_name_the_key(obj, key):
    with pytest.raises(ValueError, match=repr(key)):
        SketchSpec.from_json_obj(obj)
    with pytest.raises(ValueError, match="JSON object"):
        SketchSpec.from_json_obj([obj])


# Any JSON-like value, and objects with SketchSpec's keys (variant and dims
# always) holding plausible values, or plausible or arbitrary ones.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
small = st.integers(0, 4)
plausible = {
    "variant": st.sampled_from(VARIANTS), "dims": st.lists(small, min_size=1, max_size=4),
    "P": small, "R": small, "field": st.sampled_from(["real", "complex", "quaternion"]),
    "seed": st.integers(-1, 2 ** 40),
}


def spec_objects(values):
    required = ("variant", "dims")
    return st.fixed_dictionaries(
        {k: values(plausible[k]) for k in required},
        optional={k: values(v) for k, v in plausible.items() if k not in required})


@settings(max_examples=300, deadline=None)
@given(spec_objects(lambda v: v) | spec_objects(lambda v: v | json_values) | json_values)
def test_json_spec_fuzz_gives_spec_or_value_error(obj):
    try:
        spec = SketchSpec.from_json_obj(obj)
    except ValueError:
        return
    assert SketchSpec.from_json_obj(spec_to_json_obj(spec)) == spec


def test_determinism_and_seed_sensitivity():
    spec = SketchSpec("tts", (2, 3, 2), P=2, R=3, seed=5)
    a = make_sketch(spec)
    b = make_sketch(spec)
    for ca, cb in zip(a.blocks[1], b.blocks[1]):
        assert np.array_equal(ca, cb)
    c = make_sketch(SketchSpec("tts", (2, 3, 2), P=2, R=3, seed=6))
    assert not np.array_equal(a.blocks[0][0], c.blocks[0][0])


def test_blocks_independent_of_generation_order():
    # Core k of every block comes from one stream, in block order, so the
    # real Gaussian blocks do not depend on how many blocks follow them.
    for variant, kw in (("tts", dict(R=2)), ("khatri_rao", {})):
        small = make_sketch(SketchSpec(variant, (2, 3, 2), P=3, seed=1, **kw))
        large = make_sketch(SketchSpec(variant, (2, 3, 2), P=5, seed=1, **kw))
        for ca, cb in zip(small.cores, large.cores):
            assert np.array_equal(ca, cb[:3])


def test_wide_seeds_are_not_wrapped():
    # Every bit of a seed keys its streams: s and s + 2**32 draw apart.
    for s in (0, 9):
        a = make_sketch(SketchSpec("tts", (2, 3, 2), P=2, R=2, seed=s))
        b = make_sketch(SketchSpec("tts", (2, 3, 2), P=2, R=2, seed=s + 2 ** 32))
        for ca, cb in zip(a.cores, b.cores):
            assert not np.array_equal(ca, cb)


@pytest.mark.parametrize("variant,kw,digest", [
    ("tts", dict(P=3, R=2), "c8221ae24a35b055"),
    ("otts", dict(P=2, R=3), "9a6ecaa64303a74b"),
    ("khatri_rao", dict(P=4, R=1), "197ed30f26164ff4"),
    ("gaussian_tt", dict(P=1, R=4), "90496ee498477748"),
], ids=["tts", "otts", "khatri_rao", "gaussian_tt"])
def test_stacked_blocks_keep_the_pinned_draws(variant, kw, digest):
    # The digests pin the one-stream-per-core draws; a different digest
    # means the random stream moved (otts also depends on the LAPACK QR).
    # Blocks are views of the stacked cores.
    sk = make_sketch(SketchSpec(variant, (2, 3, 2, 2), seed=7, **kw))
    h = hashlib.sha256()
    for j, block in enumerate(sk.blocks):
        for k, c in enumerate(block):
            assert np.shares_memory(c, sk.cores[k])
            assert np.array_equal(c, sk.cores[k][j])
            h.update(np.ascontiguousarray(c).tobytes())
    assert h.hexdigest()[:16] == digest


def test_block_views_are_made_when_read():
    # A view holds a reference to its base, so the references to a stacked
    # core beyond those to an array held only by a list count its views.
    sk = make_sketch(SketchSpec("tts", (2, 3, 2, 2), P=5, R=2, seed=7))
    held = [np.empty(0)]

    def views():
        return [sys.getrefcount(sk.cores[k]) - sys.getrefcount(held[0]) for k in range(4)]

    assert views() == [0] * 4
    block = sk.blocks[2]
    assert views() == [1] * 4
    for k, c in enumerate(block):
        assert c.base is sk.cores[k] and np.array_equal(c, sk.cores[k][2])
    del block, c
    assert views() == [0] * 4
    assert len(sk.blocks) == 5
    assert [b[0].shape for b in sk.blocks] == [(2, 2, 2)] * 5
    assert np.array_equal(sk.blocks[-1][3], sk.cores[3][4])
    for j in (5, -6):
        with pytest.raises(IndexError):
            sk.blocks[j]


def reference_cores(spec):
    """Core k of all blocks drawn from the one stream rng_for(seed, 2, k)."""
    dims, pat = spec.dims, spec.bond_pattern()
    d, P = len(dims), 1 if spec.variant == "otts" else spec.P
    cores = []
    for k in range(d):
        rng = rng_for(spec.seed, STREAM_SKETCH, k)
        shape = (P, pat[k], dims[k], pat[k + 1])
        if spec.variant == "otts":
            m = stiefel_sample(rng, pat[k], dims[k] * pat[k + 1], spec.field)
            c = m.reshape(shape) * np.sqrt(pat[k + 1] * dims[k] / pat[k])
        else:
            c = gaussian(rng, shape, spec.field, scale=np.sqrt(1.0 / spec.R))
        cores.append(c)
    return cores


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("variant,kw", [
    ("tts", dict(P=5, R=3)), ("otts", dict(P=2, R=3)),
    ("khatri_rao", dict(P=4)), ("gaussian_tt", dict(R=4)),
    ("tts", dict(P=2, R=2, seed=2 ** 32 + 9)),
], ids=["tts", "otts", "kr", "gaussian_tt", "tts-wide-seed"])
def test_sketch_draws_match_per_core_streams(variant, kw, field):
    kw = dict(dict(seed=7), **kw)
    spec = SketchSpec(variant, (2, 3, 2, 2), field=field, **kw)
    sk = make_sketch(spec)
    for c, ref in zip(sk.cores, reference_cores(spec), strict=True):
        assert c.dtype == ref.dtype and c.shape == ref.shape
        assert np.array_equal(c, ref)
    assert len(sk.blocks) == (1 if variant == "otts" else spec.P)


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
    ],
)
def test_block_view_matches_dense(variant, kw):
    spec = SketchSpec(variant, (2, 3, 2), seed=13, **kw)
    sk = make_sketch(spec)
    om = sketch_dense(sk)
    assert om.shape == (spec_rows(spec), 12)
    view = oracle_dense(block_tt_view(sk)).reshape(-1, 12)
    assert_allclose(view, om, atol=1e-13)


def test_scale_is_block_average():
    sk = make_sketch(SketchSpec("tts", (2, 2), P=9, R=2))
    assert_allclose(sk.scale, 1.0 / 3.0)
    sk1 = make_sketch(SketchSpec("gaussian_tt", (2, 2), P=1, R=2))
    assert sk1.scale == 1.0
