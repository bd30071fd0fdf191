import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttsketch import io as ttio
from ttsketch.tt import TensorTrain, tt_random


@pytest.mark.parametrize("field", ["real", "complex"])
def test_binary_roundtrip(tmp_path, field):
    x = tt_random((2, 3, 2), (1, 2, 3, 1), field=field, seed=1)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    y = ttio.read_tt(path)
    assert y.dims == x.dims and y.ranks == x.ranks and y.field == field
    for a, b in zip(x.cores, y.cores):
        assert np.array_equal(a, b)


def test_complex_payload_bit_exact(tmp_path):
    # signed zeros and infinities survive; re + 1j*im would turn 1+inf*j into nan+inf*j
    core = np.array([complex(-0.0, 1.0), complex(1.0, np.inf), complex(3.0, -0.0)])
    x = TensorTrain([core.reshape(1, 3, 1)])
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    y = ttio.read_tt(path)
    assert y.cores[0].tobytes() == x.cores[0].tobytes()
    assert path.read_bytes()[-48:] == struct.pack("<6d", -0.0, 1.0, 1.0, np.inf, 3.0, -0.0)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ttf"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="magic"):
        ttio.read_tt(path)


def test_truncated_payload_rejected(tmp_path):
    x = tt_random((2, 3), (1, 2, 1), seed=2)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        ttio.read_tt(path)


@pytest.mark.parametrize("cut", [4, 7, 12, 20])
def test_truncated_header_rejected(tmp_path, cut):
    # cut inside the field flag, d, dims and ranks fields in turn
    x = tt_random((2, 3), (1, 2, 1), seed=2)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated header"):
        ttio.read_tt(path)


def test_trailing_bytes_rejected(tmp_path):
    x = tt_random((2, 3), (1, 2, 1), seed=2)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        ttio.read_tt(path)


def test_bad_field_flag_rejected(tmp_path):
    x = tt_random((2,), (1, 1), seed=0)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    data = bytearray(path.read_bytes())
    data[4] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="field"):
        ttio.read_tt(path)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_json_roundtrip(tmp_path, field):
    x = tt_random((2, 2), (1, 3, 1), field=field, seed=5)
    path = tmp_path / "x.json"
    ttio.write_tt_json(path, x)
    y = ttio.read_tt_json(path)
    for a, b in zip(x.cores, y.cores):
        assert np.array_equal(a, b)


def _header(field_flag, dims, ranks):
    d = len(dims)
    return (ttio.MAGIC + struct.pack("<BI", field_flag, d) + struct.pack("<%dI" % d, *dims)
            + struct.pack("<%dI" % (d + 1), *ranks))


# A TTF1 header with small fields, so that some payloads complete the file.
plausible_headers = st.integers(1, 3).flatmap(lambda d: st.builds(
    _header, st.integers(0, 2), st.lists(st.integers(0, 3), min_size=d, max_size=d),
    st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1)))


@settings(max_examples=200, deadline=None)
@given(head=st.one_of(st.just(b""), plausible_headers), payload=st.binary(max_size=600))
def test_read_fuzz_gives_train_or_value_error(tmp_path_factory, head, payload):
    path = tmp_path_factory.mktemp("fuzz") / "x.ttf"
    path.write_bytes(head + payload)
    try:
        x = ttio.read_tt(path)
    except ValueError:
        return
    assert isinstance(x, TensorTrain)


def _json_obj(field="real", dims=(2, 3), rank=2, seed=3):
    ranks = (1,) + (rank,) * (len(dims) - 1) + (1,)
    return ttio.tt_to_json_obj(tt_random(dims, ranks, field=field, seed=seed))


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("obj,key", [
    ([], "object"),
    (_without(_json_obj(), "cores"), "'cores'"),
    (_without(_json_obj("complex"), "cores_im"), "'cores_im'"),
    (dict(_json_obj("complex"), cores_im=_json_obj("complex")["cores_im"][:1]), "'cores_im'"),
    (dict(_json_obj(), field="quaternion"), "'field'"),
    (dict(_json_obj(), dims=[3, 2]), "'dims'"),
    (dict(_json_obj(), ranks=[1, 3, 1]), "'ranks'"),
    (dict(_json_obj(), cores=[[[[1.0]]], {"a": 1}]), "'cores'"),
], ids=["not-object", "no-cores", "no-cores-im", "short-cores-im", "bad-field", "dims",
        "ranks", "non-numeric-core"])
def test_json_reader_errors_name_the_key(obj, key):
    with pytest.raises(ValueError, match=key):
        ttio.tt_from_json_obj(obj)


def test_json_complex_payload_exact():
    # re + 1j*im would turn 1+inf*j into nan+inf*j
    core = np.array([complex(-0.0, 1.0), complex(1.0, np.inf)]).reshape(1, 2, 1)
    x = ttio.tt_from_json_obj(ttio.tt_to_json_obj(TensorTrain([core])))
    assert x.cores[0].tobytes() == core.tobytes()


json_leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
               | st.text(max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)
# Core lists shaped like (r, n, r') nested lists of small sizes.
core_lists = st.lists(st.lists(st.lists(st.lists(st.floats(-2, 2), min_size=1, max_size=2),
                                        min_size=1, max_size=2),
                               min_size=1, max_size=2), min_size=1, max_size=3)
train_keys = {
    "field": st.sampled_from(["real", "complex", "quaternion"]) | json_values,
    "dims": st.lists(st.integers(1, 2), max_size=3) | json_values,
    "ranks": st.lists(st.integers(1, 2), max_size=4) | json_values,
    "cores": core_lists | json_values,
    "cores_re": core_lists | json_values,
    "cores_im": core_lists | json_values,
}


# Written trains, as they are or with one key replaced.
train_objs = st.builds(_json_obj, st.sampled_from(["real", "complex"]),
                       st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
                       st.integers(1, 3), st.integers(0, 9))
edited_objs = st.tuples(train_objs, st.sampled_from(sorted(train_keys)),
                        train_keys["cores"]).map(lambda t: dict(t[0], **{t[1]: t[2]}))


@settings(max_examples=300, deadline=None)
@given(train_objs | edited_objs | st.fixed_dictionaries({}, optional=train_keys) | json_values)
def test_json_reader_fuzz_gives_train_or_value_error(obj):
    try:
        x = ttio.tt_from_json_obj(obj)
    except ValueError:
        return
    assert isinstance(x, TensorTrain)
    assert ttio.tt_from_json_obj(ttio.tt_to_json_obj(x)).dims == x.dims
