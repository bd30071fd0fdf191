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
