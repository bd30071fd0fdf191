import numpy as np
import pytest

from ttsketch import io as ttio
from ttsketch.tt import tt_random


@pytest.mark.parametrize("field", ["real", "complex"])
def test_binary_roundtrip(tmp_path, field):
    x = tt_random((2, 3, 2), (1, 2, 3, 1), field=field, seed=1)
    path = tmp_path / "x.ttf"
    ttio.write_tt(path, x)
    y = ttio.read_tt(path)
    assert y.dims == x.dims and y.ranks == x.ranks and y.field == field
    for a, b in zip(x.cores, y.cores):
        assert np.array_equal(a, b)


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
