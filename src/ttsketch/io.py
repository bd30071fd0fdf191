"""Binary serialization for tensor trains.

Layout (all integers little-endian):

  magic   4 bytes  b"TTF1"
  field   u8       0 = real, 1 = complex
  d       u32
  dims    d  x u32
  ranks   d+1 x u32
  cores   f64 payload, core by core, row-major (r_prev, n, r_next);
          complex cores store interleaved (re, im) per entry

Readers must reject wrong magic and inconsistent rank chains.
"""

import json
import struct

import numpy as np

from .tt import TensorTrain

MAGIC = b"TTF1"


def write_tt(path, x):
    field_flag = 1 if x.field == "complex" else 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<B", field_flag))
        f.write(struct.pack("<I", x.d))
        f.write(struct.pack("<%dI" % x.d, *x.dims))
        f.write(struct.pack("<%dI" % (x.d + 1), *x.ranks))
        for c in x.cores:
            f.write(c.astype("<c16" if field_flag else "<f8").tobytes())


def _unpack_header(fmt, data, off):
    """Header fields at ``off``, or ValueError if the file ends first."""
    if off + struct.calcsize(fmt) > len(data):
        raise ValueError("truncated header")
    return struct.unpack_from(fmt, data, off)


def read_tt(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ValueError("bad magic, not a TTF1 file")
    off = 4
    (field_flag,) = _unpack_header("<B", data, off)
    off += 1
    if field_flag not in (0, 1):
        raise ValueError("bad field flag %d" % field_flag)
    (d,) = _unpack_header("<I", data, off)
    off += 4
    if d == 0:
        raise ValueError("empty train")
    dims = _unpack_header("<%dI" % d, data, off)
    off += 4 * d
    ranks = _unpack_header("<%dI" % (d + 1), data, off)
    off += 4 * (d + 1)
    cores = []
    dtype = np.dtype("<c16" if field_flag else "<f8")
    for k in range(d):
        count = ranks[k] * dims[k] * ranks[k + 1]
        if off + count * dtype.itemsize > len(data):
            raise ValueError("truncated core payload at core %d" % k)
        c = np.frombuffer(data, dtype=dtype, count=count, offset=off)
        off += count * dtype.itemsize
        cores.append(c.reshape(ranks[k], dims[k], ranks[k + 1]))
    if off != len(data):
        raise ValueError("trailing bytes after last core")
    return TensorTrain(cores)


def tt_to_json_obj(x):
    obj = {
        "field": x.field,
        "dims": list(x.dims),
        "ranks": list(x.ranks),
    }
    if x.field == "complex":
        obj["cores_re"] = [np.asarray(c).real.tolist() for c in x.cores]
        obj["cores_im"] = [np.asarray(c).imag.tolist() for c in x.cores]
    else:
        obj["cores"] = [np.asarray(c).tolist() for c in x.cores]
    return obj


def _json_cores(obj, key):
    """The list of float arrays under ``key``; ValueError names the key."""
    if key not in obj:
        raise ValueError("train JSON has no %r" % key)
    if not isinstance(obj[key], list):
        raise ValueError("train JSON %r is not a list" % key)
    try:
        return [np.asarray(c, dtype=float) for c in obj[key]]
    except (TypeError, ValueError, OverflowError):
        raise ValueError("train JSON %r holds a core that is not a numeric array" % key) from None


def tt_from_json_obj(obj):
    """Train from a parsed JSON object; ValueError names a missing or bad key."""
    if not isinstance(obj, dict):
        raise ValueError("train JSON must be an object")
    field = obj.get("field")
    if field == "complex":
        re, im = _json_cores(obj, "cores_re"), _json_cores(obj, "cores_im")
        if len(re) != len(im) or any(a.shape != b.shape for a, b in zip(re, im)):
            raise ValueError("train JSON 'cores_re' and 'cores_im' differ in shape")
        # (re, im) pairs read as complex; a + 1j*b would turn 1+inf*j into nan+inf*j
        cores = [np.stack([a, b], axis=-1).view(complex)[..., 0] for a, b in zip(re, im)]
    elif field == "real":
        cores = _json_cores(obj, "cores")
    else:
        raise ValueError("train JSON 'field' must be 'real' or 'complex', got %r" % (field,))
    x = TensorTrain(cores)
    for key in ("dims", "ranks"):
        if obj.get(key) != list(getattr(x, key)):
            raise ValueError("train JSON %r is missing or disagrees with the cores" % key)
    return x


def write_tt_json(path, x):
    with open(path, "w") as f:
        json.dump(tt_to_json_obj(x), f)


def read_tt_json(path):
    with open(path) as f:
        return tt_from_json_obj(json.load(f))
