"""Shared brute-force oracles, intentionally independent of the library's
contraction code paths: entries are evaluated by explicit per-index matrix
products so the fast implementations have something to be checked against.
The test-only helpers at the end read trains, sketches and stta streams
through their public layout.
"""

import numpy as np

from ttsketch.tt import STREAM_EXPERIMENT, TensorTrain, _block_diagonal_core, gaussian, rng_for


def oracle_entry(cores, idx):
    m = cores[0][:, idx[0], :]
    for k in range(1, len(cores)):
        m = m @ cores[k][:, idx[k], :]
    return m


def oracle_dense(x):
    """Entry-by-entry materialization of a (block) train."""
    cores = x.cores if isinstance(x, TensorTrain) else list(x)
    dims = tuple(c.shape[1] for c in cores)
    r0 = cores[0].shape[0]
    rd = cores[-1].shape[2]
    dtype = np.result_type(*(c.dtype for c in cores))
    out = np.empty((r0,) + dims + (rd,), dtype=dtype)
    for idx in np.ndindex(*dims):
        out[(slice(None),) + idx + (slice(None),)] = oracle_entry(cores, idx)
    if rd == 1:
        out = out[..., 0]
    if r0 == 1:
        out = out[0]
    return out


def oracle_vector(x):
    return oracle_dense(x).reshape(-1)


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def tt_evaluate(x, index):
    """Single entry of a plain train at a multi-index, O(d r^2)."""
    if len(index) != x.d:
        raise ValueError("index length mismatch")
    v = x.cores[0][:, index[0], :]
    for k in range(1, x.d):
        v = v @ x.cores[k][:, index[k], :]
    if v.shape != (1, 1):
        raise ValueError("entry evaluation needs scalar boundary ranks")
    return v[0, 0]


def is_orthogonal(x, mode, atol=1e-10):
    """Check core unfoldings; left skips the last core, right skips the first."""
    if mode == "left":
        cores = x.cores[:-1]
    else:
        cores = x.cores[1:]
    for c in cores:
        r1, n, r2 = c.shape
        if mode == "left":
            m = c.reshape(r1 * n, r2)
            g = m.conj().T @ m
        else:
            m = c.reshape(r1, n * r2)
            g = m @ m.conj().T
        if not np.allclose(g, np.eye(g.shape[0]), atol=atol):
            return False
    return True


def block_tt_view(sk):
    """The whole sketch as one block tensor train.

    Every core but the last is slice-wise block diagonal over blocks, the
    last core stacks blocks vertically, and the global scale is folded into
    the first core.  Its dense unfolding equals ``sketch_dense`` row for row.
    """
    cores = [_block_diagonal_core(g, g.dtype) for g in sk.cores[:-1]]
    g = sk.cores[-1]
    cores.append(g.reshape(-1, *g.shape[2:]))
    cores[0] = cores[0] * sk.scale
    return TensorTrain(cores)


def spec_to_json_obj(spec):
    """The JSON object that ``SketchSpec.from_json_obj`` reads back as ``spec``."""
    return {"variant": spec.variant, "P": spec.P, "R": spec.R, "dims": list(spec.dims),
            "field": spec.field, "seed": spec.seed}


def spec_rows(spec):
    """Rows of the sketching matrix a ``SketchSpec`` describes; otts realizes
    one joint chain over its P blocks."""
    per_block = spec.bond_pattern()[0]
    return per_block if spec.variant == "otts" else spec.P * per_block


def grid_point(grid, index):
    """Coordinates on a ``DyadicGrid`` of a flat multi-index of bits."""
    if len(index) != grid.d:
        raise ValueError("index length mismatch")
    x = np.zeros(grid.n_vars)
    for (v, w), i in zip(grid.bit_weights(), index):
        x[v] += w * i
    return x


def grid_index_of(grid, *ints):
    """Bit multi-index on a ``DyadicGrid`` of per-variable integer positions."""
    if len(ints) != grid.n_vars:
        raise ValueError("need one integer per variable")
    out = []
    for v, nb in enumerate(grid.bits):
        j = int(ints[v])
        if not 0 <= j < 2 ** nb:
            raise ValueError("grid position out of range")
        out.extend((j >> (nb - 1 - b)) & 1 for b in range(nb))
    return out


def stta_streams_add(a, b, beta=1.0):
    """Streams of x + beta y from the streams of x and y."""
    return [(sa + beta * sb, za + beta * zb) for (sa, za), (sb, zb) in zip(a, b)]


def mc_moment_samples(a, b, R, field, nsamples, seed=0, form="trace"):
    """The samples behind ``analysis.mc_moment_matrix``, one draw at a time.

    Each sample draws one (R, n) Gaussian G from the same stream, forms
    G A G* and G B G*, and pairs their traces (``form='trace'``) or the two
    matrices Hilbert-Schmidt style (``form='hs'``).
    """
    a, b = np.asarray(a), np.asarray(b)
    rng = rng_for(seed, STREAM_EXPERIMENT, 0, 0)
    vals = np.empty(nsamples, dtype=complex if field == "complex" else float)
    for t in range(nsamples):
        g = gaussian(rng, (R, a.shape[0]), field, scale=np.sqrt(1.0 / R))
        ga = g @ a @ g.conj().T
        gb = g @ b @ g.conj().T
        if form == "trace":
            vals[t] = np.trace(ga) * np.conj(np.trace(gb))
        else:
            vals[t] = np.trace(ga @ gb.conj().T)
    return vals
