"""Tensor-train containers and exact (non-randomized) algebra.

A tensor train is stored as a list of order-3 cores ``C[k]`` of shape
``(r[k], n[k], r[k+1])``.  Plain trains have boundary ranks 1; block trains
may carry ``r[0] > 1`` or ``r[d] > 1`` and expose those axes in dense form.
Operators are lists of order-4 cores ``(rH[k], n_out[k], n_in[k], rH[k+1])``.

All index linearizations are row-major (C order): the first mode varies
slowest.  Inner products are conjugate-linear in the first argument.
"""

import numpy as np

# Refuse to densify anything larger than this many entries.
DEFAULT_DENSE_CAP = 2 ** 20

# Sub-stream tags for the counter-based RNG, one per consumer site.
STREAM_TT = 1
STREAM_SKETCH = 2
STREAM_STTA_LEFT = 3
STREAM_EXPERIMENT = 4


def rng_for(seed, stream, *path):
    """Deterministic generator keyed by (seed, stream tag, index path).

    Distinct paths give statistically independent streams, so parallel or
    out-of-order realization of sketch blocks/cores cannot change results.
    """
    key = [int(seed) & 0xFFFFFFFF, int(stream)] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(key))


def gaussian(rng, shape, field, scale=1.0):
    """Standard normal array; complex entries are (Z1 + i Z2)/sqrt(2)."""
    if field == "complex":
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return scale / np.sqrt(2.0) * z
    return scale * rng.standard_normal(shape)


class TensorTrain:
    """Chain of order-3 cores; supports block boundary ranks."""

    def __init__(self, cores):
        self.cores = [np.asarray(c) for c in cores]
        self.validate()

    def validate(self):
        if not self.cores:
            raise ValueError("empty core list")
        for k, c in enumerate(self.cores):
            if c.ndim != 3:
                raise ValueError("core %d has order %d, expected 3" % (k, c.ndim))
            if k > 0 and self.cores[k - 1].shape[2] != c.shape[0]:
                raise ValueError(
                    "bond mismatch between cores %d and %d: %d != %d"
                    % (k - 1, k, self.cores[k - 1].shape[2], c.shape[0])
                )

    @property
    def d(self):
        return len(self.cores)

    @property
    def dims(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self):
        return (self.cores[0].shape[0],) + tuple(c.shape[2] for c in self.cores)

    @property
    def field(self):
        return (
            "complex"
            if any(np.issubdtype(c.dtype, np.complexfloating) for c in self.cores)
            else "real"
        )

    @property
    def is_block(self):
        return self.ranks[0] != 1 or self.ranks[-1] != 1

    def copy(self):
        return TensorTrain([c.copy() for c in self.cores])

    def size(self):
        return int(np.prod([float(n) for n in self.dims]))


class TTOperator:
    """Chain of order-4 operator cores."""

    def __init__(self, cores):
        self.cores = [np.asarray(c) for c in cores]
        self.validate()

    def validate(self):
        if not self.cores:
            raise ValueError("empty core list")
        for k, c in enumerate(self.cores):
            if c.ndim != 4:
                raise ValueError("operator core %d has order %d, expected 4" % (k, c.ndim))
            if k > 0 and self.cores[k - 1].shape[3] != c.shape[0]:
                raise ValueError("operator bond mismatch at %d" % k)
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[3] != 1:
            raise ValueError("operator boundary ranks must be 1")

    @property
    def d(self):
        return len(self.cores)

    @property
    def dims_out(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def dims_in(self):
        return tuple(c.shape[2] for c in self.cores)

    @property
    def ranks(self):
        return (1,) + tuple(c.shape[3] for c in self.cores)


def tt_dense(x, max_entries=DEFAULT_DENSE_CAP):
    """Materialize a (block) tensor train.

    Plain trains give shape ``dims``; a block boundary rank > 1 stays as a
    leading/trailing axis.
    """
    r0, rd = x.ranks[0], x.ranks[-1]
    total = r0 * rd * x.size()
    if total > max_entries:
        raise ValueError("dense result would have %d entries (cap %d)" % (total, max_entries))
    out = x.cores[0]
    for c in x.cores[1:]:
        out = np.tensordot(out, c, axes=(-1, 0))
    shape = []
    if r0 != 1:
        shape.append(r0)
    shape.extend(x.dims)
    if rd != 1:
        shape.append(rd)
    return out.reshape(shape)


def tto_dense(h, max_entries=DEFAULT_DENSE_CAP):
    """Materialize an operator train as a matrix (prod n_out, prod n_in)."""
    n_out = int(np.prod(h.dims_out))
    n_in = int(np.prod(h.dims_in))
    if n_out * n_in > max_entries:
        raise ValueError("dense operator would have %d entries" % (n_out * n_in))
    out = np.ones((1, 1, 1))
    for c in h.cores:
        out = np.einsum("abr,rijs->aibjs", out, c)
        a, i, b, j, s = out.shape
        out = out.reshape(a * i, b * j, s)
    return out[:, :, 0]


def unfold(x, dims, ell):
    """Row-major unfolding: rows indexed by modes 1..ell, columns by the rest."""
    dims = tuple(dims)
    if not 0 <= ell <= len(dims):
        raise ValueError("split index %d out of range" % ell)
    a = np.asarray(x).reshape(dims)
    rows = int(np.prod(dims[:ell], dtype=np.int64)) if ell else 1
    return a.reshape(rows, -1)


def core_unfold_left(c):
    """(r_prev * n, r_next) unfolding of a core, row-major."""
    r1, n, r2 = c.shape
    return c.reshape(r1 * n, r2)


def core_unfold_right(c):
    """(r_prev, n * r_next) unfolding of a core."""
    r1, n, r2 = c.shape
    return c.reshape(r1, n * r2)


def tt_inner(x, y):
    """<x, y>, conjugate-linear in x.  Block boundary ranks must match."""
    if x.dims != y.dims:
        raise ValueError("mode dimension mismatch")
    if x.ranks[0] != y.ranks[0] or x.ranks[-1] != y.ranks[-1]:
        raise ValueError("boundary rank mismatch")
    r0 = x.ranks[0]
    m = np.eye(r0, dtype=complex if x.field == "complex" or y.field == "complex" else float)
    for cx, cy in zip(x.cores, y.cores):
        # m[a, b] carries the contraction of all finished modes.
        m = np.einsum("ab,aic,bid->cd", m, cx.conj(), cy)
    return np.trace(m)


def tt_norm(x):
    v = tt_inner(x, x).real
    return float(np.sqrt(max(v, 0.0)))


def tt_residual_norm(x, y):
    """||x - y||, from the first core of the right-orthogonalized difference.

    Accurate down to round-off relative to the norms of x and y, where
    ``tt_norm`` of the difference, the square root of an inner product,
    loses half the digits and can read exactly 0.
    """
    diff = tt_linear_combination([x, y], [1.0, -1.0])
    return float(np.linalg.norm(tt_orthogonalize(diff, "right").cores[0]))


def tt_scale(x, alpha):
    cores = [c.copy() for c in x.cores]
    cores[-1] = cores[-1] * alpha
    return TensorTrain(cores)


def tt_orthogonalize(x, mode):
    """QR sweep; ``mode`` is 'left' or 'right'.  Ranks never increase."""
    cores = [c.copy() for c in x.cores]
    d = len(cores)
    if mode == "left":
        for k in range(d - 1):
            r1, n, r2 = cores[k].shape
            q, r = np.linalg.qr(cores[k].reshape(r1 * n, r2))
            cores[k] = q.reshape(r1, n, q.shape[1])
            cores[k + 1] = np.tensordot(r, cores[k + 1], axes=(1, 0))
    elif mode == "right":
        for k in range(d - 1, 0, -1):
            r1, n, r2 = cores[k].shape
            q, r = np.linalg.qr(cores[k].reshape(r1, n * r2).conj().T)
            cores[k] = q.conj().T.reshape(q.shape[1], n, r2)
            cores[k - 1] = np.tensordot(cores[k - 1], r.conj().T, axes=(2, 0))
    else:
        raise ValueError("mode must be 'left' or 'right'")
    return TensorTrain(cores)


def is_orthogonal(x, mode, atol=1e-10):
    """Check core unfoldings; left skips the last core, right skips the first."""
    if mode == "left":
        cores = x.cores[:-1]
    else:
        cores = x.cores[1:]
    for c in cores:
        if mode == "left":
            m = core_unfold_left(c)
            g = m.conj().T @ m
        else:
            m = core_unfold_right(c)
            g = m @ m.conj().T
        if not np.allclose(g, np.eye(g.shape[0]), atol=atol):
            return False
    return True


def _block_diagonal_core(blocks, dtype):
    """Core with the (r1_j, n, r2_j) blocks on its slice-wise diagonal."""
    r1 = sum(b.shape[0] for b in blocks)
    r2 = sum(b.shape[2] for b in blocks)
    core = np.zeros((r1, blocks[0].shape[1], r2), dtype=dtype)
    o1 = o2 = 0
    for b in blocks:
        core[o1:o1 + b.shape[0], :, o2:o2 + b.shape[2]] = b
        o1 += b.shape[0]
        o2 += b.shape[2]
    return core


def tt_linear_combination(terms, coefficients):
    """Exact block-structured sum of plain trains with matching dims.

    Bond ranks of the result are the sums of the term ranks; the scalar
    weights are folded into the last core of each term.
    """
    if len(terms) != len(coefficients):
        raise ValueError("need one coefficient per term")
    if not terms:
        raise ValueError("empty sum")
    dims = terms[0].dims
    for t in terms:
        if t.dims != dims:
            raise ValueError("mode dimension mismatch in sum")
        if t.is_block:
            raise ValueError("block trains not supported in linear combinations")
    if len(terms) == 1:
        return tt_scale(terms[0], coefficients[0])
    d = len(dims)
    dtype = np.result_type(*(c.dtype for t in terms for c in t.cores), *map(np.asarray, coefficients))
    if d == 1:
        c = sum(a * t.cores[0] for a, t in zip(coefficients, terms))
        return TensorTrain([np.asarray(c, dtype=dtype)])
    cores = [np.concatenate([t.cores[0] for t in terms], axis=2)]
    for k in range(1, d - 1):
        cores.append(_block_diagonal_core([t.cores[k] for t in terms], dtype))
    cores.append(np.concatenate([a * t.cores[-1] for a, t in zip(coefficients, terms)], axis=0))
    return TensorTrain(cores)


def tt_hadamard_assemble(terms):
    """Elementwise product of plain trains; ranks multiply."""
    if not terms:
        raise ValueError("empty product")
    dims = terms[0].dims
    for t in terms:
        if t.dims != dims:
            raise ValueError("mode dimension mismatch in product")
        if t.is_block:
            raise ValueError("block trains not supported in elementwise products")
    out = terms[0]
    for t in terms[1:]:
        cores = []
        for ca, cb in zip(out.cores, t.cores):
            n = ca.shape[1]
            # slice-wise Kronecker product
            c = np.einsum("aib,cid->acibd", ca, cb)
            cores.append(c.reshape(ca.shape[0] * cb.shape[0], n, ca.shape[2] * cb.shape[2]))
        out = TensorTrain(cores)
    return out


def tto_apply_assemble(h, x):
    """Apply an operator train to a train; bond ranks multiply."""
    if h.dims_in != x.dims:
        raise ValueError("operator input dims do not match train dims")
    cores = []
    for ch, cx in zip(h.cores, x.cores):
        c = np.einsum("aijb,cjd->acibd", ch, cx)
        s = c.shape
        cores.append(c.reshape(s[0] * s[1], s[2], s[3] * s[4]))
    return TensorTrain(cores)


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


def tt_random(dims, ranks, field="real", seed=0, stream=STREAM_TT):
    """Train with iid standard normal core entries (complex: unit variance)."""
    dims = tuple(dims)
    d = len(dims)
    ranks = tuple(ranks)
    if len(ranks) != d + 1:
        raise ValueError("need d+1 ranks")
    cores = []
    for k in range(d):
        rng = rng_for(seed, stream, 0, k)
        cores.append(gaussian(rng, (ranks[k], dims[k], ranks[k + 1]), field))
    return TensorTrain(cores)


def tt_random_orthogonal_ranks(dims, r):
    """Largest representable ranks <= r for the given dims (plain train)."""
    dims = tuple(dims)
    d = len(dims)
    ranks = [1] * (d + 1)
    left = 1
    caps = [1] * (d + 1)
    for k in range(d):
        left = min(left * dims[k], 2 ** 62)
        caps[k + 1] = left
    right = 1
    for k in range(d, 0, -1):
        caps[k] = min(caps[k], right)
        right = min(right * dims[k - 1], 2 ** 62)
    caps[0] = 1
    for k in range(d + 1):
        ranks[k] = min(r if 0 < k < d else 1, caps[k])
    return tuple(ranks)


def tt_from_dense(a, dims, max_rank=None, tol=0.0):
    """Exact (or truncated) TT-SVD of a dense tensor, row-major modes."""
    dims = tuple(dims)
    a = np.asarray(a).reshape(dims)
    d = len(dims)
    cores = []
    r_prev = 1
    m = a.reshape(r_prev * dims[0], -1)
    for k in range(d - 1):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        keep = int(np.sum(s > max(tol, s[0] * 1e-14 if s.size else 0)))
        if max_rank is not None:
            keep = min(keep, max_rank)
        keep = max(keep, 1)
        cores.append(u[:, :keep].reshape(r_prev, dims[k], keep))
        m = (s[:keep, None] * vh[:keep])
        r_prev = keep
        m = m.reshape(r_prev * dims[k + 1], -1)
    cores.append(m.reshape(r_prev, dims[d - 1], 1))
    return TensorTrain(cores)
