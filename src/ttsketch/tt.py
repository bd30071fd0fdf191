"""Tensor-train containers and exact (non-randomized) algebra.

A tensor train is stored as a list of order-3 cores ``C[k]`` of shape
``(r[k], n[k], r[k+1])``.  Plain trains have boundary ranks 1; block trains
may carry ``r[0] > 1`` or ``r[d] > 1`` and expose those axes in dense form.
Operators are lists of order-4 cores ``(rH[k], n_out[k], n_in[k], rH[k+1])``.
Block trains of stacked plain trains come only from ``_stacked_train``;
every left-to-right pairing projects through ``contract._left_step``.

All index linearizations are row-major (C order): the first mode varies
slowest.  Inner products are conjugate-linear in the first argument.
"""

import itertools

import numpy as np

from .contract import _left_step

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
    out-of-order realization of the cores of a train or sketch cannot
    change results.  Negative seeds are rejected; every bit of a seed is
    used.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative, got %d" % seed)
    key = [seed, int(stream)] + [int(p) for p in path]
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
        return self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1

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


class TTSum:
    """The sum of ``coefficients[j] * terms[j]``, kept as its terms.

    Each term is a plain ``TensorTrain`` or an ``(TTOperator, TensorTrain)``
    pair standing for the operator applied to the train.  Nothing is
    assembled: ``tt_orthogonalize``, ``rounding.tt_round`` and
    ``rounding.tt_rand_round`` read the terms core by core, and
    ``contract.sketch_linear_combination`` sketches them.
    """

    def __init__(self, terms, coefficients):
        self.terms = list(terms)
        self.coefficients = list(coefficients)
        if len(self.terms) != len(self.coefficients):
            raise ValueError("need one coefficient per term")
        if not self.terms:
            raise ValueError("empty sum")
        dims = set()
        for t in self.terms:
            h, x = t if isinstance(t, tuple) and len(t) == 2 else (None, t)
            if not isinstance(x, TensorTrain) or not isinstance(h, (TTOperator, type(None))):
                raise ValueError("a term must be a TensorTrain or a (TTOperator, TensorTrain) pair")
            if h is not None and h.dims_in != x.dims:
                raise ValueError("operator input dims do not match train dims")
            if x.is_block:
                raise ValueError("block trains not supported in sum")
            dims.add(x.dims if h is None else h.dims_out)
        if len(dims) != 1:
            raise ValueError("mode dimension mismatch in sum")
        self.dims = dims.pop()

    @property
    def field(self):
        arrays = [c for t in self.terms for part in (t if isinstance(t, tuple) else (t,))
                  for c in part.cores]
        complex_ = any(np.iscomplexobj(a) for a in arrays + self.coefficients)
        return "complex" if complex_ else "real"


def _terms(x):
    """The terms and coefficients of a ``TTSum``; a train is one term."""
    return (x.terms, x.coefficients) if isinstance(x, TTSum) else ([x], [1.0])


def _sweep_terms(x, bond):
    """Left-to-right sweep over the terms of ``x``, a train or a ``TTSum``.

    The sweep keeps one projected core per term; the unfolding ``m`` at bond
    k is the concatenation of their columns.  ``bond(k, m)`` returns an
    orthonormal basis q of the range kept at that bond and the projection
    q* m, which is carried into each term's next core, so no block-diagonal
    or operator-product core is built.  The coefficients are folded into
    the last core.  The result is left-orthogonal.
    """
    terms, coefficients = _terms(x)
    ops = [list(zip(t[0].cores, t[1].cores)) if isinstance(t, tuple) else t.cores
           for t in terms]
    # Terms of a sum are plain; a train may carry a left block rank.
    eye = np.eye(1 if isinstance(x, TTSum) else x.ranks[0])
    pieces = [_left_step(eye, op[0]) for op in ops]
    out = []
    for k in range(len(ops[0]) - 1):
        r1, n = pieces[0].shape[:2]
        cols = [piece.reshape(r1 * n, -1) for piece in pieces]
        m = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
        q, proj = bond(k, m)
        out.append(q.reshape(r1, n, q.shape[1]))
        offsets = [0, *itertools.accumulate(c.shape[1] for c in cols)]
        pieces = [_left_step(proj[:, a:b], op[k + 1])
                  for a, b, op in zip(offsets, offsets[1:], ops)]
    last = coefficients[0] * pieces[0]
    for a, piece in zip(coefficients[1:], pieces[1:]):
        last = last + a * piece
    out.append(last)
    return TensorTrain(out)


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


def _left_sweep(a_cores, ops, m):
    """Pairings of a chain with the local operators ``ops`` of
    ``contract._left_step`` after each core, swept from the left: ``m``
    (ra_0, chi_0) pairs the left bonds, entry k of the result pairs the
    chains over modes 1..k+1.  Nothing is conjugated here."""
    out = []
    for a, op in zip(a_cores, ops):
        m = np.einsum("xnc,xne->ce", a, _left_step(m, op))
        out.append(m)
    return out


def tt_inner(x, y):
    """<x, y>, conjugate-linear in x.  Block boundary ranks must match.
    ``y`` may be an (operator, train) pair (h, z): <x, h z> in one sweep."""
    return _inner(x, y)


def _inner(x, y):
    # tt_inner's body.  perfbench keys a traced tt_inner call by two train
    # shapes, so the eigensolver pairs with (h, x) here, past that span.
    h, z = y if isinstance(y, tuple) else (None, y)
    if h is not None and h.dims_in != z.dims:
        raise ValueError("operator input dims do not match train dims")
    if x.dims != (z.dims if h is None else h.dims_out):
        raise ValueError("mode dimension mismatch")
    if x.ranks[0] != z.ranks[0] or x.ranks[-1] != z.ranks[-1]:
        raise ValueError("boundary rank mismatch")
    ops = z.cores if h is None else list(zip(h.cores, z.cores))
    return np.trace(_left_sweep([c.conj() for c in x.cores], ops, np.eye(x.ranks[0]))[-1])


def tt_gram(trains):
    """G[i, j] = <trains[i], trains[j]>, from one sweep of their stack."""
    return _stack_gram(_stacked_train(trains))


def _stack_gram(stack):
    """Gram matrix of the rows of a stack: the left sweep of its reversed
    cores, paired with themselves."""
    flipped = [c.transpose(2, 1, 0) for c in stack.cores[::-1]]
    return _left_sweep([c.conj() for c in flipped], flipped, np.ones((1, 1)))[-1]


def tt_norm(x):
    v = tt_inner(x, x).real
    return float(np.sqrt(max(v, 0.0)))


def tt_residual_norm(x, y):
    """||x - y||, from the last core of the left-orthogonalized difference.

    The difference is swept from its two terms, never assembled.  Accurate
    down to round-off relative to the norms of x and y, where ``tt_norm`` of
    the difference, the square root of an inner product, loses half the
    digits and can read exactly 0.
    """
    diff = tt_orthogonalize(TTSum([x, y], [1.0, -1.0]), "left")
    return float(np.linalg.norm(diff.cores[-1]))


def tt_scale(x, alpha):
    cores = [c.copy() for c in x.cores]
    cores[-1] = cores[-1] * alpha
    return TensorTrain(cores)


def tt_orthogonalize(x, mode):
    """Exact QR sweep; ``mode`` is 'left' or 'right'.  Ranks never increase.

    In left mode ``x`` is a train or a ``TTSum``, whose terms are swept
    without assembling the sum (see ``_sweep_terms``).  The right sweep,
    for trains only, is the left sweep of the train with its modes
    reversed.
    """
    if mode == "left":
        return _sweep_terms(x, lambda k, m: np.linalg.qr(m))  # R is q* m
    if mode != "right":
        raise ValueError("mode must be 'left' or 'right'")
    if isinstance(x, TTSum):
        raise ValueError("a TTSum is orthogonalized in left mode only")
    flipped = TensorTrain([c.transpose(2, 1, 0) for c in x.cores[::-1]])
    left = tt_orthogonalize(flipped, "left")
    return TensorTrain([c.transpose(2, 1, 0) for c in left.cores[::-1]])


def _common_dims(trains, what):
    """The dims of a non-empty list of plain trains that share them."""
    if not trains:
        raise ValueError("empty " + what)
    dims = trains[0].dims
    for t in trains:
        if t.dims != dims:
            raise ValueError("mode dimension mismatch in " + what)
        if t.is_block:
            raise ValueError("block trains not supported in " + what)
    return dims


def _block_diagonal_core(blocks, dtype):
    """Core with the (r1_j, n, r2_j) blocks on its slice-wise diagonal."""
    if len({b.shape for b in blocks}) == 1:
        # Equal blocks go in with one assignment through a (J, a, n, J, c) view.
        (a, n, c), count = blocks[0].shape, len(blocks)
        core = np.zeros((count, a, n, count, c), dtype=dtype)
        j = np.arange(count)
        core[j, :, :, j, :] = blocks
        return core.reshape(count * a, n, count * c)
    r1 = sum(b.shape[0] for b in blocks)
    r2 = sum(b.shape[2] for b in blocks)
    core = np.zeros((r1, blocks[0].shape[1], r2), dtype=dtype)
    o1 = o2 = 0
    for b in blocks:
        core[o1:o1 + b.shape[0], :, o2:o2 + b.shape[2]] = b
        o1 += b.shape[0]
        o2 += b.shape[2]
    return core


def _stacked_train(trains):
    """Plain trains with common dims as one block train of left boundary
    rank r: every core but the last block diagonal, the last cores stacked
    along their left bond.  Its row i (left boundary index) is train i."""
    dims = _common_dims(trains, "stack")
    dtype = np.result_type(*(c.dtype for t in trains for c in t.cores))
    cores = [_block_diagonal_core([t.cores[k] for t in trains], dtype)
             for k in range(len(dims) - 1)]
    cores.append(np.concatenate([t.cores[-1] for t in trains], axis=0).astype(dtype, copy=False))
    return TensorTrain(cores)


def tt_linear_combination(terms, coefficients):
    """Exact sum of plain trains with matching dims: their stack with its
    left boundary summed out.  Bond ranks of the result are the sums of the
    term ranks; the weights are folded into the last core of each term."""
    if len(terms) != len(coefficients):
        raise ValueError("need one coefficient per term")
    cores = _stacked_train(terms).cores
    weights = np.repeat(coefficients, [t.cores[-1].shape[0] for t in terms])
    cores[-1] = weights[:, None, None] * cores[-1]
    cores[0] = cores[0].sum(axis=0, keepdims=True)
    return TensorTrain(cores)


def tt_hadamard_assemble(terms):
    """Elementwise product of plain trains; ranks multiply."""
    _common_dims(terms, "product")
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


def tt_random(dims, ranks, field="real", seed=0, stream=STREAM_TT):
    """Train with iid standard normal core entries (complex: unit variance)."""
    dims = tuple(dims)
    d = len(dims)
    ranks = tuple(ranks)
    if len(ranks) != d + 1:
        raise ValueError("need d+1 ranks")
    return TensorTrain([gaussian(rng_for(seed, stream, 0, k), (ranks[k], dims[k], ranks[k + 1]),
                                 field) for k in range(d)])


def tt_feasible_ranks(dims, r):
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
