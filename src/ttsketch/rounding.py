"""Rank truncation of tensor trains.

Three routes:

* ``tt_round``: the exact left-to-right QR sweep of ``tt.tt_orthogonalize``
  followed by a truncated SVD sweep right-to-left; output is
  right-orthogonal.
* ``tt_rand_round``: randomize-then-orthogonalize.  The same left-to-right
  sweep, in which a single nested sketch of the tail chains replaces the
  QR at every bond that must be cut; a bond already within its target
  keeps the exact QR.  Output is left-orthogonal.
* ``stta``: two-sided streaming truncation.  Left and right sketches are
  combined through small pseudo-inverses; the map from train to sketch
  streams is linear, so streams of a sum are sums of streams.

The first two also round a ``TTSum`` of trains and operator-train products
from its terms, in that one sweep (``tt._sweep_terms``), which never
assembles the sum or the products.
"""

import math

import numpy as np

from .contract import _left_step, partial_contractions, sketch_linear_combination
from .sketch import SketchSpec, _integer, make_sketch
from .tt import (
    STREAM_STTA_LEFT,
    TensorTrain,
    _left_sweep,
    _sweep_terms,
    _terms,
    gaussian,
    rng_for,
    tt_orthogonalize,
)


def _rank_list(ranks, d, key, low=1):
    """Rank argument ``key``, one integer or d + 1 of them, as a list of
    d + 1 ints; a ValueError names ``key`` unless each is at least ``low``."""
    scalar = not np.iterable(ranks)
    values = [_integer(key, r, "rank argument") for r in ([ranks] if scalar else ranks)]
    if any(r < low for r in values):
        raise ValueError("rank argument %r must be at least %d: %r" % (key, low, ranks))
    if scalar:
        return [1] + values * (d - 1) + [1]
    if len(values) != d + 1:
        raise ValueError("rank argument %r needs d+1 = %d entries" % (key, d + 1))
    return values


def _svd(a):
    """Thin SVD ``u, s, vh`` of ``a``.

    LAPACK's divide-and-conquer SVD can fail to converge on an
    ill-conditioned but finite matrix (a sketched 64 x 64 unfolding of
    condition number 2e14 does); only then is the SVD taken of the
    conjugate transpose, whose factors are those of ``a`` swapped.
    """
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        u, s, vh = np.linalg.svd(a.conj().T, full_matrices=False)
        return vh.conj().T, s, u.conj().T


def pinv_trunc(a, rcond=1e-12):
    """Pseudo-inverse that drops singular values below rcond * sigma_max."""
    u, s, vh = _svd(a)
    if s.size == 0 or s[0] == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=a.dtype)
    keep = s > rcond * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv) @ u.conj().T


def tt_round(x, max_ranks=None, tol=None):
    """Deterministic rounding to rank caps and/or a relative tolerance.

    ``x`` is a ``TensorTrain`` or a ``TTSum``; either is left-orthogonalized
    by ``tt_orthogonalize``, a sum from its terms without assembling it.
    With ``tol`` set, each truncation sweep step discards a singular-value
    tail of norm at most tol * ||x|| / sqrt(d - 1).
    """
    if max_ranks is None and tol is None:
        raise ValueError("give max_ranks, tol, or both")
    left = tt_orthogonalize(x, "left")
    d = left.d
    if d == 1:
        return left
    caps = _rank_list(max_ranks, d, "max_ranks") if max_ranks is not None else None
    cores = left.cores
    norm = np.linalg.norm(cores[-1])
    delta = tol * norm / np.sqrt(d - 1) if tol is not None else None
    for k in range(d - 1, 0, -1):
        r1, n, r2 = cores[k].shape
        u, s, vh = _svd(cores[k].reshape(r1, n * r2))
        keep = s.size
        if delta is not None:
            tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
            # tail[j] is the norm of singular values j..end
            ok = np.nonzero(tail <= delta)[0]
            keep = ok[0] if ok.size else s.size
        if caps is not None:
            keep = min(keep, caps[k])
        keep = max(int(keep), 1)
        cores[k] = vh[:keep].reshape(keep, n, r2)
        cores[k - 1] = np.tensordot(cores[k - 1], u[:, :keep] * s[:keep], axes=(2, 0))
    return TensorTrain(cores)


def _chain_sketch(dims, bonds, field, seed):
    """``gaussian_tt`` at R = the largest inner bond ``bonds[1:d]``, at least 1."""
    return make_sketch(SketchSpec("gaussian_tt", tuple(dims), R=max([1, *bonds[1:len(dims)]]),
                                  field=field, seed=seed))


def tt_rand_round(x, max_ranks, sk=None, partials=None, seed=0):
    """Randomize-then-orthogonalize rounding; output is left-orthogonal.

    ``x`` is a ``TensorTrain`` or a ``TTSum``.  A sum is rounded from its
    terms: the sweep keeps one projected core per term, and the unfolding
    at a bond is the concatenation of their columns, so no block-diagonal
    or operator-product core is built.  A train is the sum of one term.

    One sketch of the tail chains is shared across all modes; by default it
    is ``gaussian_tt`` at R = the largest inner cap.  Each bond is
    capped at the target, at the size of the left unfolding, at the tail
    size and at the input's own bond, so the output ranks are feasible; a
    bond that fits is orthogonalized exactly, by a QR of its unfolding,
    without the sketch.  At a bond that must be cut, if the sketch carries
    more columns than the capped rank, the range basis is truncated
    through an SVD of the sketched unfolding.  Precomputed partial sketches
    may be passed in; their column layout must match the cores of the
    assembled train: term blocks in order, operator bond major within an
    (operator, train) term, as ``sketch_linear_combination`` gives them.
    The coefficients are folded into the last core.
    """
    dims = x.dims
    d = len(dims)
    caps = _rank_list(max_ranks, d, "max_ranks")
    if d > 1 and partials is None:
        if sk is None:
            sk = _chain_sketch(dims, caps, x.field, seed)
        partials = sketch_linear_combination(sk, *_terms(x))
    tails = [math.prod(dims[k + 1:]) for k in range(d)]

    def bond(k, m):
        target = min(caps[k + 1], tails[k])
        if min(m.shape) <= target:
            return np.linalg.qr(m)  # the bond fits: exact, and R is q* m
        z = m @ partials.Ws[k + 1].T
        q = _svd(z)[0][:, :target] if z.shape[1] > target else np.linalg.qr(z)[0]
        return q, q.conj().T @ m

    return _sweep_terms(x, bond)


class STTASketchPair:
    """Shared left/right sketches for streaming truncation."""

    def __init__(self, dims, ranks, oversample=None, field="real", seed=0):
        self.dims = tuple(dims)
        d = len(self.dims)
        self.ranks = _rank_list(ranks, d, "ranks")
        over = self.ranks if oversample is None else _rank_list(oversample, d, "oversample", low=0)
        self.left_bonds = [1] + self.ranks[1:d] + [1]
        # tt_random's streams for STREAM_STTA_LEFT, with entry variance one over
        # the left bond; scaling inside gaussian keeps the complex draws' bytes.
        self.left_cores = [gaussian(rng_for(seed, STREAM_STTA_LEFT, 0, k), (a, n, b), field,
                                    scale=np.sqrt(1.0 / a))
                           for k, (n, a, b) in enumerate(zip(self.dims, self.left_bonds,
                                                             self.left_bonds[1:]))]
        self.right = _chain_sketch(self.dims, [r + o for r, o in zip(self.ranks, over)],
                                   field, seed)


def stta_streams(x, sketches):
    """Linear sketch streams of a train: pairs (S_k, Z_k) for each mode.

    S_k pairs the left sketch of modes 1..k with the right sketch of modes
    k+1..d through x; Z_k leaves mode k open.  The last mode has no right
    sketch and is paired with a 1x1 ones partial instead: its S is the
    scalar full contraction, kept only so the streams stay linear, and
    assembly treats it as an identity.
    """
    if x.dims != sketches.dims:
        raise ValueError("sketch dims do not match train dims")
    one = np.ones((1, 1))
    lam = [one] + _left_sweep(sketches.left_cores, x.cores, one)  # lam[k] pairs modes 1..k
    ws = partial_contractions(sketches.right, x).Ws[1:] + [one]  # ws[k] pairs modes k+2..d
    streams = []
    for k, xk in enumerate(x.cores):
        r1, n, r2 = xk.shape
        s = lam[k + 1] @ ws[k].T
        z = _left_step(lam[k], xk).reshape(-1, r2) @ ws[k].T
        streams.append((s, z.reshape(lam[k].shape[0], n, -1)))
    return streams


def stta_assemble(streams):
    """Cores from streams: Y_k = Z_k pinv(S_k), last core Y_d = Z_d."""
    cores = []
    d = len(streams)
    for k, (s, z) in enumerate(streams):
        if k < d - 1:
            cores.append(np.tensordot(z, pinv_trunc(s), axes=(2, 0)))
        else:
            cores.append(z)
    return TensorTrain(cores)


def stta(x, ranks, oversample=None, seed=0):
    """Two-sided streaming rounding to the given target ranks.

    ``ranks`` and ``oversample`` (default ``ranks``) are each a scalar or a
    list of d + 1 entries; the right sketch is ``gaussian_tt`` at R = the
    largest inner bond of their sum.
    """
    sketches = STTASketchPair(x.dims, ranks, oversample=oversample, field=x.field, seed=seed)
    return stta_assemble(stta_streams(x, sketches))
