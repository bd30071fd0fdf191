"""Randomized tensor-train sketch family.

Every variant realizes ``P`` independent blocks of tensor-train cores; block
``j`` defines as many rows of the sketching matrix as its first left bond,
and the blocks are stacked block-major.  The global ``1/sqrt(P)`` factor is
kept separately in ``scale`` so structured contractions can defer it.

Variants
--------
tts
    Uniform block rank ``R``: left bonds ``[R] * d + [1]``.
otts
    Same chain shape with ranks clipped to the tail dimension product; core
    unfoldings are Haar row-orthonormal frames scaled so each block has
    exactly orthogonal rows.
khatri_rao
    ``tts`` at R = 1.
gaussian_tt
    ``tts`` at P = 1.

Gaussian core entries have variance one over the core's left bond.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .tt import STREAM_SKETCH, _integer, gaussian, rng_for

VARIANTS = ("tts", "otts", "khatri_rao", "gaussian_tt")

# JSON type of each SketchSpec field; SketchSpec checks the integers itself.
_JSON_TYPES = {"variant": str, "dims": list, "P": int, "R": int, "field": str,
               "seed": int}


@dataclass
class SketchSpec:
    variant: str
    dims: tuple
    P: int = 1
    R: int = 1
    field: str = "real"
    seed: int = 0

    def __post_init__(self):
        if not np.iterable(self.dims):
            raise ValueError("sketch spec 'dims' is not a list: %r" % (self.dims,))
        self.dims = tuple(_integer("dims", n, "sketch spec") for n in self.dims)
        self.P, self.R, self.seed = (_integer(k, getattr(self, k), "sketch spec")
                                     for k in ("P", "R", "seed"))
        self.validate()

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError("unknown variant %r" % (self.variant,))
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError("dims must be positive")
        if self.P < 1 or self.R < 1:
            raise ValueError("P and R must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.variant == "khatri_rao" and self.R != 1:
            raise ValueError("khatri_rao requires R = 1")
        if self.variant == "gaussian_tt" and self.P != 1:
            raise ValueError("gaussian_tt requires P = 1")

    def bond_pattern(self):
        """Left-bond list l[0..d] of each block's core chain."""
        d = len(self.dims)
        if self.variant == "otts":
            # Joint chain over all P blocks; see make_sketch for why.
            return [min(self.P * self.R, math.prod(self.dims[k:])) for k in range(d)] + [1]
        return [self.R] * d + [1]  # tts; khatri_rao at R = 1, gaussian_tt at P = 1

    @classmethod
    def from_json_obj(cls, obj):
        """Spec from a parsed JSON object; ValueError names a missing, unknown
        or bad key."""
        if not isinstance(obj, dict):
            raise ValueError("sketch spec must be a JSON object")
        for key in ("variant", "dims"):
            if key not in obj:
                raise ValueError("sketch spec has no %r" % key)
        for key, v in obj.items():
            if key not in _JSON_TYPES:
                raise ValueError("sketch spec has an unknown key %r" % (key,))
            if not isinstance(v, _JSON_TYPES[key]):
                raise ValueError("sketch spec %r has a bad value: %r" % (key, v))
        return cls(**obj)


def stiefel_sample(rng, rows, cols, field):
    """Haar-distributed matrix with orthonormal rows (rows <= cols)."""
    if rows > cols:
        raise ValueError("need rows <= cols")
    g = gaussian(rng, (cols, rows), field)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1
    q = q * (diag / np.abs(diag)).conj()
    return q.conj().T


def _block_cores(spec, P):
    """Stacked cores of the first P blocks: entry k is (P, l_k, n_k, l_{k+1}).

    Core k of all P blocks is one draw from stream k, in block order: the
    blocks stay iid, and a sketch is seeded once per core, not per block.
    """
    pat = spec.bond_pattern()
    cores = []
    for k, n in enumerate(spec.dims):
        rng = rng_for(spec.seed, STREAM_SKETCH, k)
        shape = (P, pat[k], n, pat[k + 1])
        if spec.variant == "otts":  # P is 1: the joint chain's frame
            m = stiefel_sample(rng, pat[k], n * pat[k + 1], spec.field)
            cores.append(m.reshape(shape) * np.sqrt(pat[k + 1] * n / pat[k]))
        else:
            cores.append(gaussian(rng, shape, spec.field, np.sqrt(1.0 / pat[k])))
    return cores


class _BlockViews(Sequence):
    """Read-only blocks of stacked cores: item j is ``[c[j] for c in cores]``.

    A block's views are made when it is read, so a sketch holds no per-block
    arrays of its own.
    """

    def __init__(self, cores):
        self._cores = cores

    def __len__(self):
        return len(self._cores[0])

    def __getitem__(self, j):
        if not -len(self) <= j < len(self):
            raise IndexError("block index %r out of range" % (j,))
        return [c[j] for c in self._cores]


@dataclass
class RealizedSketch:
    """The realized cores of a sketch, stacked over its blocks.

    ``cores[k]`` has shape (P, l_k, n_k, l_{k+1}): every variant draws
    blocks of one common shape.  ``blocks[j][k]`` is a view of
    ``cores[k][j]``, made when block j is read.
    """

    spec: SketchSpec
    cores: list = dc_field(repr=False)
    scale: float = 1.0
    blocks: Sequence = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.blocks = _BlockViews(self.cores)

    @property
    def rows(self):
        return self.cores[0].shape[0] * self.cores[0].shape[1]


def make_sketch(spec):
    """Realize all random cores of a sketch.

    The orthogonal variant is drawn as one jointly right-orthogonalized
    chain with leading bond min(P R, N): independent rank-R blocks would
    leave O(1) cross-block row inner products, while the joint draw has
    exactly orthogonal rows with Gram (N / P R) I.  Its per-core scaling
    already accounts for the block average, so its stored scale is 1.
    """
    if spec.variant == "otts":
        return RealizedSketch(spec=spec, cores=_block_cores(spec, 1), scale=1.0)
    return RealizedSketch(spec=spec, cores=_block_cores(spec, spec.P),
                          scale=1.0 / np.sqrt(spec.P))


def sketch_dense(sk, max_entries=2 ** 24):
    """Full sketching matrix (rows x prod dims), block-major rows, scaled.

    The stacked cores are multiplied left to right as one matmul chain
    batched over the blocks.
    """
    n = int(np.prod(sk.spec.dims))
    if sk.rows * n > max_entries:
        raise ValueError("dense sketch would have %d entries" % (sk.rows * n))
    g = sk.cores[0]
    out = g.reshape(g.shape[0], -1, g.shape[3])
    for g in sk.cores[1:]:
        p, l, m, lr = g.shape
        out = (out @ g.reshape(p, l, m * lr)).reshape(p, -1, lr)
    return sk.scale * out.reshape(sk.rows, n)
