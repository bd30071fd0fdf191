"""Randomized tensor-train sketch family.

Every variant realizes ``P`` independent blocks of tensor-train cores; block
``j`` defines ``rows_per_block`` rows of the sketching matrix and the blocks
are stacked block-major.  The global ``1/sqrt(P)`` factor is kept separately
in ``scale`` so structured contractions can defer it.

Variants
--------
tts
    Uniform block rank ``R``; every core entry iid normal with variance 1/R,
    last core has right bond 1.
otts
    Same chain shape with ranks clipped to the tail dimension product; core
    unfoldings are Haar row-orthonormal frames scaled so each block has
    exactly orthogonal rows.
khatri_rao
    R = 1; one base vector per mode and block (gaussian, rademacher, or
    spherical rows of norm sqrt(n_k)).
gaussian_tt
    P = 1, per-mode rank list allowed; core k entries have variance equal to
    the reciprocal of its left bond.
f_tt_r
    One row per block; boundary cores have variance 1/sqrt(R), interior 1/R.
    Included only as a benchmarking baseline.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .tt import (
    STREAM_SKETCH,
    TensorTrain,
    _block_diagonal_core,
    gaussian,
    rng_for,
    tt_dense,
)

VARIANTS = ("tts", "otts", "khatri_rao", "gaussian_tt", "f_tt_r")
KR_BASES = ("gaussian", "rademacher", "spherical")


@dataclass
class SketchSpec:
    variant: str
    dims: tuple
    P: int = 1
    R: int = 1
    field: str = "real"
    seed: int = 0
    base: str = "gaussian"
    ranks: tuple = None  # optional per-mode left-bond list for gaussian_tt

    def __post_init__(self):
        self.dims = tuple(int(n) for n in self.dims)
        if self.ranks is not None:
            self.ranks = tuple(int(r) for r in self.ranks)
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
        if self.variant == "khatri_rao":
            if self.R != 1:
                raise ValueError("khatri_rao requires R = 1")
            if self.base not in KR_BASES:
                raise ValueError("unknown base %r" % (self.base,))
        if self.variant == "gaussian_tt" and self.P != 1:
            raise ValueError("gaussian_tt requires P = 1")
        if self.ranks is not None:
            if self.variant != "gaussian_tt":
                raise ValueError("explicit rank lists are only for gaussian_tt")
            if len(self.ranks) != len(self.dims) + 1 or self.ranks[-1] != 1:
                raise ValueError("rank list must have d+1 entries ending in 1")

    def bond_pattern(self):
        """Left-bond list l[0..d] of each block's core chain."""
        d = len(self.dims)
        if self.variant == "tts":
            return [self.R] * d + [1]
        if self.variant == "otts":
            # Joint chain over all P blocks; see make_sketch for why.
            tail = 1
            pat = [1] * (d + 1)
            for k in range(d - 1, -1, -1):
                tail = min(tail * self.dims[k], 2 ** 62)
                pat[k] = min(self.P * self.R, tail)
            return pat
        if self.variant == "khatri_rao":
            return [1] * (d + 1)
        if self.variant == "gaussian_tt":
            if self.ranks is not None:
                return list(self.ranks)
            return [self.R] * d + [1]
        if self.variant == "f_tt_r":
            return [1] + [self.R] * (d - 1) + [1]
        raise AssertionError

    @property
    def rows_per_block(self):
        return self.bond_pattern()[0]

    @property
    def rows(self):
        if self.variant == "otts":
            return self.bond_pattern()[0]
        return self.P * self.rows_per_block

    def to_json_obj(self):
        obj = {
            "variant": self.variant,
            "P": self.P,
            "R": self.R,
            "dims": list(self.dims),
            "field": self.field,
            "seed": self.seed,
        }
        if self.variant == "khatri_rao":
            obj["base"] = self.base
        if self.ranks is not None:
            obj["ranks"] = list(self.ranks)
        return obj

    @classmethod
    def from_json_obj(cls, obj):
        return cls(
            variant=obj["variant"],
            dims=tuple(obj["dims"]),
            P=int(obj.get("P", 1)),
            R=int(obj.get("R", 1)),
            field=obj.get("field", "real"),
            seed=int(obj.get("seed", 0)),
            base=obj.get("base", "gaussian"),
            ranks=tuple(obj["ranks"]) if "ranks" in obj else None,
        )

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, s):
        return cls.from_json_obj(json.loads(s))


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


def _block_cores(spec, j):
    dims = spec.dims
    d = len(dims)
    pat = spec.bond_pattern()
    cores = []
    for k in range(d):
        rng = rng_for(spec.seed, STREAM_SKETCH, j, k)
        shape = (pat[k], dims[k], pat[k + 1])
        if spec.variant == "otts":
            m = stiefel_sample(rng, pat[k], dims[k] * pat[k + 1], spec.field)
            c = m.reshape(shape) * np.sqrt(pat[k + 1] * dims[k] / pat[k])
        elif spec.variant == "khatri_rao":
            if spec.base == "gaussian":
                c = gaussian(rng, shape, spec.field)
            elif spec.base == "rademacher":
                c = rng.choice([-1.0, 1.0], size=shape)
                if spec.field == "complex":
                    c = c.astype(complex)
            else:  # spherical: Gaussian row rescaled to norm sqrt(n_k)
                g = gaussian(rng, shape, spec.field)
                c = g * (np.sqrt(dims[k]) / np.linalg.norm(g))
        elif spec.variant == "f_tt_r":
            var = 1.0 / np.sqrt(spec.R) if k in (0, d - 1) else 1.0 / spec.R
            c = gaussian(rng, shape, spec.field, scale=np.sqrt(var))
        else:  # tts / gaussian_tt: variance is one over the left bond
            var = 1.0 / (spec.R if spec.variant == "tts" else pat[k])
            c = gaussian(rng, shape, spec.field, scale=np.sqrt(var))
        cores.append(c)
    return cores


@dataclass
class RealizedSketch:
    """The realized cores of a sketch, stacked over its blocks.

    ``cores[k]`` has shape (P, l_k, n_k, l_{k+1}): every variant draws
    blocks of one common shape.  ``blocks[j][k]`` is a view of
    ``cores[k][j]``, so both layouts share one copy of the draws.
    """

    spec: SketchSpec
    blocks: list = dc_field(repr=False, default=None)
    scale: float = 1.0
    cores: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        self.cores = [np.stack(per_core) for per_core in zip(*self.blocks)]
        self.blocks = [[c[j] for c in self.cores] for j in range(len(self.blocks))]

    @property
    def rows(self):
        return sum(b[0].shape[0] for b in self.blocks)

    @property
    def n_blocks(self):
        return len(self.blocks)

    def block_chain(self, j):
        """Block ``j`` as a block tensor train (left boundary rank = rows)."""
        return TensorTrain(self.blocks[j])


def make_sketch(spec):
    """Realize all random cores of a sketch.

    The orthogonal variant is drawn as one jointly right-orthogonalized
    chain with leading bond min(P R, N): independent rank-R blocks would
    leave O(1) cross-block row inner products, while the joint draw has
    exactly orthogonal rows with Gram (N / P R) I.  Its per-core scaling
    already accounts for the block average, so its stored scale is 1.
    """
    if spec.variant == "otts":
        return RealizedSketch(spec=spec, blocks=[_block_cores(spec, 0)], scale=1.0)
    blocks = [_block_cores(spec, j) for j in range(spec.P)]
    return RealizedSketch(spec=spec, blocks=blocks, scale=1.0 / np.sqrt(spec.P))


def sketch_dense(sk, max_entries=2 ** 24):
    """Full sketching matrix (rows x prod dims), block-major rows, scaled."""
    n = int(np.prod(sk.spec.dims))
    if sk.rows * n > max_entries:
        raise ValueError("dense sketch would have %d entries" % (sk.rows * n))
    rows = []
    for j in range(sk.n_blocks):
        dense = tt_dense(sk.block_chain(j), max_entries=max_entries)
        rows.append(dense.reshape(sk.blocks[j][0].shape[0], n))
    return sk.scale * np.concatenate(rows, axis=0)


def block_tt_view(sk):
    """The whole sketch as one block tensor train (testing aid).

    Every core but the last is slice-wise block diagonal over blocks, the
    last core stacks blocks vertically, and the global scale is folded into
    the first core.  Its dense unfolding equals ``sketch_dense`` row for row.
    """
    cores = [_block_diagonal_core(g, g.dtype) for g in sk.cores[:-1]]
    g = sk.cores[-1]
    cores.append(g.reshape(-1, *g.shape[2:]))
    cores[0] = cores[0] * sk.scale
    return TensorTrain(cores)
