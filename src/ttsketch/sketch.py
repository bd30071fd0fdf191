"""Randomized tensor-train sketch family.

Every variant realizes ``P`` independent blocks of tensor-train cores; block
``j`` defines as many rows of the sketching matrix as its first left bond,
and the blocks are stacked block-major.  The global ``1/sqrt(P)`` factor is
kept separately in ``scale`` so structured contractions can defer it.

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

from dataclasses import dataclass, field as dc_field

import numpy as np

from .tt import STREAM_SKETCH, gaussian, rng_for

VARIANTS = ("tts", "otts", "khatri_rao", "gaussian_tt", "f_tt_r")
KR_BASES = ("gaussian", "rademacher", "spherical")

# JSON type of each SketchSpec field; the lists hold integers.
_JSON_TYPES = {"variant": str, "dims": list, "P": int, "R": int, "field": str,
               "seed": int, "base": str, "ranks": list}


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.variant == "khatri_rao":
            if self.R != 1:
                raise ValueError("khatri_rao requires R = 1")
            if self.base not in KR_BASES:
                raise ValueError("unknown base %r" % (self.base,))
        elif self.base != "gaussian":
            raise ValueError("base %r is only for khatri_rao" % (self.base,))
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

    @classmethod
    def from_json_obj(cls, obj):
        """Spec from a parsed JSON object; ValueError names a missing or bad key."""
        if not isinstance(obj, dict):
            raise ValueError("sketch spec must be a JSON object")
        for key in ("variant", "dims"):
            if key not in obj:
                raise ValueError("sketch spec has no %r" % key)
        kwargs = {k: obj[k] for k in _JSON_TYPES if k in obj}
        for key, v in kwargs.items():
            kind = int if _JSON_TYPES[key] is list else _JSON_TYPES[key]
            items = v if isinstance(v, list) else [v]
            if not isinstance(v, _JSON_TYPES[key]) or any(
                    isinstance(u, bool) or not isinstance(u, kind) for u in items):
                raise ValueError("sketch spec %r has a bad value: %r" % (key, v))
        return cls(**kwargs)


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
    d = len(spec.dims)
    pat = spec.bond_pattern()
    cores = []
    for k, n in enumerate(spec.dims):
        rng = rng_for(spec.seed, STREAM_SKETCH, k)
        shape = (P, pat[k], n, pat[k + 1])
        if spec.variant == "otts":  # P is 1: the joint chain's frame
            m = stiefel_sample(rng, pat[k], n * pat[k + 1], spec.field)
            cores.append(m.reshape(shape) * np.sqrt(pat[k + 1] * n / pat[k]))
        elif spec.base == "rademacher":
            c = rng.choice([-1.0, 1.0], size=shape)
            cores.append(c.astype(complex) if spec.field == "complex" else c)
        elif spec.base == "spherical":  # Gaussian rows rescaled to norm sqrt(n_k)
            g = gaussian(rng, shape, spec.field)
            norms = np.linalg.norm(g.reshape(P, -1), axis=1)
            cores.append(g * (np.sqrt(n) / norms)[:, None, None, None])
        else:
            if spec.variant == "khatri_rao":
                var = 1.0
            elif spec.variant == "f_tt_r":
                var = 1.0 / np.sqrt(spec.R) if k in (0, d - 1) else 1.0 / spec.R
            else:  # tts / gaussian_tt: variance is one over the left bond
                var = 1.0 / (spec.R if spec.variant == "tts" else pat[k])
            cores.append(gaussian(rng, shape, spec.field, np.sqrt(var)))
    return cores


@dataclass
class RealizedSketch:
    """The realized cores of a sketch, stacked over its blocks.

    ``cores[k]`` has shape (P, l_k, n_k, l_{k+1}): every variant draws
    blocks of one common shape.  ``blocks[j][k]`` is derived from them, a
    view of ``cores[k][j]``, so both layouts share one copy of the draws.
    """

    spec: SketchSpec
    cores: list = dc_field(repr=False)
    scale: float = 1.0
    blocks: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        self.blocks = [[c[j] for c in self.cores] for j in range(len(self.cores[0]))]

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
