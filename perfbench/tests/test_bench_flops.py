"""The computed flop model agrees with numpy's pairwise-optimal path count."""

import re

import numpy as np
import pytest

from flops import (
    KERNELS,
    einsum_flops,
    hadamard_equation,
)
from ttsketch import eigensolver, qtt, sketch, tt


def numpy_optimal(eq, *arrays):
    """einsum_path's "Optimized FLOP count", less the one it adds."""
    text = np.einsum_path(eq, *arrays, optimize="optimal")[1]
    return float(re.search(r"Optimized FLOP count:\s+(\S+)", text).group(1)) - 1


def close(model, printed):
    # einsum_path prints four significant digits; small counts are exact.
    return abs(model - printed) <= 5e-4 * max(printed, 1.0)


@pytest.mark.parametrize("eq, shapes", [
    ("ab,aic,bid->cd", ((2, 3), (2, 2, 4), (3, 2, 5))),
    ("ab,aic,bid->cd", ((1, 1), (1, 4, 7), (1, 4, 7))),
    ("ab,aic,bid->cd", ((16, 42), (16, 4, 16), (42, 4, 42))),
    ("bik,ka,cia->bc", ((3, 2, 3), (3, 4), (5, 2, 4))),
    ("bik,ka,cia->bc", ((16, 4, 16), (16, 1), (1, 4, 1))),
    ("biB,BAC,aijA,cjC->bac", ((2, 2, 3), (3, 3, 4), (3, 2, 2, 3), (5, 2, 4))),
    ("biB,BAC,aijA,cjC->bac", ((16, 2, 16), (16, 3, 64), (3, 2, 2, 3), (64, 2, 64))),
    (hadamard_equation(2), ((2, 2, 3), (3, 2, 4), (3, 2, 2), (2, 2, 4))),
    (hadamard_equation(3), ((4, 2, 4), (4, 2, 2, 2), (2, 2, 2), (2, 2, 2), (3, 2, 2))),
])
def test_einsum_flops_matches_einsum_path(eq, shapes):
    arrays = [np.ones(s) for s in shapes]
    assert close(einsum_flops(eq, shapes), numpy_optimal(eq, *arrays))


def sweep_count(eq, steps):
    """Sum of numpy's counts over the per-core einsums of one sweep."""
    return sum(numpy_optimal(eq, *arrays) for arrays in steps)


def count(name, *args):
    key_fn, flops_fn = KERNELS[name]
    return flops_fn(key_fn(*args))


def test_tt_inner_model():
    x = tt.tt_random((2, 3, 2, 3), (1, 2, 3, 2, 1), seed=1)
    y = tt.tt_random((2, 3, 2, 3), (1, 3, 2, 3, 1), seed=2)
    steps = [(np.ones((cx.shape[0], cy.shape[0])), cx, cy) for cx, cy in zip(x.cores, y.cores)]
    assert close(count("tt.tt_inner", x, y), sweep_count("ab,aic,bid->cd", steps))


@pytest.mark.parametrize("variant, P, R", [("tts", 3, 2), ("otts", 2, 2), ("khatri_rao", 4, 1)])
def test_partial_contractions_model(variant, P, R):
    dims = (2, 3, 2, 3)
    x = tt.tt_random(dims, (1, 2, 3, 2, 1), seed=3)
    sk = sketch.make_sketch(sketch.SketchSpec(variant, dims, P=P, R=R, seed=4))
    steps = []
    for block in sk.blocks:
        for g, cx in zip(block, x.cores):
            steps.append((g, np.ones((g.shape[2], cx.shape[2])), cx))
    assert close(count("contract.partial_contractions", sk, x), sweep_count("bik,ka,cia->bc", steps))


def test_sketch_matvec_model():
    d = 4
    h = eigensolver.tto_tfim(d)
    x = tt.tt_random((2,) * d, (1, 2, 3, 2, 1), seed=5)
    sk = sketch.make_sketch(sketch.SketchSpec("tts", (2,) * d, P=2, R=3, seed=6))
    steps = []
    for block in sk.blocks:
        for g, ch, cx in zip(block, h.cores, x.cores):
            steps.append((g, np.ones((g.shape[2], ch.shape[3], cx.shape[2])), ch, cx))
    assert close(count("contract.sketch_matvec", sk, h, x),
                 sweep_count("biB,BAC,aijA,cjC->bac", steps))


def test_sketch_hadamard_model():
    _, factors = qtt.hadamard_experiment_factors(2)
    sk = sketch.make_sketch(sketch.SketchSpec("tts", factors[0].dims, P=2, R=3, seed=7))
    eq = hadamard_equation(len(factors))
    steps = []
    for block in sk.blocks:
        for k, g in enumerate(block):
            cores = [f.cores[k] for f in factors]
            w = np.ones((g.shape[2],) + tuple(c.shape[2] for c in cores))
            steps.append((g, w, *cores))
    assert close(count("contract.sketch_hadamard", sk, factors), sweep_count(eq, steps))
