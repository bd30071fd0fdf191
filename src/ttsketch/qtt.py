"""Quantized (bit-indexed) trains over dyadic grids.

Each variable lives on [0, 1) with ``bits`` dyadic levels; the grid point of
a bit string is sum_b i_b 2^{-b} with the most significant bit first.  For
several variables the bit axes are variable-major: all bits of the first
variable precede all bits of the second.
"""

import numpy as np

from .tt import TensorTrain, tt_linear_combination


class DyadicGrid:
    """Bit layout of one or more variables on dyadic grids."""

    def __init__(self, bits, n_vars=1):
        if np.isscalar(bits):
            bits = [int(bits)] * n_vars
        self.bits = tuple(int(b) for b in bits)
        if any(b < 1 for b in self.bits):
            raise ValueError("each variable needs at least one bit")
        self.n_vars = len(self.bits)

    @property
    def d(self):
        return sum(self.bits)

    @property
    def dims(self):
        return (2,) * self.d

    def bit_weights(self):
        """Per-mode (variable index, 2^{-level}) pairs, variable-major."""
        out = []
        for v, nb in enumerate(self.bits):
            for b in range(1, nb + 1):
                out.append((v, 2.0 ** (-b)))
        return out



def qtt_exp_linear(grid, shift, coeffs):
    """Rank-1 train of exp(shift + sum_v coeffs[v] * x_v).

    The exponential factorizes over bits, so every core is 1 x 2 x 1; the
    constant shift is folded into the first core.
    """
    coeffs = np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) or np.iscomplex(shift) else float)
    if coeffs.shape != (grid.n_vars,):
        raise ValueError("need one coefficient per variable")
    cores = []
    for v, w in grid.bit_weights():
        c = np.array([1.0, np.exp(coeffs[v] * w)]).reshape(1, 2, 1)
        cores.append(c)
    cores[0] = cores[0] * np.exp(shift)
    return TensorTrain(cores)


def _rot(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


def qtt_cos_linear(grid, phase, coeffs):
    """Rank-2 train of cos(phase + sum_v coeffs[v] * x_v).

    Carries the (cos, sin) pair of the running angle along the bond; each
    bit applies a plane rotation by its contribution.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_vars,):
        raise ValueError("need one coefficient per variable")
    weights = grid.bit_weights()
    d = grid.d
    if d == 1:
        v, w = weights[0]
        c = np.array([np.cos(phase), np.cos(phase + coeffs[v] * w)]).reshape(1, 2, 1)
        return TensorTrain([c])
    cores = []
    for k, (v, w) in enumerate(weights):
        t = coeffs[v] * w
        if k == 0:
            c = np.empty((1, 2, 2))
            for i in (0, 1):
                ang = phase + t * i
                c[0, i] = [np.cos(ang), np.sin(ang)]
        elif k == d - 1:
            c = np.empty((2, 2, 1))
            for i in (0, 1):
                c[:, i, 0] = [np.cos(t * i), -np.sin(t * i)]
        else:
            c = np.empty((2, 2, 2))
            for i in (0, 1):
                c[:, i, :] = _rot(t * i)
        cores.append(c)
    return TensorTrain(cores)


def hadamard_experiment_factors(bits, omega2=2.0 ** 16, omega3=2.0 ** 14 / np.sqrt(5.0)):
    """Three trains in x, y, z on a shared dyadic grid, for product tests.

    Each factor is a small oscillatory or decaying term plus an O(1) smooth
    term, so the elementwise product has moderate numerical rank despite
    assembled ranks multiplying.
    """
    grid = DyadicGrid(bits, n_vars=3)
    tenth = 0.1
    f1 = tt_linear_combination(
        [
            qtt_exp_linear(grid, 0.0, [-2.0, -2.0, -2.0]),
            qtt_exp_linear(grid, 0.0, [1.0, 0.0, 0.0]),
        ],
        [tenth, 1.0],
    )
    f2 = tt_linear_combination(
        [
            qtt_cos_linear(grid, 0.0, [omega2, omega2, -2.0 * omega2]),
            qtt_exp_linear(grid, 0.0, [-1.0, 0.0, 0.0]),
        ],
        [tenth, 1.0],
    )
    f3 = tt_linear_combination(
        [
            qtt_cos_linear(grid, 0.0, [omega3, omega3, -2.0 * omega3]),
            qtt_exp_linear(grid, 0.0, [0.0, 0.0, 0.0]),
        ],
        [tenth, 1.0],
    )
    return grid, [f1, f2, f3]
