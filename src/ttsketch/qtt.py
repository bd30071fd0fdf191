"""Quantized (bit-indexed) trains over dyadic grids.

Each variable lives on [0, 1) with ``bits`` dyadic levels; the grid point of
a bit string is sum_b i_b 2^{-b} with the most significant bit first.  For
several variables the bit axes are variable-major: all bits of the first
variable precede all bits of the second.
"""

import numpy as np

from .sketch import _integer
from .tt import TensorTrain, tt_linear_combination


class DyadicGrid:
    """Bit layout of one or more variables on dyadic grids."""

    def __init__(self, bits, n_vars=1):
        if np.isscalar(bits):
            bits = [bits] * n_vars
        self.bits = tuple(_integer("bits", b, "DyadicGrid") for b in bits)
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
    """Rank-2 train of cos(phase + sum_v coeffs[v] * x_v), for real arguments.

    The bond carries the (cos, sin) pair of the running angle: at bit value
    i, core k is the plane rotation by t_k i, t_k being its variable's
    coefficient times its bit weight, with the phase added on the first
    core.  The first core keeps the rotations' first row and the last core
    their first column, which covers a single bit too.
    """
    if np.iscomplexobj(phase) or np.iscomplexobj(coeffs):
        raise ValueError("qtt_cos_linear takes a real phase and real coefficients")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.n_vars,):
        raise ValueError("need one coefficient per variable")
    cores = []
    for k, (v, w) in enumerate(grid.bit_weights()):
        t = coeffs[v] * w
        c = np.empty((2, 2, 2))
        for i in (0, 1):
            # Not 0.0 + t * i for k > 0, which would turn sin(-0.0) into +0.0.
            c[:, i, :] = _rot(phase + t * i if k == 0 else t * i)
        cores.append(c)
    cores[0] = cores[0][:1]
    cores[-1] = np.ascontiguousarray(cores[-1][:, :, :1])
    return TensorTrain(cores)


def hadamard_experiment_factors(bits, omega2=2.0 ** 16, omega3=2.0 ** 14 / np.sqrt(5.0)):
    """Three trains in x, y, z on a shared dyadic grid, for product tests.

    Each factor is a small oscillatory or decaying term, weighted 0.1, plus
    the O(1) smooth term exp(c . (x, y, z)), so the elementwise product has
    moderate numerical rank despite assembled ranks multiplying.
    """
    grid = DyadicGrid(bits, n_vars=3)
    table = [  # (small term, c of the smooth term)
        (qtt_exp_linear(grid, 0.0, [-2.0, -2.0, -2.0]), [1.0, 0.0, 0.0]),
        (qtt_cos_linear(grid, 0.0, [omega2, omega2, -2.0 * omega2]), [-1.0, 0.0, 0.0]),
        (qtt_cos_linear(grid, 0.0, [omega3, omega3, -2.0 * omega3]), [0.0, 0.0, 0.0]),
    ]
    return grid, [tt_linear_combination([small, qtt_exp_linear(grid, 0.0, c)], [0.1, 1.0])
                  for small, c in table]
