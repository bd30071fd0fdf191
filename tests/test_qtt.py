import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import grid_index_of, grid_point, tt_evaluate
from ttsketch.qtt import (
    DyadicGrid,
    hadamard_experiment_factors,
    qtt_cos_linear,
    qtt_exp_linear,
)
from ttsketch.tt import tt_dense, tt_linear_combination


def test_grid_layout():
    g = DyadicGrid(3, n_vars=2)
    assert g.d == 6
    assert g.dims == (2,) * 6
    assert g.bits == (3, 3)
    mixed = DyadicGrid([2, 4])
    assert mixed.d == 6
    with pytest.raises(ValueError):
        DyadicGrid(0)


@pytest.mark.parametrize("bits", [2.5, True, "3", [2, 3.7], [2, np.float64(3)]],
                         ids=["float", "bool", "str", "float-entry", "numpy-float-entry"])
def test_grid_bits_must_be_integers(bits):
    # These used to be truncated, read as 1, or parsed: 2.5 gave (2,).
    with pytest.raises(ValueError, match="'bits'"):
        DyadicGrid(bits)


@pytest.mark.parametrize("kwargs, key", [({"bits": 3, "n_vars": 0}, "'n_vars'"),
                                         ({"bits": [], "n_vars": 1}, "'bits'"),
                                         ({"bits": 3, "n_vars": 2.5}, "'n_vars'"),
                                         ({"bits": 3, "n_vars": -1}, "'n_vars'")],
                         ids=["no-vars", "no-bits", "float-vars", "negative-vars"])
def test_grid_layout_must_be_nonempty(kwargs, key):
    # An empty layout used to make a grid with no modes, and a float n_vars
    # failed with a TypeError.
    with pytest.raises(ValueError, match=key):
        DyadicGrid(**kwargs)


def test_grid_reads_numpy_integer_bits_as_ints():
    g = DyadicGrid([np.int64(2), np.uint8(3)])
    assert g.bits == (2, 3) and all(type(b) is int for b in g.bits)


def test_grid_point_is_bit_expansion():
    g = DyadicGrid(4)
    # msb-first: index (1, 0, 1, 1) -> 0.1011_2
    assert_allclose(grid_point(g, [1, 0, 1, 1]), [0.5 + 0.125 + 0.0625])
    with pytest.raises(ValueError):
        grid_point(g, [1, 0])


def test_grid_index_round_trip():
    g = DyadicGrid([3, 2])
    for i, j in itertools.product(range(8), range(4)):
        idx = grid_index_of(g, i, j)
        assert_allclose(grid_point(g, idx), [i / 8.0, j / 4.0])
    with pytest.raises(ValueError):
        grid_index_of(g, 8, 0)
    with pytest.raises(ValueError):
        grid_index_of(g, 0)


def grid_values(grid, f):
    """Dense evaluation of a scalar function on every grid point."""
    shape = tuple(2 ** b for b in grid.bits)
    out = np.empty(shape)
    for pos in itertools.product(*[range(s) for s in shape]):
        out[pos] = f(*grid_point(grid, grid_index_of(grid, *pos)))
    return out


def test_exp_linear_one_variable():
    g = DyadicGrid(5)
    t = qtt_exp_linear(g, 0.3, [-1.7])
    assert t.ranks == (1,) * (g.d + 1)
    dense = tt_dense(t).reshape(2 ** 5)
    assert_allclose(dense, grid_values(g, lambda x: np.exp(0.3 - 1.7 * x)).ravel(),
                    rtol=1e-13)


def test_exp_linear_three_variables():
    g = DyadicGrid(3, n_vars=3)
    t = qtt_exp_linear(g, -0.5, [1.0, -2.0, 0.25])
    dense = tt_dense(t).reshape(8, 8, 8)
    expect = grid_values(g, lambda x, y, z: np.exp(-0.5 + x - 2 * y + 0.25 * z))
    assert_allclose(dense, expect, rtol=1e-13)


def test_exp_linear_rejects_bad_coeffs():
    g = DyadicGrid(3, n_vars=2)
    with pytest.raises(ValueError):
        qtt_exp_linear(g, 0.0, [1.0])


def test_cos_linear_one_variable():
    g = DyadicGrid(6)
    t = qtt_cos_linear(g, 0.7, [13.0])
    assert max(t.ranks) == 2
    dense = tt_dense(t).reshape(64)
    assert_allclose(dense, grid_values(g, lambda x: np.cos(0.7 + 13 * x)).ravel(),
                    atol=1e-12)


def test_cos_linear_single_bit():
    g = DyadicGrid(1)
    t = qtt_cos_linear(g, 0.2, [3.0])
    assert_allclose(tt_dense(t).ravel(), [np.cos(0.2), np.cos(0.2 + 1.5)])


def test_cos_linear_multivariable():
    g = DyadicGrid(2, n_vars=3)
    w = 11.0
    t = qtt_cos_linear(g, -0.1, [w, w, -2 * w])
    dense = tt_dense(t).reshape(4, 4, 4)
    expect = grid_values(g, lambda x, y, z: np.cos(-0.1 + w * (x + y - 2 * z)))
    assert_allclose(dense, expect, atol=1e-12)


def test_evaluate_matches_dense_entry():
    g = DyadicGrid(3, n_vars=2)
    t = qtt_cos_linear(g, 0.4, [2.0, -1.0])
    idx = grid_index_of(g, 5, 2)
    assert_allclose(tt_evaluate(t, idx),
                    np.cos(0.4 + 2 * (5 / 8.0) - 2 / 8.0), atol=1e-13)


def test_hadamard_factor_values_and_ranks():
    bits = 4
    grid, fs = hadamard_experiment_factors(bits, omega2=7.0, omega3=3.0)
    assert grid.n_vars == 3 and grid.d == 12
    assert max(fs[0].ranks) == 2
    assert max(fs[1].ranks) == 3
    assert max(fs[2].ranks) == 3

    def f1(x, y, z):
        return 0.1 * np.exp(-2 * (x + y + z)) + np.exp(x)

    def f2(x, y, z):
        return 0.1 * np.cos(7.0 * (x + y - 2 * z)) + np.exp(-x)

    def f3(x, y, z):
        return 0.1 * np.cos(3.0 * (x + y - 2 * z)) + 1.0

    shape = (16, 16, 16)
    for f, fn in zip(fs, (f1, f2, f3)):
        assert_allclose(tt_dense(f).reshape(shape), grid_values(grid, fn),
                        atol=1e-12)


def test_hadamard_product_entry():
    grid, fs = hadamard_experiment_factors(3, omega2=5.0, omega3=2.0)
    idx = grid_index_of(grid, 3, 6, 1)
    x, y, z = grid_point(grid, idx)
    vals = [tt_evaluate(f, idx) for f in fs]
    expect = ((0.1 * np.exp(-2 * (x + y + z)) + np.exp(x))
              * (0.1 * np.cos(5.0 * (x + y - 2 * z)) + np.exp(-x))
              * (0.1 * np.cos(2.0 * (x + y - 2 * z)) + 1.0))
    assert_allclose(np.prod(vals), expect, rtol=1e-12)


QTT_GRIDS = [DyadicGrid(1), DyadicGrid(5), DyadicGrid([1, 1]), DyadicGrid([1, 3]),
             DyadicGrid(1, n_vars=3), DyadicGrid([2, 1, 4])]


def _qtt_coeff_sets(n_vars):
    yield [0.0] * n_vars
    yield [-3.7] * n_vars
    yield [(-1) ** v * (2.5 + v) for v in range(n_vars)]
    yield [0.0 if v % 2 else -7.0 for v in range(n_vars)]


def _rot(a):
    return np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])


@pytest.mark.parametrize("phase", [0.0, -0.0, 0.7, -1.3])
@pytest.mark.parametrize("grid", QTT_GRIDS, ids=lambda g: str(g.bits))
def test_cos_linear_cores_are_the_rotation_formulas(grid, phase):
    # Exact: the expected cores are numpy's own cos and sin of each angle.
    for coeffs in _qtt_coeff_sets(grid.n_vars):
        cores = qtt_cos_linear(grid, phase, coeffs).cores
        ts = [coeffs[v] * w for v, w in grid.bit_weights()]
        if grid.d == 1:
            expect = [np.array([np.cos(phase), np.cos(phase + ts[0])]).reshape(1, 2, 1)]
        else:
            first = np.array([[np.cos(phase + ts[0] * i), np.sin(phase + ts[0] * i)]
                              for i in (0, 1)]).reshape(1, 2, 2)
            middle = [np.stack([_rot(t * i) for i in (0, 1)], axis=1) for t in ts[1:-1]]
            last = np.array([[np.cos(ts[-1] * i), -np.sin(ts[-1] * i)]
                             for i in (0, 1)]).T.reshape(2, 2, 1)
            expect = [first, *middle, last]
        assert len(cores) == len(expect)
        for c, e in zip(cores, expect):
            assert c.shape == e.shape and np.array_equal(c, e)
            assert np.array_equal(np.signbit(c), np.signbit(e))


def test_cos_linear_rejects_complex_arguments():
    g = DyadicGrid(2, n_vars=2)
    for phase, coeffs in ((0.5j, [1.0, 2.0]), (0.0, np.array([1.0 + 1j, 2.0])),
                          (0.0, [1.0 + 1j, 2.0]), (np.complex128(0.5), [1.0, 2.0])):
        with pytest.raises(ValueError, match="real"):
            qtt_cos_linear(g, phase, coeffs)


@pytest.mark.parametrize("bits", [1, 2, 3, 20])
def test_hadamard_factors_are_the_three_combinations(bits):
    grid, fs = hadamard_experiment_factors(bits)
    w2, w3 = 2.0 ** 16, 2.0 ** 14 / np.sqrt(5.0)
    expect = [
        tt_linear_combination([qtt_exp_linear(grid, 0.0, [-2.0, -2.0, -2.0]),
                               qtt_exp_linear(grid, 0.0, [1.0, 0.0, 0.0])], [0.1, 1.0]),
        tt_linear_combination([qtt_cos_linear(grid, 0.0, [w2, w2, -2.0 * w2]),
                               qtt_exp_linear(grid, 0.0, [-1.0, 0.0, 0.0])], [0.1, 1.0]),
        tt_linear_combination([qtt_cos_linear(grid, 0.0, [w3, w3, -2.0 * w3]),
                               qtt_exp_linear(grid, 0.0, [0.0, 0.0, 0.0])], [0.1, 1.0]),
    ]
    assert grid.bits == (bits,) * 3
    for f, e in zip(fs, expect):
        assert len(f.cores) == len(e.cores)
        assert all(np.array_equal(a, b) for a, b in zip(f.cores, e.cores))
