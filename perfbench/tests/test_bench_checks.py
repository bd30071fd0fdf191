"""The workloads' own oracles agree with direct computations."""

import numpy as np
import pytest

from workloads import sketched_kron_spectrum, tfim_ground_energy
from ttsketch import analysis, cli, sketch


def dense_tfim(d, j, g):
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])

    def site(op, k):
        return np.kron(np.kron(np.eye(2 ** k), op), np.eye(2 ** (d - k - 1)))

    h = sum(-g * site(x, k) for k in range(d))
    return h + sum(-j * site(z, k) @ site(z, k + 1) for k in range(d - 1))


@pytest.mark.parametrize("d, j, g", [(2, 1.0, 1.5), (5, 0.7, 0.3), (8, 1.0, 1.5)])
def test_tfim_ground_energy_matches_dense(d, j, g):
    e0 = np.linalg.eigvalsh(dense_tfim(d, j, g))[0]
    assert abs(tfim_ground_energy(d, j, g) - e0) <= 1e-12 * abs(e0)


@pytest.mark.parametrize("P, R", [(12, 1), (2, 6)])
def test_sketched_kron_spectrum_matches_empirical_spectrum(P, R):
    basis = cli._kron_basis(10, 3, 6, seed=4)
    sk = sketch.make_sketch(sketch.SketchSpec("tts", (3,) * 10, P=P, R=R, seed=5))
    lo, hi = analysis.empirical_spectrum(basis, sk)
    ref_lo, ref_hi = sketched_kron_spectrum(basis, sk)
    assert abs(lo - ref_lo) <= 1e-10 * ref_hi
    assert abs(hi - ref_hi) <= 1e-10 * ref_hi
