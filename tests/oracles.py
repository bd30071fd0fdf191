"""Shared brute-force oracles, intentionally independent of the library's
contraction code paths: entries are evaluated by explicit per-index matrix
products so the fast implementations have something to be checked against.
"""

import numpy as np

from ttsketch.tt import TensorTrain


def oracle_entry(cores, idx):
    m = cores[0][:, idx[0], :]
    for k in range(1, len(cores)):
        m = m @ cores[k][:, idx[k], :]
    return m


def oracle_dense(x):
    """Entry-by-entry materialization of a (block) train."""
    cores = x.cores if isinstance(x, TensorTrain) else list(x)
    dims = tuple(c.shape[1] for c in cores)
    r0 = cores[0].shape[0]
    rd = cores[-1].shape[2]
    dtype = np.result_type(*(c.dtype for c in cores))
    out = np.empty((r0,) + dims + (rd,), dtype=dtype)
    for idx in np.ndindex(*dims):
        out[(slice(None),) + idx + (slice(None),)] = oracle_entry(cores, idx)
    if rd == 1:
        out = out[..., 0]
    if r0 == 1:
        out = out[0]
    return out


def oracle_vector(x):
    return oracle_dense(x).reshape(-1)


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
