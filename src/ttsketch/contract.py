"""Partial-contraction sketching of tensor trains.

``partial_contractions`` produces, for every cut k, the matrix pairing the
sketch chain over modes k..d with the train chain over the same modes.  The
structured variants below produce the same matrices for linear combinations,
operator-vector products, and elementwise products without assembling the
large intermediate train.

Layout.  A realized sketch keeps core k of all P blocks as one stacked
array G_k of shape (P, l_k, n_k, l_{k+1}).  One right-to-left sweep carries
w_k of shape (P, l_k, chi_k) and emits W_k = w_k.reshape(P * l_k, chi_k),
so the rows of every W_k are block-major over the P sketch blocks.  The
global 1/sqrt(P) factor is applied exactly once, when W_1 is emitted.

Contraction order.  Each core's step is a fixed sequence of matmuls batched
over the P blocks, chosen by its local operator:

* a train core X_k: contract w with X_k, then with G_k;
* an operator core and a train core (H_k, X_k): contract w with X_k, then
  with H_k, then with G_k; the combined bond is operator bond major;
* Hadamard factor cores [X_k^1, ..., X_k^J]: contract w with G_k first,
  then each factor as a matmul batched over the shared mode index, which is
  summed out last.
"""

import numpy as np


class PartialSketchSet:
    """W_1..W_d for one realized sketch against one train.

    ``Ws[k-1]`` holds W_k with shape (P * l_{k-1}, chi_{k-1}) where l is the
    sketch bond pattern and chi the train bond.  Only W_1 carries the global
    scale.
    """

    def __init__(self, Ws):
        self.Ws = Ws

    @property
    def d(self):
        return len(self.Ws)

    def vector(self):
        """The sketched train Omega x (requires scalar left train bond)."""
        w1 = self.Ws[0]
        if w1.shape[1] != 1:
            raise ValueError("train has non-scalar left boundary rank")
        return w1[:, 0]

    @classmethod
    def combine(cls, sets, coefficients):
        """Partial sketches of sum(alpha_j * x_j) from those of each x_j.

        Column layout for k >= 2 matches the block structure of the exact
        linear-combination train: term blocks in order, coefficients folded
        in.
        """
        ws = [sum(a * ps.Ws[0] for a, ps in zip(coefficients, sets))]
        for k in range(1, sets[0].d):
            ws.append(np.concatenate([a * ps.Ws[k] for a, ps in zip(coefficients, sets)], axis=1))
        return cls(ws)


def _step(g, w, op):
    """One core of the right-to-left sweep.

    ``g`` is the stacked sketch core (P, l, n, l'), ``w`` the carried
    partial (P, l', chi') and ``op`` the local operator of this core; the
    result is (P, l, chi).  Each case contracts in a fixed order of
    batched matmuls.
    """
    p, l, n, lr = g.shape
    if isinstance(op, tuple):
        # (operator core (a, n, m, A), train core (c, m, C)); chi' = A C.
        h, x = op
        a, _, m, ar = h.shape
        c, _, cr = x.shape
        t = w.reshape(p * lr * ar, cr) @ x.reshape(c * m, cr).T
        t = t.reshape(p, lr, ar, c, m).transpose(0, 1, 3, 4, 2).reshape(p * lr * c, m * ar)
        t = t @ h.reshape(a * n, m * ar).T
        t = t.reshape(p, lr, c, a, n).transpose(0, 4, 1, 3, 2).reshape(p, n * lr, a * c)
        return g.reshape(p, l, n * lr) @ t
    if isinstance(op, list):
        # Hadamard factor cores (a_j, n, A_j); chi' = A_1 ... A_J.  The
        # sketch goes first.  Per mode index the partial is held as a matrix
        # whose rows are the next factor's bond A_j: one matmul with that
        # factor's slice makes a_j the rows, and the transpose moves a_j
        # behind the (P, l) rows and A_{j+1} to the front.  The mode index
        # is summed out last.
        t = (g.transpose(2, 0, 1, 3) @ w).reshape(n, p * l, -1).transpose(0, 2, 1)
        for f in op:
            t = f.transpose(1, 0, 2) @ t.reshape(n, f.shape[2], -1)
            t = t.transpose(0, 2, 1)
        return t.sum(axis=0).reshape(p, l, -1)
    # train core (c, n, a); chi' = a.
    c = op.shape[0]
    t = op.reshape(c * n, -1) @ w.transpose(0, 2, 1)
    return g.reshape(p, l, n * lr) @ t.reshape(p, c, n * lr).transpose(0, 2, 1)


def _left_step(p, op):
    """One core of a left-to-right projection sweep.

    ``p`` (q, chi) projects the left bond of this core's local operator,
    ``op``, which is a train core (c, n, C) with chi = c, or an (operator
    core (a, n, m, A), train core (c, m, C)) pair with chi = a c, operator
    bond major.  The result is the projected core (q, n, chi'), with chi' =
    C or A C, again operator bond major, as in ``_step``.
    """
    q = p.shape[0]
    if isinstance(op, tuple):
        h, x = op
        a, n, m, ar = h.shape
        c, _, cr = x.shape
        t = p.reshape(q * a, c) @ x.reshape(c, m * cr)
        t = t.reshape(q, a, m, cr).transpose(0, 3, 1, 2).reshape(q * cr, a * m)
        t = t @ h.transpose(0, 2, 1, 3).reshape(a * m, n * ar)
        return t.reshape(q, cr, n, ar).transpose(0, 2, 3, 1).reshape(q, n, ar * cr)
    c, n, cr = op.shape
    return (p @ op.reshape(c, n * cr)).reshape(q, n, cr)


def _sweep(sk, ops):
    """W_1..W_d of one sketch against per-core local operators."""
    w = np.ones((sk.cores[0].shape[0], 1, 1), dtype=sk.cores[0].dtype)
    ws = [None] * len(ops)
    for k in range(len(ops) - 1, -1, -1):
        w = _step(sk.cores[k], w, ops[k])
        ws[k] = w.reshape(-1, w.shape[2])
    ws[0] = sk.scale * ws[0]
    return PartialSketchSet(ws)


def partial_contractions(sk, x):
    """All partial sketches of a train, stacked block-major."""
    if sk.spec.dims != x.dims:
        raise ValueError("sketch dims do not match train dims")
    if x.ranks[-1] != 1:
        raise ValueError("right boundary rank must be 1")
    return _sweep(sk, x.cores)


def sketch_linear_combination(sk, terms, coefficients):
    """Partial sketches of sum(alpha_j * terms[j]) from per-term sketches.

    A term is a train or an (operator, train) pair, as in ``tt.TTSum``.
    """
    if len(terms) != len(coefficients):
        raise ValueError("need one coefficient per term")
    sets = [sketch_matvec(sk, *t) if isinstance(t, tuple) else partial_contractions(sk, t)
            for t in terms]
    return PartialSketchSet.combine(sets, coefficients)


def sketch_matvec(sk, h, x):
    """Partial sketches of the operator-train product h x.

    The combined bond (rH_k, chi_k) is flattened row-major with the operator
    bond major, matching the assembled product train.
    """
    if sk.spec.dims != h.dims_out:
        raise ValueError("sketch dims do not match operator output dims")
    if h.dims_in != x.dims:
        raise ValueError("operator input dims do not match train dims")
    return _sweep(sk, list(zip(h.cores, x.cores)))


def sketch_hadamard(sk, terms):
    """Partial sketches of the elementwise product of plain trains.

    Works one mode slice at a time, so the cost scales with the product of
    the individual bond ranks rather than their assembled product core.
    """
    if len(terms) < 2:
        raise ValueError("need at least two factors")
    dims = terms[0].dims
    for t in terms:
        if t.dims != dims:
            raise ValueError("mode dimension mismatch in product")
    if sk.spec.dims != dims:
        raise ValueError("sketch dims do not match train dims")
    return _sweep(sk, [list(cores) for cores in zip(*(t.cores for t in terms))])
