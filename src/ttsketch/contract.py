"""Partial-contraction sketching of tensor trains.

``partial_contractions`` produces, for every cut k, the matrix pairing the
sketch chain over modes k..d with the train chain over the same modes.  The
structured variants below produce the same matrices for linear combinations,
operator-vector products, and elementwise products without assembling the
large intermediate train.

Layout.  A realized sketch keeps core k of all P blocks as one stacked
array G_k of shape (P, l_k, n_k, l_{k+1}).  One right-to-left sweep carries
W_k of shape (P * l_k, chi_k), whose rows are block-major over the P sketch
blocks.  The global 1/sqrt(P) factor is applied exactly once, when W_1 is
emitted.

Contraction order.  The order for each kind of local operator (a train
core, an (operator core, train core) pair, a list of Hadamard factor cores)
is stated once, at ``_left_step``.  A right-to-left step is the left step
of the mirrored local operator (``_mirror``: its left and right bonds
swapped) applied to w, followed by one matmul with G_k batched over the P
blocks.
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


def _left_step(p, op):
    """One core of a projection sweep: the one contraction order of each
    kind of local operator.

    ``p`` (q, chi) projects the left bond of this core's local operator,
    ``op``; the result is the projected core (q, n, chi').  ``op`` is

    * a train core (c, n, C): chi = c, chi' = C;
    * an (operator core (a, n, m, A), train core (c, m, C)) pair: chi = a c
      and chi' = A C, operator bond major; p is contracted with the train
      core, then with the operator core;
    * a list of Hadamard factor cores (a_j, n, A_j): chi = a_1 ... a_J and
      chi' = A_1 ... A_J, factor 1 major.  Per mode index the partial is
      held as a matrix whose rows are the next factor's bond a_j: one
      matmul with that factor's slice makes A_j the rows, and the transpose
      moves A_j behind and a_{j+1} to the front.  The first matmul
      broadcasts p over the mode index.

    Every projection in the package goes through it: ``tt._sweep_terms``,
    ``tt._left_sweep`` and ``rounding.stta_streams`` from the left, and
    ``_sweep`` from the right, on mirrored operators.
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
    if isinstance(op, list):
        t = p.T[None]
        for f in op:
            t = (f.transpose(1, 2, 0) @ t.reshape(len(t), f.shape[0], -1)).transpose(0, 2, 1)
        return t.reshape(len(t), q, -1).transpose(1, 0, 2)
    c, n, cr = op.shape
    return (p @ op.reshape(c, n * cr)).reshape(q, n, cr)


def _mirror(op):
    """The local operator ``op`` of ``_left_step`` with its left and right
    bonds swapped: the same core of the chain with its modes reversed."""
    if isinstance(op, tuple):
        h, x = op
        return h.transpose(3, 1, 2, 0), x.transpose(2, 1, 0)
    if isinstance(op, list):
        return [_mirror(f) for f in op]
    return op.transpose(2, 1, 0)


def _sweep(sk, ops):
    """W_1..W_d of one sketch against per-core local operators.

    Right to left: at core k the carried W_{k+1} (P l', chi') projects the
    mirrored local operator through ``_left_step``, and one matmul batched
    over the P blocks contracts the result with G_k over (n, l').
    """
    w = np.ones((sk.cores[0].shape[0], 1), dtype=sk.cores[0].dtype)
    ws = [None] * len(ops)
    for k in range(len(ops) - 1, -1, -1):
        p, l, n, lr = sk.cores[k].shape
        t = _left_step(w, _mirror(ops[k]))
        t = t.reshape(p, lr, n, -1).transpose(0, 2, 1, 3).reshape(p, n * lr, -1)
        w = ws[k] = (sk.cores[k].reshape(p, l, n * lr) @ t).reshape(p * l, -1)
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
