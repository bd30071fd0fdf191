"""Embedding quality diagnostics and moment bookkeeping.

Subsets of modes are handled as bitmasks (bit k = mode k, zero-based) and
capped at 16 modes; helpers also accept iterables of mode indices.
"""

from dataclasses import replace

import numpy as np

from .contract import partial_contractions
from .sketch import RealizedSketch, SketchSpec, make_sketch, sketch_dense
from .tt import STREAM_EXPERIMENT, _stack_gram, _stacked_train, gaussian, rng_for, tt_norm

MAX_SUBSET_MODES = 16


def p_field(field):
    """Moment multiplicity of the field: 2 for real, 1 for complex."""
    if field == "real":
        return 2
    if field == "complex":
        return 1
    raise ValueError("field must be 'real' or 'complex'")


def as_mask(subset, d):
    if d > MAX_SUBSET_MODES:
        raise ValueError("subsets supported for at most %d modes" % MAX_SUBSET_MODES)
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
    else:
        mask = 0
        for i in subset:
            if not 0 <= i < d:
                raise ValueError("mode index %d out of range" % i)
            mask |= 1 << i
    if mask >> d:
        raise ValueError("subset mentions modes beyond d")
    return mask


def partial_trace(s, dims, subset):
    """Trace out the modes in ``subset`` from a (prod dims)^2 matrix.

    Rows and columns of the result run over the remaining modes in their
    original order, row-major.
    """
    dims = tuple(dims)
    d = len(dims)
    mask = as_mask(subset, d)
    a = np.asarray(s).reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:d])
    col = list(letters[d:2 * d])
    keep = []
    for k in range(d):
        if (mask >> k) & 1:
            col[k] = row[k]
        else:
            keep.append(k)
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    res = np.einsum("".join(row) + "".join(col) + "->" + out, a)
    nc = int(np.prod([dims[k] for k in keep])) if keep else 1
    return res.reshape(nc, nc)


def gamma_table(d, R, field="real"):
    """Subset coefficients of the second-moment expansion, by recursion.

    Built mode by mode exactly as the inductive argument dictates, with the
    modified last step.  Returns a dict keyed by bitmask over [d].
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if d > MAX_SUBSET_MODES:
        raise ValueError("d capped at %d" % MAX_SUBSET_MODES)
    p = p_field(field)
    R = float(R)
    # stage 1: subsets of {mode 0}
    g = {1: 1.0, 0: 0.0}
    for k in range(1, d):
        # interior step: subsets I of modes 0..k-2 spawn I and I + {k-1, k}
        new = {}
        bit_k = 1 << (k - 1)
        bit_k1 = 1 << k
        for mask in range(1 << (k - 1)):
            a = g.get(mask, 0.0)
            b = g.get(mask | bit_k, 0.0)
            new[mask] = new.get(mask, 0.0) + (1 + (p - 1) / R) * a + (p / R) * b
            new[mask | bit_k | bit_k1] = new.get(mask | bit_k | bit_k1, 0.0) + a / R + b
        g = new
    # final step: the dangling last mode folds back onto itself
    out = {}
    bit_d = 1 << (d - 1)
    for mask in range(1 << (d - 1)):
        a = g.get(mask, 0.0)
        b = g.get(mask | bit_d, 0.0)
        out[mask] = (1 + (p - 1) / R) * a + (p / R) * b
        out[mask | bit_d] = a / R + b
    return out


def gamma_sum(d, R, field="real"):
    """Closed form of the summed coefficients, (1 + p/R)^d."""
    p = p_field(field)
    return (1.0 + p / float(R)) ** d


def gamma_empty_closed_form(d, R, field="real"):
    """Closed form for the empty-subset coefficient, (p/R)(1+(p-1)/R)^(d-1).

    Agrees with the recursion in ``gamma_table``; kept as an independent
    consistency check.
    """
    p = p_field(field)
    R = float(R)
    return (p / R) * (1 + (p - 1) / R) ** (d - 1)


def cq_upper_bound(d, R, field="real"):
    """Worst-case variance inflation factor, (1 + p/R)^d - 1."""
    return gamma_sum(d, R, field) - 1.0


def moment_identity_matrix(a, b, R, field, form="trace"):
    """Exact second moments of bilinear traces of a Gaussian core.

    G has iid entries of variance 1/R.  ``form`` selects which pairing:
    'trace' multiplies the two traces, 'hs' pairs them Hilbert-Schmidt
    style.  The second factor is conjugated in the complex case.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    tra = np.trace(a)
    trb = np.trace(b)
    if field == "real":
        if form == "trace":
            return tra * trb + (np.trace(a @ b.T) + np.trace(a @ b)) / R
        if form == "hs":
            return np.trace(a @ b.T) + (tra * trb + np.trace(a @ b)) / R
    else:
        if form == "trace":
            return tra * np.conj(trb) + np.trace(a @ b.conj().T) / R
        if form == "hs":
            return np.trace(a @ b.conj().T) + tra * np.conj(trb) / R
    raise ValueError("form must be 'trace' or 'hs'")


# Samples drawn and multiplied per batch by ``mc_moment_matrix``.
MC_CHUNK = 8192


def mc_moment_matrix(a, b, R, field, nsamples, seed=0, form="trace"):
    """Monte Carlo check of ``moment_identity_matrix``.

    Returns (estimate, standard error, exact value).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    rng = rng_for(seed, STREAM_EXPERIMENT, 0, 0)
    scale = np.sqrt(1.0 / R)
    vals = np.empty(nsamples, dtype=complex if field == "complex" else float)
    for start in range(0, nsamples, MC_CHUNK):
        c = min(MC_CHUNK, nsamples - start)
        # One draw of c samples reads the stream in the order of c draws of
        # one (R, n) sample each: a complex sample is its real then its
        # imaginary part.
        if field == "complex":
            z = rng.standard_normal((c, 2, R, n))
            g = scale / np.sqrt(2.0) * (z[:, 0] + 1j * z[:, 1])
        else:
            g = scale * rng.standard_normal((c, R, n))
        gh = g.conj().transpose(0, 2, 1)
        # both traces share the same draw of G
        ga = g @ a @ gh
        gb = g @ b @ gh
        out = vals[start:start + c]
        if form == "hs":
            out[:] = np.trace(ga @ gb.conj().transpose(0, 2, 1), axis1=1, axis2=2)
            continue
        ta, tb = np.trace(ga, axis1=1, axis2=2), np.trace(gb, axis1=1, axis2=2)
        if field == "real":
            out[:] = ta * tb
        else:
            # ta * conj(tb) in real arithmetic, which rounds as the product of
            # two complex scalars does; numpy's complex array product can
            # round differently.
            out.real = ta.real * tb.real + ta.imag * tb.imag
            out.imag = ta.imag * tb.real - ta.real * tb.imag
    est = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(nsamples)
    return est, se, moment_identity_matrix(a, b, R, field, form=form)


def moment_subset_bound(s, dims, R, field):
    """Sum over subsets of gamma_I ||Tr_I S||_F^2."""
    d = len(dims)
    g = gamma_table(d, R, field)
    total = 0.0
    for mask, coeff in g.items():
        if coeff == 0.0:
            continue
        total += coeff * np.linalg.norm(partial_trace(s, dims, mask)) ** 2
    return total


def mc_moment_tensor(s, dims, R, nsamples, seed=0, field="real"):
    """MC second moment of the sketched quadratic form against one block.

    The block is a rank-R Gaussian chain without the block average.  Returns
    (estimate, standard error, subset-coefficient bound).
    """
    dims = tuple(dims)
    n = int(np.prod(dims))
    s = np.asarray(s).reshape(n, n)
    vals = np.empty(nsamples)
    for t in range(nsamples):
        spec = SketchSpec("gaussian_tt", dims, P=1, R=R, field=field,
                          seed=seed * 1000003 + t)
        omega = sketch_dense(make_sketch(spec))  # P = 1, scale 1
        q = np.trace(omega @ s @ omega.conj().T)
        vals[t] = q.real ** 2
    est = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(nsamples)
    return est, se, moment_subset_bound(s, dims, R, field)


def entanglement_constant(basis, dims, subset, n_starts=64, iters=200, seed=0):
    """Largest Frobenius norm of a partial trace over the unit sphere of a span.

    ``basis`` is a list of dense vectors (or arrays) spanning the subspace;
    it is orthonormalized internally.  For one-dimensional spans the value
    is exact; otherwise multiple runs of a fixed-point ascent give a lower
    bound of the maximum.
    """
    dims = tuple(dims)
    d = len(dims)
    mask = as_mask(subset, d)
    n = int(np.prod(dims))
    q = np.stack([np.asarray(v).reshape(n) for v in basis], axis=1)
    q, _ = np.linalg.qr(q)
    r = q.shape[1]
    inside = [k for k in range(d) if (mask >> k) & 1]
    outside = [k for k in range(d) if not (mask >> k) & 1]
    ni = int(np.prod([dims[k] for k in inside])) if inside else 1

    def f_and_mat(u):
        v = q @ u
        m = np.transpose(v.reshape(dims), inside + outside).reshape(ni, -1)
        t = m.T @ m.conj()
        return np.linalg.norm(t), m, t

    if r == 1:
        return f_and_mat(np.ones(1))[0]

    cplx = np.iscomplexobj(q)
    best = 0.0
    rng = rng_for(seed, STREAM_EXPERIMENT, 1, 0)
    for _ in range(n_starts):
        u = gaussian(rng, (r,), "complex" if cplx else "real")
        u = u / np.linalg.norm(u)
        for _ in range(iters):
            fval, m, t = f_and_mat(u)
            step = np.transpose(
                (m @ t).reshape([dims[k] for k in inside + outside]),
                np.argsort(inside + outside),
            ).reshape(n)
            u_new = q.conj().T @ step
            nrm = np.linalg.norm(u_new)
            if nrm == 0:
                break
            u_new = u_new / nrm
            if np.linalg.norm(u_new - u) < 1e-13:
                u = u_new
                break
            u = u_new
        best = max(best, f_and_mat(u)[0])
    return best


def empirical_spectrum(basis, sketches):
    """Extreme eigenvalues of the whitened Gram of the sketched basis.

    ``sketches`` is an iterable of realized sketches, consumed one at a
    time, and one pair (sigma_min^2, sigma_max^2) is returned per sketch; a
    single realized sketch gives a single pair.  The basis is stacked once,
    as one block train with left boundary rank r, and whitened once for all
    of them.  Its Gram matrix is computed exactly from the stack, through
    train contractions, so the basis need not be orthonormal and nothing is
    densified.  All r sketch columns come from one sweep: W_1 of the stack.  The
    eigenvalues are the squared singular values of the whitened sketch, so
    they are never negative and the smallest is accurate to round-off
    relative to the product of the extreme singular values, not to the
    largest eigenvalue.  With fewer sketch rows than basis vectors the
    smallest is exactly 0.
    """
    single = isinstance(sketches, RealizedSketch)
    stacked = _stacked_train(basis)
    gram = _stack_gram(stacked)
    w, u = np.linalg.eigh((gram + gram.conj().T) / 2)
    w = np.maximum(w, 0)
    if w[-1] == 0:
        raise ValueError("degenerate basis")
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(np.maximum(w, w[-1] * 1e-14))) @ u.conj().T
    out = []
    for sk in [sketches] if single else sketches:
        m = partial_contractions(sk, stacked).Ws[0]
        s = np.linalg.svd(m @ inv_sqrt, compute_uv=False)
        lo = s[-1] ** 2 if len(s) == len(basis) else 0.0
        out.append((float(lo), float(s[0] ** 2)))
    return out[0] if single else out


def isotropy_samples(spec, x, nsamples, seed=0):
    """Ratios ||Omega x||^2 / ||x||^2 over independent sketch draws."""
    nrm2 = tt_norm(x) ** 2
    out = np.empty(nsamples)
    for t in range(nsamples):
        sk = make_sketch(replace(spec, seed=seed * 1000003 + t))
        v = partial_contractions(sk, x).vector()
        out[t] = np.linalg.norm(v) ** 2 / nrm2
    return out


def osi_sufficient_P(eps, delta, r, c):
    """Smallest block count meeting the subspace-embedding condition."""
    val = 4.0 / eps ** 2 * (8.0 * c ** 2 * r + (1.0 + c ** 2) * np.log(2.0 * r / delta))
    return int(np.ceil(val))


def rsvd_constant(alpha, delta, P, R, d, field="real"):
    """Expected low-rank error inflation constant for the sketched range."""
    blow = cq_upper_bound(d, R, field)
    return 1.0 + (1.0 / alpha) * (1.0 + np.sqrt(blow / (P * delta / 2.0)))


def rounding_error_constant(alpha, delta, P, R, d, field="real"):
    """Error inflation of randomized rounding: (d-1) times the range
    constant at confidence delta/(d-1)."""
    if d < 2:
        raise ValueError("need d >= 2")
    return (d - 1) * rsvd_constant(alpha, delta / (d - 1), P, R, d, field)


def ose_sufficient_params(L, eps, delta, r, d):
    """Oblivious subspace embedding sufficient parameters (R, P).

    L is the entanglement bound of the subspace scaled as in the tail
    argument; returned values are the raw formulas, not ceiled.
    """
    R = 32.0 * (L * np.e) ** 2 * d * (r * np.log(9.0) + np.log(1.0 / delta))
    P = 16.0 * np.e ** 4 / eps ** 2
    return R, P
