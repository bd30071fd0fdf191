"""Computed flop counts of the ttsketch contraction kernels.

The counts are derived from array shapes alone; nothing here is measured.
Each kernel is a sweep of one ``np.einsum`` per core, and a core's count is
the cost of that einsum at the pairwise-optimal contraction order, with the
same cost rule and memory cap that ``np.einsum_path(..., optimize="optimal")``
uses (its printed "Optimized FLOP count" is this number plus one).  A kernel's
count is the sum over cores and sketch blocks.

The program itself calls ``np.einsum`` without ``optimize``, so the counts are
the work a good contraction order needs, not the work the program does.

Shapes are passed as tuples of core shapes, e.g. ``train_shapes(x)``.  Every
sketch variant realizes blocks of one common shape, so a sketch is described
by the core shapes of its first block and the number of blocks.
"""

import string
from functools import lru_cache
from itertools import combinations
from math import prod


def train_shapes(x):
    return tuple(c.shape for c in x.cores)


def sketch_shapes(sk):
    return tuple(c.shape for c in sk.blocks[0]), len(sk.blocks)


@lru_cache(maxsize=None)
def einsum_flops(eq, shapes):
    """Pairwise-optimal flop count of one einsum, as numpy's path search counts it."""
    lhs, out = eq.split("->")
    terms = lhs.split(",")
    size = {}
    for term, shape in zip(terms, shapes):
        for label, n in zip(term, shape):
            size[label] = max(size.get(label, 1), n)
    output = set(out)
    limit = max(prod(size[c] for c in t) for t in terms + [out])

    def cost(labels, removed, n_terms):
        return prod(size[c] for c in labels) * (max(1, n_terms - 1) + (1 if removed else 0))

    def contract(positions, remaining):
        labels, rest = set(), []
        keep = set(output)
        for i, s in enumerate(remaining):
            if i in positions:
                labels |= s
            else:
                rest.append(s)
                keep |= s
        result = keep & labels
        return result, rest + [result], labels - result, labels

    if len(terms) <= 2 or set(lhs) - {","} == output:
        labels = set(lhs) - {","}
        return cost(labels, labels - output, len(terms))
    # Breadth-first over pair contractions, as numpy's "optimal" search does;
    # a pair whose result exceeds the largest operand is not allowed, and if
    # no pair is allowed the remaining terms are contracted in one step.
    frontier = [(0, [set(t) for t in terms])]
    for _ in range(len(terms) - 1):
        nxt = []
        for spent, remaining in frontier:
            for pair in combinations(range(len(remaining)), 2):
                result, rest, removed, labels = contract(pair, remaining)
                if prod(size[c] for c in result) <= limit:
                    nxt.append((spent + cost(labels, removed, 2), rest))
        if not nxt:
            spent, remaining = min(frontier, key=lambda r: r[0])
            _, _, removed, labels = contract(range(len(remaining)), remaining)
            return spent + cost(labels, removed, len(remaining))
        frontier = nxt
    return min(r[0] for r in frontier)


def tt_inner_flops(x_shapes, y_shapes):
    """``tt_inner``: m[a,b] x conj(cx)[a,i,c] x cy[b,i,d] per core."""
    return sum(
        einsum_flops("ab,aic,bid->cd", ((cx[0], cy[0]), cx, cy))
        for cx, cy in zip(x_shapes, y_shapes)
    )


def partial_contractions_flops(block_shapes, n_blocks, x_shapes):
    """``partial_contractions``: right-to-left sweep per sketch block."""
    per_block = sum(
        einsum_flops("bik,ka,cia->bc", (g, (g[2], cx[2]), cx))
        for g, cx in zip(block_shapes, x_shapes)
    )
    return n_blocks * per_block


def sketch_matvec_flops(block_shapes, n_blocks, h_shapes, x_shapes):
    """``sketch_matvec``: sketch, carried bond, operator and train cores."""
    per_block = sum(
        einsum_flops("biB,BAC,aijA,cjC->bac", (g, (g[2], ch[3], cx[2]), ch, cx))
        for g, ch, cx in zip(block_shapes, h_shapes, x_shapes)
    )
    return n_blocks * per_block


def hadamard_equation(n_terms):
    """The einsum ``sketch_hadamard`` uses for ``n_terms`` factor trains."""
    letters = string.ascii_lowercase
    w_sub = "Z" + letters[n_terms:2 * n_terms].upper()
    term_subs = [letters[j] + "i" + letters[n_terms + j].upper() for j in range(n_terms)]
    return ",".join(["ziZ", w_sub] + term_subs) + "->z" + letters[:n_terms]


def sketch_hadamard_flops(block_shapes, n_blocks, term_shapes):
    """``sketch_hadamard``: sketch, carried bond and one core per factor."""
    eq = hadamard_equation(len(term_shapes))
    per_block = 0
    for k, g in enumerate(block_shapes):
        cores = tuple(t[k] for t in term_shapes)
        w = (g[2],) + tuple(c[2] for c in cores)
        per_block += einsum_flops(eq, (g, w) + cores)
    return n_blocks * per_block


# Span name -> (key taken from a call's arguments, flop count of that key).
# Keys are plain shape tuples so a traced run can tally them cheaply and
# count flops once per distinct shape after the run.
KERNELS = {
    "tt.tt_inner": (
        lambda x, y: (train_shapes(x), train_shapes(y)),
        lambda key: tt_inner_flops(*key),
    ),
    "contract.partial_contractions": (
        lambda sk, x: sketch_shapes(sk) + (train_shapes(x),),
        lambda key: partial_contractions_flops(*key),
    ),
    "contract.sketch_matvec": (
        lambda sk, h, x: sketch_shapes(sk) + (tuple(c.shape for c in h.cores), train_shapes(x)),
        lambda key: sketch_matvec_flops(*key),
    ),
    "contract.sketch_hadamard": (
        lambda sk, terms: sketch_shapes(sk) + (tuple(train_shapes(t) for t in terms),),
        lambda key: sketch_hadamard_flops(*key),
    ),
}
