"""Dense views of elementary blocks, for tests that build or edit a block
entry by entry; a dense Gauss-Jordan elimination as an oracle for the
sparse one in ``exactla``; the sampled functor-law check and the descent
check as pair walks, oracles for the relation checks that decide them; and
the tensor-power module ``L(T2)``."""

import itertools
import random
from fractions import Fraction

from finsetrep.catcore import N, compose_in, enumerate_hom, hom_count, random_mor
from finsetrep.exactla import Matrix
from finsetrep.repmod import (
    CatModule, FunctorialityReport, _identity_mor, compose_columns, elementary_keys,
    elementary_morphism, identity_columns,
)
from finsetrep.simples import DescendReport


def dense_blocks(V):
    """Every elementary block of ``V`` as a dense :class:`Matrix`."""
    return {key: V.act(elementary_morphism(V.category, key))
            for key in elementary_keys(V.category, V.max_level)}


def sparse_blocks(mats):
    """Dense blocks ``{key: Matrix}`` as the sparse columns that
    ``from_elementary`` takes."""
    return {key: tuple(tuple((i, row[j]) for i, row in enumerate(m.data) if row[j])
                       for j in range(m.cols))
            for key, m in mats.items()}


def dense_rref(a):
    """``(rref, rank, pivot_cols)`` of ``a`` by column-by-column Gauss-Jordan
    on a dense grid, with 1-based pivot columns, as ``exactla.reduce``
    returns them."""
    m = [list(row) for row in a.data]
    nrows, ncols = a.rows, a.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            inv = Fraction(1) / pv
            m[r] = [x * inv for x in m[r]]
        mr = m[r]
        for i in range(nrows):
            if i != r:
                t = m[i][c]
                if t:
                    mi = m[i]
                    for j in range(c, ncols):
                        if mr[j]:
                            mi[j] -= t * mr[j]
        pivots.append(c + 1)
        r += 1
        if r == nrows:
            break
    return Matrix(nrows, ncols, m), r, tuple(pivots)


def sampled_walk(V, trials, seed):
    """The sampled functor-law check as a walk over its seeded draws, with
    no relation check: ``act(id) = id`` at every level, then
    ``V(g o f) = V(g) V(f)`` on ``trials`` pairs drawn from a
    ``random.Random(seed)``, the columns of each morphism kept for the
    call."""
    cat = V.category
    levels = list(V.levels)
    columns = V.evaluator()
    for n in levels:
        if columns(_identity_mor(cat, n)) != identity_columns(V.dims[n]):
            return FunctorialityReport(False, 0, False, ("identity", n))

    def draws():
        rng = random.Random(seed)
        while True:
            a, b, c = (rng.choice(levels) for _ in range(3))
            if hom_count(cat, a, b) and hom_count(cat, b, c):
                f = random_mor(cat, a, b, rng)
                yield f, random_mor(cat, b, c, rng)

    cache = {}

    def cols(m):
        got = cache.get(m)
        if got is None:
            got = cache[m] = columns(m)
        return got

    for checked, (f, g) in enumerate(itertools.islice(draws(), trials), 1):
        if cols(compose_in(cat, g, f)) != compose_columns(cols(g), cols(f)):
            return FunctorialityReport(False, checked, False, (f, g))
    return FunctorialityReport(True, trials, False, None)


def descent_walk(V, bound):
    """The descent check as a walk: for ``m, n <= bound``, the N-morphisms
    ``[m] -> [n]`` grouped by underlying map in enumeration order, each
    compared with the first of its group; the first that differs is the
    witness."""
    bound = min(bound, V.max_level)
    columns = V.evaluator()
    checked = 0
    for m in range(bound + 1):
        for n in range(bound + 1):
            groups = {}
            for f in enumerate_hom(N, m, n):
                groups.setdefault(f.map.values, []).append(f)
            for mors in groups.values():
                if len(mors) < 2:
                    continue
                base = columns(mors[0])
                for f2 in mors[1:]:
                    checked += 1
                    if columns(f2) != base:
                        return DescendReport(False, checked, (mors[0], f2))
    return DescendReport(True, checked, None)


# basis e11, e12, e22 of T2, the upper-triangular 2x2 matrices, as (row, col)
T2 = ((1, 1), (1, 2), (2, 2))


def _t2_product(factors):
    """The product of the basis elements ``factors`` of T2, in order, as
    ``{basis index: coeff}``; the empty product is the unit ``e11 + e22``."""
    acc = {0: 1, 2: 1}
    for b in factors:
        k, l = T2[b]
        acc = {T2.index((T2[a][0], l)): c for a, c in acc.items() if T2[a][1] == k}
    return acc


def tensor_t2_module(max_level):
    """``L(T2)``, the N-module ``[n] -> T2^(x n)`` (Pirashvili-Richter 2002)
    as a rule module: a morphism sends ``a_1 (x) ... (x) a_m`` to the tensor
    whose factor at ``y`` is the product of the ``a_x`` over the fiber of
    ``y``, in fiber order, and the unit for an empty fiber.  The basis of
    level ``n`` is the words in e11, e12, e22, in ``itertools.product``
    order.  T2 is not commutative, so ``L(T2)`` is a functor on N that does
    not descend to F."""
    words = {n: tuple(itertools.product(range(3), repeat=n)) for n in range(max_level + 1)}

    def columns(f):
        cols = []
        for word in words[f.map.dom]:
            col = {0: 1}
            for fib in f.fiber_orders:
                factor = _t2_product([word[x - 1] for x in fib])
                col = {3 * r + b: c * d for r, c in col.items() for b, d in factor.items()}
            cols.append(tuple(sorted(col.items())))
        return cols

    return CatModule(N, max_level, tuple(3 ** n for n in range(max_level + 1)),
                     columns=columns, name="L(T2)")
