"""The explicit simple N-modules and the descent-through-forget check.

``Ck`` has the k-element subsets of ``[n]`` as a basis; an N-morphism pushes
a subset forward along its underlying set map and kills it when the image
has fewer than k elements.  ``D1`` is one-dimensional at every nonempty
level with every arrow acting by the 1x1 identity; ``D0`` is one-dimensional
at ``[0]`` and zero elsewhere.

These rules never look at fiber orders, so two N-morphisms with the same
underlying set map act identically; :func:`descends_through_phi` verifies
that property for any N-module, and decides it for a certified elementary
one by the one relation ``s_i o tau_i = s_i`` that F adds to N.
:func:`order_sign_module` is the deliberate counterexample: a rank-one rule
multiplying the parities of all fiber orders, which the check must reject
with a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .catcore import F, N, enumerate_hom, format_mor, hom_count
from .repmod import CatModule, _relations_certify, compose_columns


def subset_basis(n, k):
    """All k-element subsets of ``[n]`` in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def make_simple(which, max_level, *, k=None):
    """Build one of the explicit simple N-modules ``Ck``, ``D0``, ``D1``.

    ``Ck`` needs ``k >= 1``.  All three are rule-backed and defined natively
    on N-morphisms (the rule factors through the underlying set map, which
    is exactly what :func:`descends_through_phi` certifies).
    """
    if which == "Ck":
        if k is None or k < 1:
            raise ValueError("Ck requires k >= 1")
        bases = {n: subset_basis(n, k) for n in range(max_level + 1)}
        index = {n: {s: i for i, s in enumerate(bases[n])} for n in bases}
        dims = tuple(comb(n, k) for n in range(max_level + 1))

        def columns(f):
            values = f.map.values
            tgt = index[f.map.cod]
            cols = []
            for subset in bases[f.map.dom]:
                image = frozenset(values[x - 1] for x in subset)
                if len(image) == k:
                    cols.append(((tgt[tuple(sorted(image))], 1),))
                else:
                    cols.append(())
            return cols

        return CatModule(N, max_level, dims, columns=columns, name="C%d" % k)

    if which == "D0":
        dims = (1,) + (0,) * max_level

        def columns(f):
            if f.map.dom == 0 and f.map.cod == 0:
                return (((0, 1),),)
            return ((),) * dims[f.map.dom]

        return CatModule(N, max_level, dims, columns=columns, name="D0")

    if which == "D1":
        dims = (0,) + (1,) * max_level

        def columns(f):
            if f.map.dom >= 1 and f.map.cod >= 1:
                return (((0, 1),),)
            return ((),) * dims[f.map.dom]

        return CatModule(N, max_level, dims, columns=columns, name="D1")

    raise ValueError("unknown simple %r (expected Ck, D0 or D1)" % (which,))


def _parity(order):
    # parity of the permutation sorting `order` increasingly
    inversions = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    return -1 if inversions % 2 else 1


def order_sign_module(max_level):
    """Rank-one rule multiplying the parities of all fiber orders.

    Genuinely order-sensitive (and not even functorial), so it serves as the
    negative control for :func:`descends_through_phi`.
    """
    dims = (1,) * (max_level + 1)

    def columns(f):
        sign = 1
        for fib in f.fiber_orders:
            sign *= _parity(fib)
        return (((0, sign),),)

    return CatModule(N, max_level, dims, columns=columns, name="order-sign")


@dataclass(frozen=True)
class DescendReport:
    passed: bool
    pairs_checked: int
    counterexample: tuple | None   # (f, f2) acting differently

    def __str__(self):
        if self.passed:
            return "descends through the forgetful functor (%d pairs)" % self.pairs_checked
        f, f2 = self.counterexample
        return "order-sensitive action: %s vs %s" % (format_mor(f), format_mor(f2))


def descends_through_phi(V, exhaustive_up_to):
    """Check that N-morphisms with equal underlying set maps act equally.

    Covers every such pair with endpoints at most ``exhaustive_up_to``
    (clipped to the truncation): the report counts the pairs covered and
    names the first counterexample.  Grouping the morphisms of each hom set
    by their underlying map, a group of ``k`` lifts is ``k - 1`` pairs, so
    there are ``hom_count(N, m, n) - hom_count(F, m, n)`` pairs in all.

    An elementary module that passes :func:`~finsetrep.repmod.check_relations`
    is decided by the one relation F adds to N: it descends exactly when
    ``V(s_i) V(tau_i) = V(s_i)`` for every codegeneracy ``s_i: [n+1] -> [n]``
    with ``n + 1`` at most the bound.  *Sound:* two lifts ``f = iota o pi o
    sigma`` and ``f'`` of one map differ by permutations inside fibers, so
    ``f' = iota o pi o t o sigma`` with ``t`` a product of adjacent
    transpositions ``tau_j`` whose ``j`` and ``j + 1`` share a fiber of the
    monotone surjection ``pi``.  Such a ``pi`` factors as ``pi'' o s_j``, so
    ``V(pi o tau_j) = V(pi'') V(s_j tau_j) = V(pi'') V(s_j) = V(pi)``
    because ``V`` is a functor, and ``V(f') = V(f)`` one transposition at a
    time.  No step leaves the levels ``<= m``.  *Complete:* ``s_i`` and
    ``s_i o tau_i`` are two lifts of one map.  Every other module, and one
    whose relations or whose codegeneracies fail, is walked pair by pair, so
    the witness is the first failing pair of the walk.
    """
    if V.category is not N:
        raise ValueError("descends_through_phi applies to N-modules")
    bound = min(exhaustive_up_to, V.max_level)
    blocks = V._elementary
    if blocks is not None and _relations_certify(V) and all(
            compose_columns(blocks["codegen", n, i], blocks["transp", n + 1, i])
            == blocks["codegen", n, i] for n in range(1, bound) for i in range(1, n + 1)):
        return DescendReport(True, sum(hom_count(N, m, n) - hom_count(F, m, n)
                                       for m in range(bound + 1) for n in range(bound + 1)), None)
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
