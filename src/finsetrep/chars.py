"""Symmetric-group characters of module levels and exact polynomial fitting.

Characters are computed as exact traces of the module acting on bijections
(embedded into N through their unique lifts); values are constant on
conjugacy classes, which the tests verify by trying two permutations per
cycle type.

Character polynomials live in the cycle-count variables ``X1, X2, ...``
(``Xj`` of a permutation counts its j-cycles and has degree ``j``) and are
expanded over the integer-valued monomial basis ``prod_j C(Xj, mj)`` rather
than raw powers: the values on every class are integers and the exact solve
is the natural one.  Fitting is exact rational elimination, never least
squares; an inconsistent system is a meaningful outcome reported with the
first offending (level, class) pair, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactla import ZERO, Matrix, hstack, reduce, solve
from .repmod import permutation_action


def partitions_of(n):
    """All partitions of ``n`` as weakly decreasing tuples, in descending
    lexicographic order (``(n)`` first, ``(1,...,1)`` last)."""
    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    return tuple(gen(n, n))


def cycle_counts(partition):
    """Map ``j -> number of parts equal to j``."""
    counts = {}
    for part in partition:
        counts[part] = counts.get(part, 0) + 1
    return counts


def permutation_of_type(partition, variant=0):
    """One-line values of a permutation with the given cycle type.

    ``variant=0`` lays the cycles out consecutively from 1; ``variant=1``
    conjugates by the order-reversing bijection, giving a second class
    representative for class-constancy tests.
    """
    n = sum(partition)
    values = [0] * n
    start = 1
    for part in partition:
        for off in range(part):
            values[start + off - 1] = start + (off + 1) % part
        start += part
    if variant:
        w = lambda x: n + 1 - x
        values = [w(values[w(x) - 1]) for x in range(1, n + 1)]
    return tuple(values)


def character(V, n):
    """Character of the level-``n`` symmetric group action on ``V[n]``:
    a map from partitions of ``n`` to exact rationals."""
    if n < 1 or n > V.max_level:
        raise ValueError("level %d out of range 1..%d" % (n, V.max_level))
    out = {}
    for lam in partitions_of(n):
        cols = permutation_action(V, permutation_of_type(lam))
        trace = ZERO
        for j, col in enumerate(cols):
            for r, c in col:
                if r == j:
                    trace += c
        out[lam] = trace
    return out


# ---------------------------------------------------------------------------
# character polynomials

def monomial_keys(max_degree):
    """Monomials ``prod_j C(Xj, mj)`` of degree ``sum j*mj <= max_degree``,
    keyed by sorted ``((j, mj), ...)`` tuples, in (degree, key) order."""
    keys = []
    for total in range(max_degree + 1):
        for lam in partitions_of(total):
            counts = cycle_counts(lam)
            keys.append(tuple(sorted(counts.items())))
    keys.sort(key=lambda key: (sum(j * m for j, m in key), key))
    return tuple(keys)


def _eval_monomial(key, counts):
    value = 1
    for j, m in key:
        x = counts.get(j, 0)
        if x < m:
            return 0
        value *= comb(x, m)
    return value


@dataclass(frozen=True)
class CharacterPolynomial:
    """Exact-coefficient polynomial over the binomial cycle-count monomials."""
    coefficients: tuple   # ((key, Fraction), ...) sorted by (degree, key), nonzero only

    @classmethod
    def from_dict(cls, mapping):
        items = tuple(sorted(
            ((key, c) for key, c in mapping.items() if c),
            key=lambda kv: (sum(j * m for j, m in kv[0]), kv[0]),
        ))
        return cls(items)

    @property
    def degree(self):
        return max((sum(j * m for j, m in key) for key, _ in self.coefficients), default=0)

    def evaluate(self, partition):
        """Value on the class of a cycle type; cycle counts absent from the
        type (including every ``Xj`` with ``j > n``) are 0."""
        counts = cycle_counts(partition)
        return sum((c * _eval_monomial(key, counts) for key, c in self.coefficients), ZERO)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for key, c in self.coefficients:
            factors = []
            for j, m in key:
                factors.append("X%d" % j if m == 1 else "C(X%d,%d)" % (j, m))
            mono = "*".join(factors)
            if not mono:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (c, mono)
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += " - " + term[1:] if term.startswith("-") else " + " + term
        return text


@dataclass(frozen=True)
class FitOutcome:
    """Result of an exact fit: the polynomial, or the first witness of
    inconsistency as a (level, partition) pair / level index."""
    ok: bool
    polynomial: object
    witness: object

    def __str__(self):
        if self.ok:
            return str(self.polynomial)
        return "inconsistent at %r" % (self.witness,)


def fit_character_polynomial(V, max_degree, fit_levels, test_levels):
    """Fit an exact character polynomial of degree at most ``max_degree``.

    Solves the linear system of all (level, class) character values over the
    fit levels, then verifies exactly on the disjoint test levels.  Returns
    the polynomial, or the first failing (level, partition) witness: on the
    fit side, the first equation in (level, partition) order that contradicts
    the ones before it.  A monomial of degree above every fit level vanishes
    on each class of those levels, so the solve would set its coefficient to
    zero; only monomials up to the highest fit level enter the system.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative, got %d" % max_degree)
    fit_levels = sorted(fit_levels)
    test_levels = sorted(test_levels)
    if set(fit_levels) & set(test_levels):
        raise ValueError("fit and test levels must be disjoint")
    keys = monomial_keys(min(max_degree, max(fit_levels, default=0)))
    equations, rows, values = [], [], []
    for n in fit_levels:
        char = character(V, n)
        for lam in partitions_of(n):
            counts = cycle_counts(lam)
            equations.append((n, lam))
            rows.append([_eval_monomial(key, counts) for key in keys])
            values.append([char[lam]])
    a = Matrix(len(rows), len(keys), rows)
    b = Matrix(len(rows), 1, values)
    solution = solve(a, b)
    if solution is None:
        # equation k contradicts the ones before it exactly when its
        # coefficient row depends on theirs but its augmented row does not;
        # the values raise the rank by one, so one equation is a pivot of the
        # augmented transpose and not of the coefficient transpose
        (k,) = set(reduce(hstack([a, b]).transpose())[2]) - set(reduce(a.transpose())[2])
        return FitOutcome(False, None, equations[k - 1])
    poly = CharacterPolynomial.from_dict(dict(zip(keys, (row[0] for row in solution.data))))
    for n in test_levels:
        char = character(V, n)
        for lam in partitions_of(n):
            if poly.evaluate(lam) != char[lam]:
                return FitOutcome(False, None, (n, lam))
    return FitOutcome(True, poly, None)


# ---------------------------------------------------------------------------
# dimension polynomials by finite differences

@dataclass(frozen=True)
class BinomialPolynomial:
    """Polynomial in ``n`` expressed over the basis ``C(n-1, j)``, with any
    rational coefficients; :func:`finsetrep.doldkan.dim_polynomial` returns
    one with the conormalized dimensions as its coefficients."""
    coefficients: tuple

    def evaluate(self, n):
        return sum((c * comb(n - 1, j) for j, c in enumerate(self.coefficients)), ZERO)

    @property
    def degree(self):
        deg = -1
        for j, c in enumerate(self.coefficients):
            if c:
                deg = j
        return deg

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coefficients):
            if not c:
                continue
            terms.append(str(c) if j == 0 else "%s*C(n-1,%d)" % (c, j))
        return " + ".join(terms) if terms else "0"


def fit_dimension_polynomial(seq, max_degree):
    """Fit a degree-``max_degree`` polynomial to ``seq`` (indexed from n=1).

    Finite differences on the first ``max_degree + 1`` values determine the
    candidate; the remaining values are verified exactly and the first
    failing index is reported as the witness.  Requires at least
    ``max_degree + 2`` values so that at least one check happens.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative, got %d" % max_degree)
    seq = [x if isinstance(x, Fraction) else Fraction(x) for x in seq]
    if len(seq) < max_degree + 2:
        raise ValueError("need at least %d values to fit and verify" % (max_degree + 2))
    row = seq[:max_degree + 1]
    coeffs = [row[0]]
    for _ in range(max_degree):
        row = [b - a for a, b in zip(row, row[1:])]
        coeffs.append(row[0])
    poly = BinomialPolynomial(tuple(coeffs))
    for n in range(max_degree + 2, len(seq) + 1):
        if poly.evaluate(n) != seq[n - 1]:
            return FitOutcome(False, None, n)
    return FitOutcome(True, poly, None)
