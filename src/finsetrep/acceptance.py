"""The acceptance suite: every headline property of the package, runnable as
one deterministic battery.

Each criterion function returns a :class:`CriterionResult`; :func:`run_all`
runs all ten in order and :func:`render_report` prints one pass/fail line per
criterion.  All randomness flows from the single seed, so two runs with the
same seed render byte-identical reports.  Everything is exact: no tolerances
appear anywhere, every comparison is rational equality.

Expected values asserted here are computed from independent oracles inside
this module (closed-form counting formulas, the elementary-symmetric product
for admissible-word counts, binomial identities), never read back from the
code paths under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import catcore
from .catcore import (
    DELTA, F, FI, N, compose_delta, compose_n, compose_set, enumerate_hom,
    forget, hom_count, lift, random_mor,
)
from .chars import CharacterPolynomial, fit_character_polynomial
from .doldkan import (
    CochainComplex, conormalize, dim_polynomial, one_term_complex, realize,
    read_complex, write_complex,
)
from .exactla import Matrix, kernel, rank
from .invariants import monotonicity_check, replication_iso_check
from .arnold import arnold_dim, arnold_module
from .repmod import check_functoriality, read_module, restrict, write_module
from .simples import descends_through_phi, make_simple, order_sign_module


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str


def _result(index, title, passed, detail):
    return CriterionResult(index, title, bool(passed), detail)


# ---------------------------------------------------------------------------
# 1. hom counts

def _rising(n, m):
    r = 1
    for t in range(m):
        r *= n + t
    return r


def criterion_1(seed):
    checked = 0
    for m in range(6):
        for n in range(6):
            expected = {
                N: _rising(n, m),
                F: n ** m if m else 1,
                FI: factorial(n) // factorial(n - m) if m <= n else 0,
            }
            if m >= 1 and n >= 1:
                expected[DELTA] = comb(n + m - 1, m)
            for cat, want in expected.items():
                got = len(enumerate_hom(cat, m, n))
                if got != want or hom_count(cat, m, n) != want:
                    return _result(1, "hom counts", False,
                                   "%s hom(%d,%d): enumerated %d, closed form %d" % (cat, m, n, got, want))
                checked += 1
    return _result(1, "hom counts", True,
                   "enumerations match closed forms on %d hom sets (m,n <= 5)" % checked)


# ---------------------------------------------------------------------------
# 2. category laws

def criterion_2(seed):
    # associativity, exhaustive for sizes <= 3 through a composite memo
    homs = {}
    for a in range(4):
        for b in range(4):
            homs[(a, b)] = enumerate_hom(N, a, b)
    comp = {}
    for (a, b), fs in homs.items():
        if not fs:
            continue
        for c in range(4):
            for g in homs[(b, c)]:
                for f in fs:
                    comp[(g, f)] = compose_n(g, f)
    triples = 0
    for (a, b), fs in homs.items():
        if not fs:
            continue
        for c in range(4):
            gs = homs[(b, c)]
            if not gs:
                continue
            for d in range(4):
                hs = homs[(c, d)]
                if not hs:
                    continue
                for f in fs:
                    for g in gs:
                        gf = comp[(g, f)]
                        for h in hs:
                            triples += 1
                            if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                                return _result(2, "category laws", False,
                                               "associativity fails on a size<=3 triple")
    # forgetful functor on all composable pairs with sizes <= 4
    pairs = 0
    homs4 = {}
    for a in range(5):
        for b in range(5):
            homs4[(a, b)] = enumerate_hom(N, a, b)
    for (a, b), fs in homs4.items():
        if not fs:
            continue
        for c in range(5):
            for g in homs4[(b, c)]:
                gm = g.map
                for f in fs:
                    pairs += 1
                    if forget(compose_n(g, f)) != compose_set(gm, f.map):
                        return _result(2, "category laws", False,
                                       "forgetful functor breaks on a size<=4 pair")
    # monotone lifts on all composable Delta pairs with sizes <= 4
    psi_pairs = 0
    for a in range(1, 5):
        for b in range(1, 5):
            es = enumerate_hom(DELTA, a, b)
            for c in range(1, 5):
                for d2 in enumerate_hom(DELTA, b, c):
                    ld = lift(d2)
                    for e in es:
                        psi_pairs += 1
                        if lift(compose_delta(d2, e)) != compose_n(ld, lift(e)):
                            return _result(2, "category laws", False,
                                           "monotone lift breaks on a size<=4 pair")
    # seeded random triples with sizes <= 6
    rng = random.Random(seed)
    seeded = 0
    while seeded < 500:
        a, b, c, d = (rng.randint(0, 6) for _ in range(4))
        if (b == 0 and a > 0) or (c == 0 and b > 0) or (d == 0 and c > 0):
            continue
        f = random_mor(N, a, b, rng)
        g = random_mor(N, b, c, rng)
        h = random_mor(N, c, d, rng)
        seeded += 1
        if compose_n(h, compose_n(g, f)) != compose_n(compose_n(h, g), f):
            return _result(2, "category laws", False, "seeded associativity failure")
        if forget(compose_n(g, f)) != compose_set(g.map, f.map):
            return _result(2, "category laws", False, "seeded forgetful failure")
    psi_seeded = 0
    while psi_seeded < 500:
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        e = random_mor(DELTA, a, b, rng)
        d2 = random_mor(DELTA, b, c, rng)
        psi_seeded += 1
        if lift(compose_delta(d2, e)) != compose_n(lift(d2), lift(e)):
            return _result(2, "category laws", False, "seeded monotone-lift failure")
    return _result(2, "category laws", True,
                   "associativity on %d size<=3 triples, forgetful on %d size<=4 pairs, "
                   "monotone lifts on %d size<=4 pairs, 500+500 seeded checks at sizes <= 6"
                   % (triples, pairs, psi_pairs))


# ---------------------------------------------------------------------------
# 3. normalization round trip

def _random_complex(rng):
    top = rng.randint(1, 3)
    dims = [rng.randint(0, 3) for _ in range(top + 1)]
    diffs = []
    prev = None
    for p in range(top):
        rows, cols = dims[p + 1], dims[p]
        if prev is None or prev.cols == 0 or prev.rows == 0:
            # with a degenerate predecessor any matrix composes to zero
            mat = Matrix(rows, cols,
                         [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)])
        else:
            left_kernel = kernel(prev.transpose())
            r = Matrix(rows, left_kernel.cols,
                       [[Fraction(rng.randint(-2, 2)) for _ in range(left_kernel.cols)]
                        for _ in range(rows)])
            mat = r * left_kernel.transpose()
        diffs.append(mat)
        prev = mat
    return CochainComplex(top, dims, diffs)


def criterion_3(seed):
    for p in range(5):
        module = realize(one_term_complex(p), 10)
        for n in range(1, 11):
            if module.dims[n] != comb(n - 1, p):
                return _result(3, "normalization", False,
                               "one-line realization dims wrong at p=%d, n=%d" % (p, n))
    rng = random.Random(seed)
    for trial in range(50):
        c = _random_complex(rng)
        module = realize(c, c.top + 2)
        back = conormalize(module)
        if back.dims[:c.top + 1] != c.dims or any(back.dims[c.top + 1:]):
            return _result(3, "normalization", False,
                           "round trip changed dims on corpus complex %d" % trial)
        for p, d in enumerate(c.diffs):
            if rank(back.diffs[p]) != rank(d):
                return _result(3, "normalization", False,
                               "round trip changed rank of differential %d on complex %d" % (p, trial))
        # d о d == 0 is enforced by the CochainComplex constructor for `back`
    return _result(3, "normalization", True,
                   "one-line realizations have binomial dims (p <= 4, n <= 10); "
                   "50-complex corpus round-trips with equal dims and differential ranks; d^2 = 0 throughout")


# ---------------------------------------------------------------------------
# 4. dimension polynomials

def criterion_4(seed):
    details = []
    for k in (1, 2, 3):
        module = restrict(make_simple("Ck", 8, k=k), "psi")
        poly = dim_polynomial(module)
        for n in range(1, 9):
            if poly.evaluate(n) != comb(n, k):
                return _result(4, "dimension polynomials", False,
                               "subset module k=%d wrong at n=%d" % (k, n))
        details.append("C%d deg %d" % (k, poly.degree))
    for degree, max_level in ((0, 8), (1, 8), (2, 8)):
        module = restrict(restrict(arnold_module(degree, max_level), "phi"), "psi")
        poly = dim_polynomial(module)
        for n in range(1, max_level + 1):
            if poly.evaluate(n) != arnold_dim(degree, n):
                return _result(4, "dimension polynomials", False,
                               "plane module degree %d wrong at n=%d" % (degree, n))
        if poly.degree != 2 * degree:
            return _result(4, "dimension polynomials", False,
                           "plane module degree %d has polynomial degree %d" % (degree, poly.degree))
        details.append("H%d deg %d (levels <= %d)" % (degree, poly.degree, max_level))
    return _result(4, "dimension polynomials", True,
                   "zero residual at every level: " + ", ".join(details))


# ---------------------------------------------------------------------------
# 5. descent through the forgetful functor

def criterion_5(seed):
    fixtures = [
        make_simple("Ck", 5, k=1),
        make_simple("Ck", 5, k=2),
        make_simple("Ck", 5, k=3),
        make_simple("D1", 5),
        restrict(arnold_module(0, 5), "phi"),
        restrict(arnold_module(1, 5), "phi"),
        restrict(arnold_module(2, 5), "phi"),
    ]
    total = 0
    for module in fixtures:
        report = descends_through_phi(module, 5)
        if not report.passed:
            return _result(5, "descent through forget", False,
                           "%s is order-sensitive: %s" % (module.name, report))
        total += report.pairs_checked
    negative = descends_through_phi(order_sign_module(5), 5)
    if negative.passed or negative.counterexample is None:
        return _result(5, "descent through forget", False,
                       "order-sign control was not rejected")
    f, f2 = negative.counterexample
    return _result(5, "descent through forget", True,
                   "%d equal-underlying-map pairs across 7 modules act equally (sizes <= 5); "
                   "order-sign control rejected with witness %s vs %s"
                   % (total, catcore.format_mor(f), catcore.format_mor(f2)))


# ---------------------------------------------------------------------------
# 6. character polynomials

def criterion_6(seed):
    x1 = CharacterPolynomial.from_dict({((1, 1),): Fraction(1)})
    choose_x1_2_plus_x2 = CharacterPolynomial.from_dict(
        {((1, 2),): Fraction(1), ((2, 1),): Fraction(1)})
    const_1 = CharacterPolynomial.from_dict({(): Fraction(1)})
    cases = [
        ("C1", make_simple("Ck", 8, k=1), 1, range(1, 7), (7, 8), x1),
        ("C2", make_simple("Ck", 8, k=2), 2, range(1, 7), (7, 8), choose_x1_2_plus_x2),
        ("D1", make_simple("D1", 8), 0, range(1, 7), (7, 8), const_1),
        ("H1", arnold_module(1, 8), 2, range(2, 7), (7, 8), choose_x1_2_plus_x2),
    ]
    shown = []
    for name, module, degree, fit_levels, test_levels, expected in cases:
        outcome = fit_character_polynomial(module, degree, fit_levels, test_levels)
        if not outcome.ok:
            return _result(6, "character polynomials", False,
                           "%s: inconsistent at %r" % (name, outcome.witness))
        if outcome.polynomial != expected:
            return _result(6, "character polynomials", False,
                           "%s: fitted %s, expected %s" % (name, outcome.polynomial, expected))
        if name == "H1" and outcome.polynomial.degree != 2:
            return _result(6, "character polynomials", False,
                           "plane polynomial degree is %d, not 2" % outcome.polynomial.degree)
        shown.append("%s = %s" % (name, outcome.polynomial))
    return _result(6, "character polynomials", True,
                   "; ".join(shown) + "; fits on levels <= 6, exact checks on 7-8; plane degree 2 = 2*1")


# ---------------------------------------------------------------------------
# 7. invariant dimensions are nondecreasing

def criterion_7(seed):
    cases = [
        ("C1", make_simple("Ck", 7, k=1), (1, 1, 1, 1, 1, 1, 1)),
        ("C2", make_simple("Ck", 7, k=2), (0, 1, 1, 1, 1, 1, 1)),
        ("C3", make_simple("Ck", 7, k=3), (0, 0, 1, 1, 1, 1, 1)),
        ("D1", make_simple("D1", 7), (1, 1, 1, 1, 1, 1, 1)),
        ("H0", arnold_module(0, 7), (1, 1, 1, 1, 1, 1, 1)),
        ("H1", arnold_module(1, 7), (0, 1, 1, 1, 1, 1, 1)),
        ("H2", arnold_module(2, 7), (0, 0, 0, 0, 0, 0, 0)),
    ]
    shown = []
    for name, module, expected in cases:
        report = monotonicity_check(module, range(1, 8))
        if report.dims != expected:
            return _result(7, "invariant monotonicity", False,
                           "%s invariant dims %r, expected %r" % (name, report.dims, expected))
        if not report.passed:
            return _result(7, "invariant monotonicity", False,
                           "%s dims %r decrease" % (name, report.dims))
        shown.append("%s: %s" % (name, " ".join(str(d) for d in report.dims)))
    return _result(7, "invariant monotonicity", True,
                   "averaged invariant dims at n = 1..7 -- " + "; ".join(shown))


# ---------------------------------------------------------------------------
# 8. replication

def criterion_8(seed):
    passing = [("C2", make_simple("Ck", 6, k=2)), ("H1", arnold_module(1, 6))]
    for name, module in passing:
        for n, m in ((2, 2), (2, 3), (3, 2)):
            report = replication_iso_check(module, n, m)
            if not report.passed:
                return _result(8, "replication", False,
                               "%s at (n=%d, m=%d): %s" % (name, n, m, report))
    control = replication_iso_check(make_simple("Ck", 6, k=3), 2, 2)
    if control.passed:
        return _result(8, "replication", False,
                       "C3 with image size 2 < 3 was not rejected")
    return _result(8, "replication", True,
                   "C2 and H1 replicate isomorphically at (2,2), (2,3), (3,2); "
                   "C3 control rejected (invariants %d -> %d)"
                   % (control.source_dim, control.target_dim))


# ---------------------------------------------------------------------------
# 9. admissible-word counting oracle

def _poincare_coefficients(n):
    """Coefficients of prod_{k=1}^{n-1} (1 + k t), computed by direct
    integer polynomial multiplication."""
    coeffs = [1]
    for k in range(1, n):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c
            nxt[j + 1] += k * c
        coeffs = nxt
    return coeffs


def criterion_9(seed):
    for n in range(1, 8):
        coeffs = _poincare_coefficients(n)
        for i in range(0, 9):
            want = coeffs[i] if i < len(coeffs) else 0
            if arnold_dim(i, n) != want:
                return _result(9, "admissible-word oracle", False,
                               "degree %d at n=%d: counted %d, product says %d"
                               % (i, n, arnold_dim(i, n), want))
    return _result(9, "admissible-word oracle", True,
                   "admissible-word counts equal the elementary-symmetric product "
                   "coefficients for all degrees, n <= 7")


# ---------------------------------------------------------------------------
# 10. determinism and file round trips

def criterion_10(seed):
    fixtures = [
        make_simple("Ck", 4, k=2),
        make_simple("D1", 4),
        make_simple("D0", 4),
        restrict(make_simple("Ck", 4, k=1), "psi"),
        arnold_module(1, 4),
        realize(one_term_complex(2), 5),
    ]
    for module in fixtures:
        text = write_module(module)
        again = write_module(read_module(text))
        if text != again:
            return _result(10, "determinism", False,
                           "module file round trip not bit-exact for %s" % module.name)
    complex_fix = conormalize(restrict(make_simple("Ck", 5, k=2), "psi"))
    ctext = write_complex(complex_fix)
    if write_complex(read_complex(ctext)) != ctext:
        return _result(10, "determinism", False, "cochain file round trip not bit-exact")
    first = str(check_functoriality(make_simple("Ck", 6, k=2), trials=400, seed=seed))
    second = str(check_functoriality(make_simple("Ck", 6, k=2), trials=400, seed=seed))
    if first != second:
        return _result(10, "determinism", False, "seeded functoriality reports differ")
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    for _ in range(10):
        if write_complex(_random_complex(rng_a)) != write_complex(_random_complex(rng_b)):
            return _result(10, "determinism", False, "seeded corpus complexes differ")
    return _result(10, "determinism", True,
                   "module and cochain files round-trip bit-exactly; seeded reports and "
                   "corpora are byte-stable (full-report determinism is asserted by "
                   "running verify twice)")


# ---------------------------------------------------------------------------

_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(seed=7):
    """Run the full battery; deterministic for a fixed seed."""
    return tuple(fn(seed) for fn in _CRITERIA)


def render_report(results, seed):
    lines = ["finsetrep acceptance report (seed %d)" % seed]
    for r in results:
        lines.append("%2d %s %s: %s" % (r.index, "PASS" if r.passed else "FAIL", r.title, r.detail))
    good = sum(1 for r in results if r.passed)
    lines.append("overall: %s (%d/%d)" % ("PASS" if good == len(results) else "FAIL", good, len(results)))
    return "\n".join(lines) + "\n"
