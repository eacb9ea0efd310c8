from fractions import Fraction

import pytest

from finsetrep.chars import (
    BinomialPolynomial, CharacterPolynomial, character, cycle_counts,
    fit_character_polynomial, fit_dimension_polynomial, monomial_keys,
    partitions_of, permutation_of_type,
)
from finsetrep.arnold import arnold_module
from finsetrep.repmod import permutation_action
from finsetrep.simples import make_simple
from finsetrep.exactla import ZERO


def trace_of(V, values):
    total = ZERO
    for j, col in enumerate(permutation_action(V, values)):
        for r, c in col:
            if r == j:
                total += c
    return total


def test_partitions_enumeration():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(1) == ((1,),)


def test_permutation_of_type_has_right_cycle_type():
    values = permutation_of_type((3, 2, 1))
    assert sorted(values) == [1, 2, 3, 4, 5, 6]
    # cycle structure: follow orbits
    seen = set()
    sizes = []
    for start in range(1, 7):
        if start in seen:
            continue
        size = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = values[x - 1]
            size += 1
        sizes.append(size)
    assert sorted(sizes, reverse=True) == [3, 2, 1]


def test_character_of_c1_counts_fixed_points():
    C1 = make_simple("Ck", 5, k=1)
    ch = character(C1, 3)
    assert ch[(1, 1, 1)] == 3
    assert ch[(2, 1)] == 1
    assert ch[(3,)] == 0


def test_character_of_d1_is_constant_one():
    D1 = make_simple("D1", 6)
    for n in (2, 4, 6):
        assert set(character(D1, n).values()) == {Fraction(1)}


def test_character_at_identity_is_dimension():
    for module in (make_simple("Ck", 6, k=2), arnold_module(1, 6)):
        for n in range(1, 7):
            ch = character(module, n)
            assert ch[(1,) * n] == module.dims[n]


def test_class_constancy_two_representatives():
    fixtures = (make_simple("Ck", 6, k=2), make_simple("Ck", 6, k=3), arnold_module(1, 6))
    for module in fixtures:
        for n in range(1, 7):
            for lam in partitions_of(n):
                a = trace_of(module, permutation_of_type(lam))
                b = trace_of(module, permutation_of_type(lam, variant=1))
                assert a == b, (module.name, n, lam)


def test_evaluate_charpoly_examples():
    x1 = CharacterPolynomial.from_dict({((1, 1),): Fraction(1)})
    assert x1.evaluate((1, 1, 1)) == 3
    x2 = CharacterPolynomial.from_dict({((2, 1),): Fraction(1)})
    assert x2.evaluate((3,)) == 0
    p = CharacterPolynomial.from_dict({((1, 2),): Fraction(1), ((2, 1),): Fraction(1)})
    assert p.evaluate((2, 1)) == 1
    assert str(p) == "C(X1,2) + X2"


def test_monomial_keys_degree_bound():
    keys = monomial_keys(2)
    assert () in keys
    assert ((1, 1),) in keys and ((1, 2),) in keys and ((2, 1),) in keys
    assert all(sum(j * m for j, m in key) <= 2 for key in keys)


def test_fit_character_polynomials_on_fixtures():
    C1 = make_simple("Ck", 6, k=1)
    out = fit_character_polynomial(C1, 1, range(1, 5), (5, 6))
    assert out.ok and str(out.polynomial) == "X1"
    C2 = make_simple("Ck", 7, k=2)
    out = fit_character_polynomial(C2, 2, range(1, 6), (6, 7))
    assert out.ok and str(out.polynomial) == "C(X1,2) + X2"
    D1 = make_simple("D1", 6)
    out = fit_character_polynomial(D1, 0, range(1, 4), range(4, 7))
    assert out.ok and str(out.polynomial) == "1"


def test_fit_reports_inconsistency_with_witness():
    C2 = make_simple("Ck", 5, k=2)
    out = fit_character_polynomial(C2, 1, range(1, 5), (5,))
    assert not out.ok
    level, lam = out.witness
    assert level in range(1, 5) and sum(lam) == level


# (module, degree, fit levels, test levels) -> the fit's text.  A fit-side
# witness is the first (level, class) equation, in that order, that
# contradicts the ones before it; the C2 (1, 2) and C1 () cases fail on the
# test levels, and the last two fits succeed
FIT_OUTCOMES = (
    (("Ck", 5, 2), 1, range(1, 5), (5,), "inconsistent at (2, (1, 1))"),
    (("Ck", 5, 2), 0, range(1, 5), (5,), "inconsistent at (2, (2,))"),
    (("Ck", 6, 3), 2, range(1, 6), (6,), "inconsistent at (3, (2, 1))"),
    (("H", 6, 1), 1, range(1, 6), (6,), "inconsistent at (2, (1, 1))"),
    (("Ck", 5, 2), 2, (1, 2), range(3, 6), "inconsistent at (3, (3,))"),
    (("Ck", 6, 3), 2, (4, 5), (6,), "inconsistent at (5, (4, 1))"),
    (("Ck", 4, 1), 1, (), (1, 2), "inconsistent at (1, (1,))"),
    (("H", 6, 1), 2, range(1, 4), range(4, 7), "C(X1,2) + X2"),
    (("Ck", 6, 3), 3, range(1, 5), range(5, 7), "X1*X2 + C(X1,3) + X3"),
)


@pytest.mark.parametrize("module,d,fit,test,text", FIT_OUTCOMES)
def test_fit_names_the_first_contradicting_equation(module, d, fit, test, text):
    which, max_level, k = module
    V = arnold_module(k, max_level) if which == "H" else make_simple(which, max_level, k=k)
    out = fit_character_polynomial(V, d, fit, test)
    assert str(out) == text
    assert out.ok == (not text.startswith("inconsistent"))


def test_fit_rejects_overlapping_levels():
    C1 = make_simple("Ck", 4, k=1)
    with pytest.raises(ValueError):
        fit_character_polynomial(C1, 1, (1, 2), (2, 3))


def test_fit_dimension_polynomial_examples():
    out = fit_dimension_polynomial([n * (n - 1) // 2 for n in range(1, 9)], 2)
    assert out.ok
    for n in range(1, 9):
        assert out.polynomial.evaluate(n) == n * (n - 1) // 2
    out = fit_dimension_polynomial([2 ** n for n in range(1, 9)], 3)
    assert not out.ok and out.witness == 5
    with pytest.raises(ValueError):
        fit_dimension_polynomial([1, 2, 3], 2)


def test_specialization_at_identity_matches_dimension_fit():
    # evaluating the character polynomial on the identity class recovers the
    # dimension polynomial values
    C2 = make_simple("Ck", 7, k=2)
    char_fit = fit_character_polynomial(C2, 2, range(1, 6), (6, 7))
    dims_fit = fit_dimension_polynomial([C2.dims[n] for n in range(1, 8)], 2)
    assert char_fit.ok and dims_fit.ok
    for n in range(1, 10):
        identity_class = (1,) * n
        assert char_fit.polynomial.evaluate(identity_class) == dims_fit.polynomial.evaluate(n)


def test_binomial_polynomial_str_and_degree():
    poly = BinomialPolynomial((Fraction(0), Fraction(1), Fraction(1)))
    assert poly.degree == 2
    assert "C(n-1,2)" in str(poly)
    assert cycle_counts((2, 2, 1)) == {2: 2, 1: 1}
