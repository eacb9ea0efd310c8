import gc
import random
from fractions import Fraction
from math import comb

import pytest

from finsetrep.arnold import (
    OSElement, _straighten, admissible_basis, arnold_dim, arnold_module,
    format_word, straighten,
)
from finsetrep.catcore import F, SetMap, enumerate_hom, random_mor
from finsetrep.chars import fit_dimension_polynomial
from finsetrep.exactla import Matrix, ZERO
from finsetrep.repmod import CatModule, check_functoriality, restrict
from finsetrep.simples import descends_through_phi


def poincare_coefficients(n):
    """Independent oracle: expand prod_{k=1}^{n-1} (1 + k t) over the integers."""
    coeffs = [1]
    for k in range(1, n):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c
            nxt[j + 1] += k * c
        coeffs = nxt
    return coeffs


def element_vector(element, n, degree):
    basis = admissible_basis(n, degree)
    index = {w: i for i, w in enumerate(basis)}
    vec = [ZERO] * len(basis)
    for word, coeff in element.terms:
        vec[index[word]] = coeff
    return Matrix(len(basis), 1, [[x] for x in vec])


# -- straightening ----------------------------------------------------------------

def test_square_zero():
    assert straighten([(1, 2), (1, 2)], 3).terms == ()


def test_anticommutativity_reorders_by_larger_index():
    e = straighten([(1, 3), (1, 2)], 3)
    assert dict(e.terms) == {((1, 2), (1, 3)): Fraction(-1)}


def test_three_term_rewrite():
    e = straighten([(1, 3), (2, 3)], 3)
    assert dict(e.terms) == {((1, 2), (2, 3)): Fraction(1), ((1, 2), (1, 3)): Fraction(-1)}


def test_symmetry_of_generators():
    assert straighten([(2, 1)], 3).terms == straighten([(1, 2)], 3).terms


def test_straighten_idempotent_on_basis_words():
    for n in (3, 4, 5):
        for degree in (1, 2, 3):
            for word in admissible_basis(n, degree):
                e = straighten(list(word), n)
                assert dict(e.terms) == {word: Fraction(1)}


def test_straighten_validates_input():
    with pytest.raises(ValueError):
        straighten([(2, 2)], 3)
    with pytest.raises(ValueError):
        straighten([(1, 4)], 3)


def test_three_term_relation_holds_after_straightening():
    # w(a,b)w(b,c) + w(b,c)w(c,a) + w(c,a)w(a,b) = 0
    for (a, b, c) in ((1, 2, 3), (2, 4, 1), (3, 1, 4)):
        acc = {}
        for pair in ((a, b), (b, c)), ((b, c), (c, a)), ((c, a), (a, b)):
            for word, coeff in straighten(list(pair), 4).terms:
                acc[word] = acc.get(word, Fraction(0)) + coeff
        assert all(v == 0 for v in acc.values())


# -- counting -----------------------------------------------------------------------

def test_dimension_examples():
    assert arnold_dim(1, 3) == 3
    assert arnold_dim(2, 4) == 11
    assert all(arnold_dim(i, n) == 0 for n in range(1, 5) for i in range(n, n + 3))


def test_dimensions_match_product_oracle():
    for n in range(1, 8):
        coeffs = poincare_coefficients(n)
        for i in range(0, 9):
            want = coeffs[i] if i < len(coeffs) else 0
            assert arnold_dim(i, n) == want


def test_dimension_polynomiality_degree_2i():
    for i in (1, 2):
        seq = [arnold_dim(i, n) for n in range(1, 4 * i + 4)]
        out = fit_dimension_polynomial(seq, 2 * i)
        assert out.ok and out.polynomial.degree == 2 * i


# -- the module -----------------------------------------------------------------------

def test_module_dims_and_degree_zero():
    H0 = arnold_module(0, 5)
    assert H0.dims == (1, 1, 1, 1, 1, 1)
    H1 = arnold_module(1, 5)
    assert H1.dims == (0, 0, 1, 3, 6, 10)


def test_generator_action_examples():
    H1 = arnold_module(1, 4)
    mat = H1.act(SetMap(2, 3, (2, 3)))
    basis3 = admissible_basis(3, 1)
    assert mat.data[basis3.index(((2, 3),))][0] == 1
    assert sum(1 for row in mat.data if row[0]) == 1
    assert H1.act(SetMap(2, 1, (1, 1))).is_zero()


def test_functoriality_exhaustive_sizes_4():
    for i in (0, 1, 2):
        report = check_functoriality(arnold_module(i, 4), trials=200_000, seed=0)
        assert report.passed and report.exhaustive


def test_functoriality_sampled_sizes_6():
    for i in (0, 1, 2):
        report = check_functoriality(arnold_module(i, 6), trials=500, seed=9)
        assert report.passed


def test_ring_map_property_on_seeded_products():
    rng = random.Random(41)
    H = {d: arnold_module(d, 5) for d in (1, 2, 3, 4)}
    for _ in range(100):
        m = rng.randint(2, 5)
        n = rng.randint(1, 5)
        f = random_mor(F, m, n, rng)
        deg_x = rng.randint(1, 2)
        deg_y = rng.randint(1, 2)
        def random_word(degree):
            word = []
            for _ in range(degree):
                a = rng.randint(1, m)
                b = rng.randint(1, m - 1)
                if b >= a:
                    b += 1
                word.append((a, b))
            return word
        x = random_word(deg_x)
        y = random_word(deg_y)
        product = straighten(x + y, m)
        lhs = H[deg_x + deg_y].act(f) * element_vector(product, m, deg_x + deg_y)
        image_pairs = []
        dead = False
        for a, b in x + y:
            fa, fb = f.values[a - 1], f.values[b - 1]
            if fa == fb:
                dead = True
                break
            image_pairs.append((fa, fb))
        rhs = element_vector(straighten(image_pairs, n), n, deg_x + deg_y) if not dead \
            else Matrix.zeros(arnold_dim(deg_x + deg_y, n), 1)
        assert lhs == rhs


def test_restriction_descends_through_forget():
    for i in (0, 1, 2):
        report = descends_through_phi(restrict(arnold_module(i, 4), "phi"), 4)
        assert report.passed


def test_os_element_formatting():
    e = straighten([(1, 3), (2, 3)], 3)
    assert str(e) == "-1 * w(1,2)w(1,3) + 1 * w(1,2)w(2,3)"
    assert format_word(()) == "1"
    assert isinstance(e, OSElement)


# -- the per-module memo of straightened image words --------------------------------

def fresh_columns(degree, f):
    """Columns of ``f`` on the degree-``degree`` module, every image word
    straightened anew: the reference for the memoized rule."""
    index = {w: i for i, w in enumerate(admissible_basis(f.cod, degree))}
    cols = []
    for word in admissible_basis(f.dom, degree):
        image = [(f.values[a - 1], f.values[b - 1]) for a, b in word]
        if any(x == y for x, y in image):
            cols.append(())
            continue
        image = tuple((min(x, y), max(x, y)) for x, y in image)
        cols.append(tuple(sorted((index[w], c) for w, c in _straighten(image).items())))
    return tuple(cols)


def memo_sizes(V):
    return {key[1]: len(words) for key, words in V.memo.items() if key[0] == "arnold"}


def test_memoized_columns_equal_fresh_straightening():
    for i in (0, 1, 2):
        V = arnold_module(i, 4)
        # two sweeps over every morphism: levels interleave, and the second
        # sweep is served from the memo alone
        for _ in range(2):
            for m in range(5):
                for n in range(5):
                    for f in enumerate_hom(F, m, n):
                        assert V.columns(f) == fresh_columns(i, f), (i, f)


def test_memo_is_bounded_by_the_word_count():
    # one entry per sequence of i factors w(a,b), a < b, on the target level
    for i, top in ((0, 4), (1, 4), (2, 4), (1, 6), (2, 7)):
        V = arnold_module(i, top)
        sizes = memo_sizes(V)
        assert all(sizes.get(n, 0) <= comb(n, 2) ** i for n in range(top + 1)), sizes
        if top == 4:
            for m in range(5):
                for n in range(5):
                    for f in enumerate_hom(F, m, n):
                        V.columns(f)
            # every morphism up to level 4 reaches every word, and no more
            assert memo_sizes(V) == {n: comb(n, 2) ** i for n in range(5)}
    assert sum(memo_sizes(arnold_module(2, 7)).values()) <= sum(comb(n, 2) ** 2 for n in range(8))


def test_memo_is_freed_with_the_module():
    def live():
        return sum(1 for o in gc.get_objects() if type(o) is CatModule)

    gc.collect()
    before = live()
    for _ in range(50):
        V = arnold_module(2, 4)
        V.columns(SetMap(4, 4, (2, 1, 4, 3)))
    del V
    gc.collect()
    assert live() == before


def test_certificates_unchanged_by_the_memo():
    V = arnold_module(2, 6)
    assert str(check_functoriality(V)) == "functoriality ok (500 pairs, sampled)"
    assert str(check_functoriality(V, trials=300, seed=0)) == "functoriality ok (300 pairs, sampled)"
    assert str(check_functoriality(V, trials=2000, seed=5)) == "functoriality ok (2000 pairs, sampled)"
