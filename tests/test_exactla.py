import itertools
import random
from fractions import Fraction

import pytest

from finsetrep.exactla import (
    Matrix, eliminate, format_matrix, hstack, kernel, parse_columns, parse_matrix, rank, reduce,
    solve,
)
from finsetrep.catcore import ParseError
from finsetrep.repmod import read_module, write_module
from finsetrep.simples import make_simple
from helpers import dense_rref


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix(rows, cols, [[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
                               for _ in range(rows)])


def test_reduce_examples():
    assert reduce(Matrix.identity(3))[1] == 3
    assert reduce(Matrix.zeros(2, 4))[1] == 0
    rref, rk, pivots = reduce(Matrix(2, 2, [[1, 2], [2, 4]]))
    assert rk == 1
    assert pivots == (1,)
    assert rref == Matrix(2, 2, [[1, 2], [0, 0]])


def test_reduce_idempotent_on_corpus():
    rng = random.Random(5)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rref, rk, piv = reduce(a)
        again, rk2, piv2 = reduce(rref)
        assert again == rref and rk2 == rk and piv2 == piv


def test_rank_equals_rank_of_transpose_on_corpus():
    rng = random.Random(17)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(a) == rank(a.transpose())


def test_kernel_examples():
    assert kernel(Matrix.identity(4)).cols == 0
    assert kernel(Matrix.zeros(2, 3)).cols == 3
    k = kernel(Matrix(1, 2, [[1, 1]]))
    assert k.cols == 1
    (x,), (y,) = k.data
    assert x == -y != 0


def test_kernel_annihilates_on_corpus():
    rng = random.Random(29)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        k = kernel(a)
        assert k.cols == a.cols - rank(a)
        assert (a * k).is_zero()
        assert rank(k) == k.cols


def test_solve_consistent_and_inconsistent():
    a = Matrix(2, 2, [[1, 1], [0, 1]])
    b = Matrix(2, 1, [[3], [1]])
    x = solve(a, b)
    assert a * x == b
    bad = Matrix(2, 1, [[1], [2]])
    assert solve(Matrix(2, 1, [[1], [1]]), bad) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    a = Matrix(1, 2, [[1, 1]])
    b = Matrix(1, 1, [[5]])
    x = solve(a, b)
    assert a * x == b
    assert x.data[1][0] == 0


def _oracle_matrix(rng, kind):
    """A random matrix of one of four kinds, with 0 to 6 rows and columns."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    if kind == "sparse":      # mostly zeros, so zero rows and columns are common
        entry = lambda: rng.choice((0, 0, 0, 1, -1, 2))
    elif kind == "fraction":
        entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    else:
        entry = lambda: rng.randint(-3, 3)
    if kind == "deficient" and rows and cols:  # a product through a narrower middle
        mid = rng.randint(0, min(rows, cols) - 1)
        left = Matrix(rows, mid, [[entry() for _ in range(mid)] for _ in range(rows)])
        return left * Matrix(mid, cols, [[entry() for _ in range(cols)] for _ in range(mid)])
    return Matrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def _oracle_kernel(a):
    rref, _, pivots = dense_rref(a)
    free = [f for f in range(a.cols) if f + 1 not in pivots]
    data = [[0] * len(free) for _ in range(a.cols)]
    for k, f in enumerate(free):
        data[f][k] = 1
        for p, row in zip(pivots, rref.data):
            data[p - 1][k] = -row[f]
    return Matrix(a.cols, len(free), data)


def _oracle_solve(a, b):
    rref, _, pivots = dense_rref(hstack([a, b]))
    if any(p > a.cols for p in pivots):
        return None
    data = [[0] * b.cols for _ in range(a.cols)]
    for row, p in zip(rref.data, pivots):
        data[p - 1] = row[a.cols:]
    return Matrix(a.cols, b.cols, data)


def test_elimination_matches_the_dense_oracle():
    rng = random.Random(0)
    seen = set()
    for case in range(500):
        a = _oracle_matrix(rng, ("integer", "sparse", "fraction", "deficient")[case % 4])
        rref, rk, pivots = dense_rref(a)
        assert reduce(a) == (rref, rk, pivots), a
        assert rank(a) == rk
        assert kernel(a) == _oracle_kernel(a), a
        x0 = Matrix(a.cols, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(a.cols)])
        noise = Matrix(a.rows, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(a.rows)])
        assert solve(a, a * x0) == _oracle_solve(a, a * x0) is not None
        assert solve(a, noise) == _oracle_solve(a, noise), (a, noise)
        if solve(a, noise) is None:
            seen.add("inconsistent")
        # what this case covers: the first row to be eliminated gives the
        # first pivot, its lowest nonzero entry
        if not a.rows:
            seen.add("0 x n")
        if not a.cols:
            seen.add("n x 0")
        lead = next((next(x for x in row if x) for row in a.data if any(row)), None)
        if lead is not None and lead.denominator != 1:
            seen.add("fraction pivot")
        elif lead is not None and abs(lead) != 1:
            seen.add("non-unit pivot")
        if any(not any(row) for row in a.data):
            seen.add("zero row")
        if rk < min(a.shape):
            seen.add("rank deficient")
    assert seen == {"0 x n", "n x 0", "fraction pivot", "non-unit pivot", "zero row",
                     "rank deficient", "inconsistent"}


def test_coefficients_stay_integers_until_a_pivot_divides():
    # rows of a directed incidence matrix, such as those of ``tau - 1`` for a
    # permutation ``tau``: totally unimodular, so every pivot is 1 or -1
    rng = random.Random(0)
    for _ in range(50):
        edges = [rng.sample(range(8), 2) for _ in range(rng.randint(1, 12))]
        echelon = eliminate({u: 1, v: -1} for u, v in edges)
        assert all(type(x) is int for _, row in echelon for x in row.values())
        assert all(row[p] == 1 and min(row) == p for p, row in echelon)
    # a pivot that divides leaves integral quotients as ints
    ((_, row),) = eliminate([{0: 2, 1: 4, 2: 3}])
    assert row == {0: 1, 1: 2, 2: Fraction(3, 2)} and type(row[1]) is int


def test_matrix_arithmetic_and_empty_shapes():
    a = Matrix(2, 3, [[1, 0, 2], [0, 1, -1]])
    assert not a.is_zero() and Matrix.zeros(2, 3).is_zero()
    assert a * Matrix.identity(3) == a
    empty = Matrix.zeros(0, 3)
    assert (empty * a.transpose()).shape == (0, 2)
    wide = Matrix.zeros(2, 0)
    assert (wide * Matrix.zeros(0, 5)) == Matrix.zeros(2, 5)
    assert hstack([a, a]).shape == (2, 6)


def test_entries_stay_in_lowest_terms():
    a = Matrix(1, 1, [[Fraction(2, 4)]])
    assert a.data[0][0].numerator == 1 and a.data[0][0].denominator == 2


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        text = format_matrix(a)
        lines = text.split("\n") if a.rows else []
        assert parse_matrix(lines, a.rows, a.cols) == a
    assert format_matrix(Matrix(1, 2, [[Fraction(1, 2), 3]])) == "1/2 3"


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix(["1 2", "3"], 2, 2)
    with pytest.raises(ValueError):
        parse_matrix(["1 x"], 1, 2)


# every token parse_matrix and the module reader accept must read as
# Fraction(token), and every token they reject must be one Fraction rejects
MATRIX_TOKENS = ("0", "1", "-3", "+4", "-0", "007", "1/2", "-6/4", "1.5", "1e2",
                 "1_0", "0/0", "x", "-", "+", "+-3", "1/", "²", "٣", "-٣", "１")

# an N-module with one elementary block, coface 0 1 (line 5), of shape 1 x 2
ONE_BLOCK_MODULE = "catmod/1\ncategory N\nmax_level 1\ndims 2 1\ncoface 0 1\n%s\n"


@pytest.mark.parametrize("tok", MATRIX_TOKENS)
def test_parse_matrix_reads_tokens_as_fraction_does(tok):
    try:
        expected = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        message = "matrix row 1, entry 2: bad rational %r" % tok
        with pytest.raises(ValueError) as info:
            parse_matrix(["0 " + tok], 1, 2)
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            read_module(ONE_BLOCK_MODULE % ("0 " + tok))
        assert str(info.value) == "block ('coface', 0, 1): %s (at line 5)" % message
        return
    got = parse_matrix([tok + " " + tok], 1, 2)
    assert got.data == ((expected, expected),)
    assert all(type(x) is Fraction for x in got.data[0])
    entry = ((0, expected),) if expected else ()
    for block in (parse_columns([tok + " " + tok], 1, 2),
                  read_module(ONE_BLOCK_MODULE % (tok + " " + tok))._elementary["coface", 0, 1]):
        assert block == (entry, entry)
        assert all(type(c) is (int if expected.denominator == 1 else Fraction) for col in block for _, c in col)


def test_module_entries_read_and_write_canonically():
    canonical = write_module(make_simple("Ck", 3, k=2))
    spellings = {"0": ("-0", "0/7"), "1": ("+1", "2/2", "001")}
    for zero, one in itertools.product(spellings["0"], spellings["1"]):
        lines = canonical.splitlines()
        respelled = [line if line[:1].isalpha() else " ".join(
            {"0": zero, "1": one}[tok] for tok in line.split()) for line in lines]
        assert respelled != lines
        again = read_module("\n".join(respelled) + "\n")
        assert again._elementary == read_module(canonical)._elementary
        assert write_module(again) == canonical
    # an entry 2/3 spelled 4/6 and 007 spelled with leading zeros
    V = read_module(ONE_BLOCK_MODULE % "4/6 007")
    assert V._elementary["coface", 0, 1] == (((0, Fraction(2, 3)),), ((0, 7),))
    assert write_module(V) == ONE_BLOCK_MODULE % "2/3 7"
