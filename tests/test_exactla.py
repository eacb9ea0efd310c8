import itertools
import random
from fractions import Fraction

import pytest

from finsetrep.exactla import (
    Matrix, format_matrix, hstack, kernel, parse_columns, parse_matrix, rank, reduce, solve,
)
from finsetrep.catcore import ParseError
from finsetrep.repmod import read_module, write_module
from finsetrep.simples import make_simple


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
