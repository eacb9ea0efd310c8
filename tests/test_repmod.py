import functools
import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from finsetrep import repmod, simples
from finsetrep.arnold import arnold_module
from finsetrep.catcore import (
    DELTA, F, FI, N, SetMap, compose_in, enumerate_hom, factorize, forget, format_mor,
    hom_count, identity_n, injection_chain, lift, permutation_chain, surjection_chain,
)
from finsetrep.doldkan import CochainComplex, realize
from finsetrep.exactla import Matrix, format_matrix, solve
from finsetrep.repmod import (
    CatModule, FunctorialityError, FunctorialityReport, _identity_mor,
    check_functoriality, check_relations, compose_columns, direct_sum,
    elementary_keys, elementary_morphism, elementary_shape, from_elementary,
    generation_degree, identity_columns, read_module, restrict,
    to_elementary, write_module,
)
from finsetrep.simples import descends_through_phi, make_simple, order_sign_module
from helpers import (
    dense_blocks, descent_walk, sampled_walk, sparse_blocks, tensor_t2_module,
)


def injective_pushforward_module(max_level, k):
    """k-subset pushforward on injections only: a small FI fixture."""
    import itertools
    from math import comb
    bases = {n: tuple(itertools.combinations(range(1, n + 1), k)) for n in range(max_level + 1)}
    index = {n: {s: i for i, s in enumerate(bases[n])} for n in bases}

    def columns(f):
        tgt = index[f.cod]
        out = []
        for subset in bases[f.dom]:
            image = tuple(sorted(f.values[x - 1] for x in subset))
            out.append(((tgt[image], Fraction(1)),))
        return out

    dims = tuple(comb(n, k) for n in range(max_level + 1))
    return CatModule(FI, max_level, dims, columns=columns, name="fi-subsets")


# -- act ----------------------------------------------------------------------

def test_act_identity_is_identity():
    C2 = make_simple("Ck", 5, k=2)
    for n in range(6):
        assert C2.act(identity_n(n)) == Matrix.identity(C2.dims[n])


def test_act_subset_pushforward():
    C2 = make_simple("Ck", 4, k=2)
    f = lift(SetMap(2, 3, (1, 3)))
    mat = C2.act(f)
    # basis of level 3 is {1,2} < {1,3} < {2,3}; the image {1,3} sits in row 2
    assert mat == Matrix(3, 1, [[0], [1], [0]])


def test_act_collapse_kills_subsets():
    C2 = make_simple("Ck", 4, k=2)
    f = lift(SetMap(2, 1, (1, 1)))
    assert C2.act(f).is_zero()


def test_act_rejects_wrong_category_and_levels():
    C2 = make_simple("Ck", 3, k=2)
    with pytest.raises(ValueError):
        C2.act(SetMap(2, 2, (1, 2)))
    with pytest.raises(ValueError):
        C2.act(identity_n(4))


# -- functoriality certification ------------------------------------------------

def test_check_functoriality_sampled_pass():
    C2 = make_simple("Ck", 6, k=2)
    report = check_functoriality(C2, trials=500, seed=2)
    assert report.passed and not report.exhaustive and report.pairs_checked == 500


def test_check_functoriality_exhaustive_small():
    D0 = make_simple("D0", 3)
    C1 = make_simple("Ck", 3, k=1)
    for module in (D0, C1):
        # few enough composable pairs at this size to exhaust them all
        report = check_functoriality(module, trials=10_000, seed=0)
        assert report.passed and report.exhaustive


def test_check_functoriality_exhaustive_sizes_4_deep():
    for module in (make_simple("Ck", 4, k=2), make_simple("D1", 4)):
        report = check_functoriality(module, trials=2_000_000, seed=0)
        assert report.passed and report.exhaustive and report.pairs_checked == 1_421_865


def test_corrupted_backend_fails_with_counterexample():
    mats = dense_blocks(make_simple("Ck", 4, k=2))
    key = ("coface", 2, 1)
    rows = [list(row) for row in mats[key].data]
    rows[0][0] += 7
    mats[key] = Matrix(len(rows), len(rows[0]), rows)
    corrupted = from_elementary(N, 4, make_simple("Ck", 4, k=2).dims, sparse_blocks(mats),
                                name="corrupted")
    report = check_functoriality(corrupted, trials=10_000, seed=0)
    assert not report.passed
    assert report.counterexample is not None


# -- elementary backends ---------------------------------------------------------

def test_elementary_backend_matches_rule_on_all_small_morphisms():
    rule = make_simple("Ck", 4, k=2)
    elem = from_elementary(N, 4, rule.dims, to_elementary(rule))
    for m in range(5):
        for n in range(5):
            for f in enumerate_hom(N, m, n):
                assert elem.act(f) == rule.act(f)


@pytest.mark.parametrize("block,message", [
    ((((1, 1),), ()), "block ('coface', 1, 1) has 2 columns, expected 1"),
    ((), "block ('coface', 1, 1) has 0 columns, expected 1"),
    ((((2, 1),),), "block ('coface', 1, 1): column entry out of range"),
    ((((-1, 1),),), "block ('coface', 1, 1): column entry out of range"),
    ((((1, 1), (1, 2)),), "block ('coface', 1, 1): column repeats a row"),
], ids=["extra column", "no column", "row past the end", "negative row", "repeated row"])
def test_from_elementary_refuses_malformed_sparse_blocks(block, message):
    C1 = make_simple("Ck", 2, k=1)          # dims (0, 1, 2); coface 1 1 is 2 x 1
    blocks = to_elementary(C1)
    blocks["coface", 1, 1] = block
    with pytest.raises(ValueError) as info:
        from_elementary(N, 2, C1.dims, blocks)
    assert str(info.value) == message


def test_from_elementary_normalizes_sparse_blocks():
    C1 = make_simple("Ck", 2, k=1)
    blocks = to_elementary(C1)
    assert blocks["coface", 1, 1] == (((1, 1),),)
    blocks["coface", 1, 1] = [[(1, Fraction(2, 2)), (0, 0)]]
    V = from_elementary(N, 2, C1.dims, blocks)
    assert V._elementary["coface", 1, 1] == (((1, 1),),)
    assert type(V._elementary["coface", 1, 1][0][0][1]) is int
    assert write_module(V) == write_module(C1)
    # a rule column that names a row twice is refused as well
    W = CatModule(N, 1, (0, 2), columns=lambda f: [((0, 1), (0, 1)), ()])
    with pytest.raises(ValueError, match="repeats a row"):
        W.columns(identity_n(1))


def chain_keys(category, f):
    """Elementary keys whose composite is ``f``, outermost first: the chains
    of the canonical factorization of ``f``."""
    if category is DELTA:
        sm = f.map
        image = sorted(set(sm.values))
        surj = SetMap(sm.dom, len(image), tuple(image.index(v) + 1 for v in sm.values))
        inj = SetMap(len(image), sm.cod, tuple(image))
        return [("coface", n, i) for n, i in injection_chain(inj)] + \
            [("codegen", n, i) for n, i in surjection_chain(surj)]
    nm = f if category is N else lift(f)
    sigma, pi, iota = factorize(nm)
    return [("coface", n, i) for n, i in injection_chain(iota.map)] + \
        [("codegen", n, i) for n, i in surjection_chain(pi.map)] + \
        [("transp", n, i) for n, i in permutation_chain(sigma.map.values)]


def dense_chain_product(category, dims, mats, f):
    """``act(f)`` as the identity-seeded product of the dense elementary
    matrices along the canonical factorization of ``f``: the reference the
    sparse evaluation must reproduce."""
    out = Matrix.identity(dims[f.dom])
    for key in reversed(chain_keys(category, f)):
        out = mats[key] * out
    return out


def chain_fold_columns(V, f, keys):
    """Columns of the elementary module ``V`` on ``f`` as the fold of its
    blocks along ``keys = chain_keys(V.category, f)``, one morphism at a
    time: the reference the shared factor tables must reproduce."""
    cols = None
    for key in reversed(keys):
        block = V._elementary[key]
        cols = block if cols is None else compose_columns(block, cols)
    return identity_columns(V.dims[f.dom]) if cols is None else cols


def _cochain_fixture():
    """``Q -> Q^2 -> Q``, with differentials ``(1, 2)`` and ``(2, -1)``."""
    return CochainComplex(2, (1, 2, 1), [Matrix(2, 1, [[1], [2]]), Matrix(1, 2, [[2, -1]])])


def _conjugated(V):
    """Elementary matrices of ``V`` with every second basis vector of each
    level doubled and the second added to the first: the entries become a
    mix of integers and halves, and some columns gain a second entry."""
    change = {n: Matrix(d, d, [[(2 if i % 2 else 1) if i == j else int((i, j) == (0, 1))
                                for j in range(d)] for i in range(d)])
              for n, d in enumerate(V.dims)}
    undo = {n: solve(c, Matrix.identity(c.rows)) for n, c in change.items()}
    ends = {"coface": lambda n: (n + 1, n), "codegen": lambda n: (n, n + 1),
            "transp": lambda n: (n, n)}
    mats = {}
    for key, m in dense_blocks(V).items():
        cod, dom = ends[key[0]](key[1])
        mats[key] = change[cod] * m * undo[dom]
    return mats


def _evaluation_fixtures():
    rules = {
        "C1": make_simple("Ck", 4, k=1),
        "C2": make_simple("Ck", 4, k=2),
        "C3": make_simple("Ck", 4, k=3),
        "D1": make_simple("D1", 4),
        "H0": arnold_module(0, 4),
        "H1": arnold_module(1, 4),
        "H2": arnold_module(2, 4),
        "realize": realize(_cochain_fixture(), 4),
    }
    out = []
    for name, V in rules.items():
        mats = dense_blocks(V)
        elem = from_elementary(V.category, 4, V.dims, sparse_blocks(mats), name="elementary " + name)
        out.append((name, V.category, V.dims, mats, [V, elem]))
    C2 = rules["C2"]
    mats = _conjugated(C2)
    elem = from_elementary(N, 4, C2.dims, sparse_blocks(mats), name="conjugated C2")
    out.append(("conjugated C2", N, C2.dims, mats, [elem]))
    return out


EVALUATION_FIXTURES = _evaluation_fixtures()


def _canonical(coeff):
    return type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)


@pytest.mark.parametrize("name,cat,dims,mats,modules", EVALUATION_FIXTURES,
                         ids=[fx[0] for fx in EVALUATION_FIXTURES])
def test_sparse_evaluation_matches_dense_chain_product(name, cat, dims, mats, modules):
    lo = 1 if cat is DELTA else 0
    fractional = False
    for m in range(lo, 5):
        for n in range(lo, 5):
            for f in enumerate_hom(cat, m, n):
                expected = dense_chain_product(cat, dims, mats, f)
                for V in modules:
                    cols = V.columns(f)
                    assert len(cols) == dims[m]
                    assert all(_canonical(c) for col in cols for _, c in col), (V.name, format_mor(f))
                    assert Matrix(dims[n], dims[m],
                                  [[dict(col).get(r, 0) for col in cols] for r in range(dims[n])]
                                  ) == expected, (V.name, format_mor(f))
                    mat = V.act(f)
                    assert mat == expected, (V.name, format_mor(f))
                    assert all(type(x) is Fraction for row in mat.data for x in row)
                    fractional |= any(type(c) is Fraction for col in cols for _, c in col)
    assert fractional == (name == "conjugated C2")


def test_columns_coefficients_are_never_float():
    # a rule may hand back any exact number type; none survives as a float
    V = CatModule(N, 2, (1, 1, 1), columns=lambda f: (((0, 1.5 if f.dom == f.cod else 2.0),),))
    f = lift(SetMap(1, 2, (1,)))
    assert V.columns(identity_n(1)) == (((0, Fraction(3, 2)),),)
    assert V.columns(f) == (((0, 2),),) and type(V.columns(f)[0][0][1]) is int
    assert all(type(x) is Fraction for row in V.act(f).data for x in row)


@pytest.mark.parametrize("col,ok", [
    (((2, 1), (0, 5)), True),
    (((0, Fraction(1, 2)),), True),
    ((), True),
    (((3, 0), (1, 2)), True),       # zero entries are dropped before the check
    (((3, 1),), False),
    (((-1, 1),), False),
    (((1, 1), (3, 1)), False),
    (((2, 1), (-1, 1), (0, 1)), False),
])
def test_rule_column_rows_are_range_checked(col, ok):
    V = CatModule(N, 1, (0, 3), columns=lambda f: [col, (), ()])
    if ok:
        assert V.columns(identity_n(1)) == (tuple(sorted((r, c) for r, c in col if c)), (), ())
    else:
        with pytest.raises(ValueError, match="out of range"):
            V.columns(identity_n(1))


def _single_entry_corruptions(V):
    """``(key, W)`` for each nonempty elementary block of ``V``, in file
    order: ``W`` is ``V`` as an elementary module with 1 added to entry
    (1, 1) of that block."""
    mats = dense_blocks(V)
    for key in elementary_keys(V.category, V.max_level):
        if not mats[key].rows or not mats[key].cols:
            continue
        rows = [list(row) for row in mats[key].data]
        rows[0][0] += 1
        bad = dict(mats)
        bad[key] = Matrix(len(rows), len(rows[0]), rows)
        yield key, from_elementary(V.category, V.max_level, V.dims, sparse_blocks(bad))


# (module, corrupted block): (pairs checked, counterexample (f, g)) after
# adding 1 to entry (1, 1) of the block, as recorded when elementary modules
# were evaluated by dense_chain_product
CORRUPTION_VERDICTS = {
    # C2@3 dims (0, 0, 1, 3)
    ('C2@3', ('coface', 2, 1)): (744, ('2->3: 2,3 | orders: 1:(); 2:(1); 3:(2)', '3->2: 1,2,1 | orders: 1:(1,3); 2:(2)')),
    ('C2@3', ('coface', 2, 2)): (740, ('2->3: 1,3 | orders: 1:(1); 2:(); 3:(2)', '3->2: 1,2,1 | orders: 1:(1,3); 2:(2)')),
    ('C2@3', ('coface', 2, 3)): (739, ('2->3: 1,2 | orders: 1:(1); 2:(2); 3:()', '3->2: 1,2,1 | orders: 1:(1,3); 2:(2)')),
    ('C2@3', ('codegen', 2, 1)): (715, ('2->3: 1,2 | orders: 1:(1); 2:(2); 3:()', '3->2: 1,1,2 | orders: 1:(1,2); 2:(3)')),
    ('C2@3', ('codegen', 2, 2)): (763, ('2->3: 1,2 | orders: 1:(1); 2:(2); 3:()', '3->2: 1,2,2 | orders: 1:(1); 2:(2,3)')),
    ('C2@3', ('transp', 2, 1)): (482, ('2->2: 2,1 | orders: 1:(2); 2:(1)', '2->2: 2,1 | orders: 1:(2); 2:(1)')),
    ('C2@3', ('transp', 3, 1)): (787, ('2->3: 1,2 | orders: 1:(1); 2:(2); 3:()', '3->2: 2,1,1 | orders: 1:(2,3); 2:(1)')),
    ('C2@3', ('transp', 3, 2)): (775, ('2->3: 1,2 | orders: 1:(1); 2:(2); 3:()', '3->2: 1,2,2 | orders: 1:(1); 2:(3,2)')),
    # H1@4 dims (0, 0, 1, 3, 6)
    ('H1@4', ('coface', 2, 1)): (2448, ('2->3: 2,3', '3->2: 1,2,1')),
    ('H1@4', ('coface', 2, 2)): (2445, ('2->3: 1,3', '3->2: 1,2,1')),
    ('H1@4', ('coface', 2, 3)): (2444, ('2->3: 1,2', '3->2: 1,2,1')),
    ('H1@4', ('coface', 3, 1)): (2984, ('2->3: 1,2', '3->4: 2,3,4')),
    ('H1@4', ('coface', 3, 2)): (2840, ('2->3: 1,2', '3->4: 1,3,4')),
    ('H1@4', ('coface', 3, 3)): (2804, ('2->3: 1,2', '3->4: 1,2,4')),
    ('H1@4', ('coface', 3, 4)): (2804, ('2->3: 1,2', '3->4: 1,2,4')),
    ('H1@4', ('codegen', 2, 1)): (2435, ('2->3: 1,2', '3->2: 1,1,2')),
    ('H1@4', ('codegen', 2, 2)): (2453, ('2->3: 1,2', '3->2: 1,2,2')),
    ('H1@4', ('codegen', 3, 1)): (3381, ('2->4: 1,2', '4->2: 1,1,2,2')),
    ('H1@4', ('codegen', 3, 2)): (3445, ('2->4: 1,2', '4->2: 1,2,2,2')),
    ('H1@4', ('codegen', 3, 3)): (3861, ('2->4: 1,2', '4->3: 1,2,3,3')),
    ('H1@4', ('transp', 2, 1)): (2310, ('2->2: 2,1', '2->2: 2,1')),
    ('H1@4', ('transp', 3, 1)): (2462, ('2->3: 1,2', '3->2: 2,1,1')),
    ('H1@4', ('transp', 3, 2)): (2480, ('2->3: 1,2', '3->2: 2,2,1')),
    ('H1@4', ('transp', 4, 1)): (3461, ('2->4: 1,2', '4->2: 2,1,1,1')),
    ('H1@4', ('transp', 4, 2)): (3525, ('2->4: 1,2', '4->2: 2,2,1,1')),
    ('H1@4', ('transp', 4, 3)): (3429, ('2->4: 1,2', '4->2: 1,2,2,1')),
    # realize@4 dims (0, 1, 3, 6, 10)
    ('realize@4', ('coface', 1, 1)): (12, ('1->2: 2', '2->1: 1,1')),
    ('realize@4', ('coface', 1, 2)): (11, ('1->2: 1', '2->1: 1,1')),
    ('realize@4', ('coface', 2, 1)): (27, ('1->2: 1', '2->3: 2,3')),
    ('realize@4', ('coface', 2, 2)): (23, ('1->2: 1', '2->3: 1,3')),
    ('realize@4', ('coface', 2, 3)): (23, ('1->2: 1', '2->3: 1,3')),
    ('realize@4', ('coface', 3, 1)): (138, ('1->3: 1', '3->4: 2,3,4')),
    ('realize@4', ('coface', 3, 2)): (47, ('1->2: 1', '2->4: 3,4')),
    ('realize@4', ('coface', 3, 3)): (37, ('1->2: 1', '2->4: 1,4')),
    ('realize@4', ('coface', 3, 4)): (37, ('1->2: 1', '2->4: 1,4')),
    ('realize@4', ('codegen', 1, 1)): (11, ('1->2: 1', '2->1: 1,1')),
    ('realize@4', ('codegen', 2, 1)): (51, ('1->3: 1', '3->1: 1,1,1')),
    ('realize@4', ('codegen', 2, 2)): (60, ('1->3: 1', '3->2: 1,2,2')),
    ('realize@4', ('codegen', 3, 1)): (156, ('1->4: 1', '4->1: 1,1,1,1')),
    ('realize@4', ('codegen', 3, 2)): (172, ('1->4: 1', '4->2: 1,2,2,2')),
    ('realize@4', ('codegen', 3, 3)): (212, ('1->4: 1', '4->3: 1,2,3,3')),
}


def test_corrupted_blocks_fail_at_the_same_pair():
    fixtures = {"C2@3": make_simple("Ck", 3, k=2), "H1@4": arnold_module(1, 4),
                "realize@4": realize(_cochain_fixture(), 4)}
    seen = set()
    for name, V in fixtures.items():
        for key, W in _single_entry_corruptions(V):
            report = check_functoriality(W, trials=10 ** 9)
            pairs, witness = CORRUPTION_VERDICTS[name, key]
            assert not report.passed and report.exhaustive
            assert report.pairs_checked == pairs, (name, key)
            assert tuple(format_mor(m) for m in report.counterexample) == witness, (name, key)
            seen.add((name, key))
    assert seen == set(CORRUPTION_VERDICTS)


# (module, corrupted block): str of the default sampled check (500 pairs,
# seed 0) after adding 1 to entry (1, 1) of the block, as recorded when
# elementary modules were evaluated along one elementary chain per morphism
SAMPLED_VERDICTS = {
    # C2@3 dims (0, 0, 1, 3)
    ('C2@3', ('coface', 2, 1)): 'functoriality FAILED after 140 pairs: (NMor(SetMap(2, 3, (2, 3)), ((), (1,), (2,))), NMor(SetMap(3, 2, (2, 1, 1)), ((2, 3), (1,))))',
    ('C2@3', ('coface', 2, 2)): 'functoriality FAILED after 145 pairs: (NMor(SetMap(3, 3, (1, 1, 3)), ((1, 2), (), (3,))), NMor(SetMap(3, 3, (2, 1, 3)), ((2,), (1,), (3,))))',
    ('C2@3', ('coface', 2, 3)): 'functoriality FAILED after 62 pairs: (NMor(SetMap(3, 3, (1, 2, 2)), ((1,), (2, 3), ())), NMor(SetMap(3, 3, (1, 2, 1)), ((3, 1), (2,), ())))',
    ('C2@3', ('codegen', 2, 1)): 'functoriality FAILED after 57 pairs: (NMor(SetMap(3, 3, (1, 1, 2)), ((2, 1), (3,), ())), NMor(SetMap(3, 3, (1, 1, 3)), ((2, 1), (), (3,))))',
    ('C2@3', ('codegen', 2, 2)): 'functoriality FAILED after 95 pairs: (NMor(SetMap(3, 2, (2, 1, 1)), ((2, 3), (1,))), NMor(SetMap(2, 3, (3, 1)), ((2,), (), (1,))))',
    ('C2@3', ('transp', 2, 1)): 'functoriality FAILED after 95 pairs: (NMor(SetMap(3, 2, (2, 1, 1)), ((2, 3), (1,))), NMor(SetMap(2, 3, (3, 1)), ((2,), (), (1,))))',
    ('C2@3', ('transp', 3, 1)): 'functoriality FAILED after 85 pairs: (NMor(SetMap(3, 3, (2, 3, 1)), ((3,), (1,), (2,))), NMor(SetMap(3, 3, (1, 2, 1)), ((3, 1), (2,), ())))',
    ('C2@3', ('transp', 3, 2)): 'functoriality FAILED after 85 pairs: (NMor(SetMap(3, 3, (2, 3, 1)), ((3,), (1,), (2,))), NMor(SetMap(3, 3, (1, 2, 1)), ((3, 1), (2,), ())))',
    # H1@4 dims (0, 0, 1, 3, 6)
    ('H1@4', ('coface', 2, 1)): 'functoriality FAILED after 1 pairs: (SetMap(2, 4, (4, 3)), SetMap(4, 3, (2, 2, 3, 1)))',
    ('H1@4', ('coface', 2, 2)): 'functoriality FAILED after 1 pairs: (SetMap(2, 4, (4, 3)), SetMap(4, 3, (2, 2, 3, 1)))',
    ('H1@4', ('coface', 2, 3)): 'functoriality FAILED after 14 pairs: (SetMap(4, 4, (1, 1, 1, 2)), SetMap(4, 4, (1, 4, 1, 3)))',
    ('H1@4', ('coface', 3, 1)): 'functoriality FAILED after 298 pairs: (SetMap(3, 4, (2, 4, 3)), SetMap(4, 4, (3, 4, 2, 4)))',
    ('H1@4', ('coface', 3, 2)): 'functoriality FAILED after 121 pairs: (SetMap(2, 4, (1, 2)), SetMap(4, 4, (3, 1, 4, 1)))',
    ('H1@4', ('coface', 3, 3)): 'functoriality FAILED after 26 pairs: (SetMap(3, 4, (1, 2, 4)), SetMap(4, 3, (1, 2, 3, 1)))',
    ('H1@4', ('coface', 3, 4)): 'functoriality FAILED after 14 pairs: (SetMap(4, 4, (1, 1, 1, 2)), SetMap(4, 4, (1, 4, 1, 3)))',
    ('H1@4', ('codegen', 2, 1)): 'functoriality FAILED after 26 pairs: (SetMap(3, 4, (1, 2, 4)), SetMap(4, 3, (1, 2, 3, 1)))',
    ('H1@4', ('codegen', 2, 2)): 'functoriality FAILED after 8 pairs: (SetMap(4, 2, (1, 2, 2, 1)), SetMap(2, 4, (4, 3)))',
    ('H1@4', ('codegen', 3, 1)): 'functoriality FAILED after 8 pairs: (SetMap(4, 2, (1, 2, 2, 1)), SetMap(2, 4, (4, 3)))',
    ('H1@4', ('codegen', 3, 2)): 'functoriality FAILED after 27 pairs: (SetMap(3, 4, (1, 1, 4)), SetMap(4, 3, (2, 2, 2, 1)))',
    ('H1@4', ('codegen', 3, 3)): 'functoriality FAILED after 80 pairs: (SetMap(2, 4, (2, 4)), SetMap(4, 4, (4, 1, 4, 2)))',
    ('H1@4', ('transp', 2, 1)): 'functoriality FAILED after 1 pairs: (SetMap(2, 4, (4, 3)), SetMap(4, 3, (2, 2, 3, 1)))',
    ('H1@4', ('transp', 3, 1)): 'functoriality FAILED after 27 pairs: (SetMap(3, 4, (1, 1, 4)), SetMap(4, 3, (2, 2, 2, 1)))',
    ('H1@4', ('transp', 3, 2)): 'functoriality FAILED after 27 pairs: (SetMap(3, 4, (1, 1, 4)), SetMap(4, 3, (2, 2, 2, 1)))',
    ('H1@4', ('transp', 4, 1)): 'functoriality FAILED after 8 pairs: (SetMap(4, 2, (1, 2, 2, 1)), SetMap(2, 4, (4, 3)))',
    ('H1@4', ('transp', 4, 2)): 'functoriality FAILED after 59 pairs: (SetMap(3, 4, (1, 3, 2)), SetMap(4, 2, (2, 2, 1, 1)))',
    ('H1@4', ('transp', 4, 3)): 'functoriality FAILED after 8 pairs: (SetMap(4, 2, (1, 2, 2, 1)), SetMap(2, 4, (4, 3)))',
    # realize@4 dims (0, 1, 3, 6, 10)
    ('realize@4', ('coface', 1, 1)): 'functoriality FAILED after 17 pairs: (DeltaMor(SetMap(1, 2, (2,))), DeltaMor(SetMap(2, 1, (1, 1))))',
    ('realize@4', ('coface', 1, 2)): 'functoriality FAILED after 16 pairs: (DeltaMor(SetMap(1, 4, (1,))), DeltaMor(SetMap(4, 2, (1, 1, 2, 2))))',
    ('realize@4', ('coface', 2, 1)): 'functoriality FAILED after 1 pairs: (DeltaMor(SetMap(4, 4, (3, 3, 4, 4))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('coface', 2, 2)): 'functoriality FAILED after 6 pairs: (DeltaMor(SetMap(2, 4, (1, 3))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('coface', 2, 3)): 'functoriality FAILED after 8 pairs: (DeltaMor(SetMap(4, 3, (1, 1, 1, 2))), DeltaMor(SetMap(3, 2, (1, 2, 2))))',
    ('realize@4', ('coface', 3, 1)): 'functoriality FAILED after 33 pairs: (DeltaMor(SetMap(1, 4, (4,))), DeltaMor(SetMap(4, 4, (2, 2, 3, 4))))',
    ('realize@4', ('coface', 3, 2)): 'functoriality FAILED after 1 pairs: (DeltaMor(SetMap(4, 4, (3, 3, 4, 4))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('coface', 3, 3)): 'functoriality FAILED after 38 pairs: (DeltaMor(SetMap(3, 4, (1, 4, 4))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('coface', 3, 4)): 'functoriality FAILED after 6 pairs: (DeltaMor(SetMap(2, 4, (1, 3))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('codegen', 1, 1)): 'functoriality FAILED after 17 pairs: (DeltaMor(SetMap(1, 2, (2,))), DeltaMor(SetMap(2, 1, (1, 1))))',
    ('realize@4', ('codegen', 2, 1)): 'functoriality FAILED after 2 pairs: (DeltaMor(SetMap(3, 2, (1, 2, 2))), DeltaMor(SetMap(2, 1, (1, 1))))',
    ('realize@4', ('codegen', 2, 2)): 'functoriality FAILED after 1 pairs: (DeltaMor(SetMap(4, 4, (3, 3, 4, 4))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('codegen', 3, 1)): 'functoriality FAILED after 1 pairs: (DeltaMor(SetMap(4, 4, (3, 3, 4, 4))), DeltaMor(SetMap(4, 1, (1, 1, 1, 1))))',
    ('realize@4', ('codegen', 3, 2)): 'functoriality FAILED after 44 pairs: (DeltaMor(SetMap(1, 4, (3,))), DeltaMor(SetMap(4, 4, (1, 2, 2, 2))))',
    ('realize@4', ('codegen', 3, 3)): 'functoriality FAILED after 5 pairs: (DeltaMor(SetMap(4, 3, (1, 2, 3, 3))), DeltaMor(SetMap(3, 2, (1, 1, 1))))',
}


def test_corrupted_blocks_fail_the_sampled_check_at_the_same_pair():
    fixtures = {"C2@3": make_simple("Ck", 3, k=2), "H1@4": arnold_module(1, 4),
                "realize@4": realize(_cochain_fixture(), 4)}
    seen = set()
    for name, V in fixtures.items():
        for key, W in _single_entry_corruptions(V):
            report = check_functoriality(W)
            assert not report.exhaustive
            assert str(report) == SAMPLED_VERDICTS[name, key], (name, key)
            seen.add((name, key))
    assert seen == set(SAMPLED_VERDICTS)


def _factor_table_fixtures():
    """Elementary modules up to N@4, F@4, FI@4 and Delta@5: those of
    ``EVALUATION_FIXTURES``, FI subsets and ``realize`` at level 5, and every
    single-entry corruption of C2, H1, D1, ``realize`` and FI subsets."""
    out = {name: modules[-1] for name, _, _, _, modules in EVALUATION_FIXTURES}
    fi, realized = injective_pushforward_module(4, 2), realize(_cochain_fixture(), 5)
    for name, V in (("fi-subsets@4", fi), ("realize@5", realized)):
        out[name] = from_elementary(V.category, V.max_level, V.dims, to_elementary(V))
    for name, V in (("C2@4", make_simple("Ck", 4, k=2)), ("H1@4", arnold_module(1, 4)),
                    ("D1@4", make_simple("D1", 4)), ("realize@5", realized), ("fi-subsets@4", fi)):
        for key, W in _single_entry_corruptions(V):
            out["%s!%s.%d.%d" % ((name,) + key)] = W
    return out


FACTOR_TABLE_FIXTURES = _factor_table_fixtures()


@functools.lru_cache(maxsize=None)
def _shuffled_morphisms(category, top):
    """Every morphism with endpoints at most ``top``, with its chain keys,
    in one seeded shuffled order across all hom sets."""
    levels = range(1 if category is DELTA else 0, top + 1)
    mors = [(f, chain_keys(category, f)) for a in levels for b in levels
            for f in enumerate_hom(category, a, b)]
    random.Random(0).shuffle(mors)
    return mors


@pytest.mark.parametrize("name", list(FACTOR_TABLE_FIXTURES))
def test_factor_tables_match_the_chain_fold(name):
    V = FACTOR_TABLE_FIXTURES[name]
    columns = V.evaluator()     # one evaluator, its tables shared by every hom set
    mors = _shuffled_morphisms(V.category, V.max_level)
    assert {(f.dom, f.cod) for f, _ in mors} == {
        (a, b) for a in V.levels for b in V.levels if hom_count(V.category, a, b)}
    for f, keys in mors:
        expected = chain_fold_columns(V, f, keys)
        assert columns(f) == expected, format_mor(f)
        assert V.columns(f) == expected, format_mor(f)
    assert V.memo == {}


# corrupted FACTOR_TABLE_FIXTURES name: [pairs checked, counterexample (f, g)
# as format_mor text] of the exhaustive check, as recorded when the failing
# walk interned columns and composed morphisms as strings
WALK_VERDICTS = Path(__file__).parent / "data" / "walk_verdicts.json"


def test_factor_table_corruptions_fail_at_the_pinned_pair():
    verdicts = json.loads(WALK_VERDICTS.read_text())
    corrupted = {name: V for name, V in FACTOR_TABLE_FIXTURES.items() if "!" in name}
    assert set(verdicts) == set(corrupted) and len(verdicts) == 94
    for name, V in corrupted.items():
        report = check_functoriality(V, trials=10 ** 9)
        assert not report.passed and report.exhaustive, name
        assert [report.pairs_checked, [format_mor(m) for m in report.counterexample]] \
            == verdicts[name], name


def test_factor_table_fixtures_cover_every_category_and_fractions():
    tops = {}
    for V in FACTOR_TABLE_FIXTURES.values():
        tops[V.category] = max(tops.get(V.category, 0), V.max_level)
    assert tops == {N: 4, F: 4, FI: 4, DELTA: 5}
    conjugated = FACTOR_TABLE_FIXTURES["conjugated C2"]
    assert any(type(c) is Fraction for f, _ in _shuffled_morphisms(N, 4)
               for col in conjugated.columns(f) for _, c in col)
    assert sum("!" in name for name in FACTOR_TABLE_FIXTURES) == 18 + 18 + 21 + 24 + 13


def pairwise_check_functoriality(V):
    """The exhaustive functor-law check as a loop over composable pairs, in
    the order a, b, c, g, f, with the columns of every morphism cached by the
    morphism and one column product per pair.  ``check_functoriality``
    walks the same loop, so the recorded verdicts (``CORRUPTION_VERDICTS``,
    ``WALK_VERDICTS``) are what hold both to an independent result."""
    cat = V.category
    levels = list(V.levels)
    for n in levels:
        if V.columns(_identity_mor(cat, n)) != identity_columns(V.dims[n]):
            return FunctorialityReport(False, 0, False, ("identity", n))
    cache = {}

    def cols(m):
        got = cache.get(m)
        if got is None:
            got = cache[m] = V.columns(m)
        return got

    checked = 0
    for a in levels:
        for b in levels:
            homs_ab = enumerate_hom(cat, a, b)
            if not homs_ab:
                continue
            for c in levels:
                for g in enumerate_hom(cat, b, c):
                    gc = cols(g)
                    for f in homs_ab:
                        checked += 1
                        if cols(compose_in(cat, g, f)) != compose_columns(gc, cols(f)):
                            return FunctorialityReport(False, checked, True, (f, g))
    return FunctorialityReport(True, checked, True, None)


def _oracle_fixtures():
    out = {}
    for name, V in (("C2@3", make_simple("Ck", 3, k=2)), ("H1@4", arnold_module(1, 4)),
                    ("realize@4", realize(_cochain_fixture(), 4)), ("D1@3", make_simple("D1", 3))):
        for key, W in _single_entry_corruptions(V):
            out["%s!%s.%d.%d" % ((name,) + key)] = W
    for k in (1, 2, 3):
        out["C%d@3" % k] = make_simple("Ck", 3, k=k)
    out["D0@3"] = make_simple("D0", 3)
    out["D1@3"] = make_simple("D1", 3)
    for i in (0, 1, 2):
        out["H%d@3" % i] = arnold_module(i, 3)
    out["order-sign@3"] = order_sign_module(3)
    small = make_simple("Ck", 3, k=2)
    out["conjugated C2@3"] = from_elementary(N, 3, small.dims, sparse_blocks(_conjugated(small)))
    out["fi-subsets@4"] = injective_pushforward_module(4, 2)
    out["C2@3|Delta"] = restrict(small, "psi")
    out["C1+C2@3"] = direct_sum(make_simple("Ck", 3, k=1), small)
    return out


ORACLE_FIXTURES = _oracle_fixtures()


@pytest.mark.parametrize("name", list(ORACLE_FIXTURES))
def test_exhaustive_check_matches_the_pairwise_oracle(name):
    V = ORACLE_FIXTURES[name]
    report = check_functoriality(V, trials=10 ** 9)
    expected = pairwise_check_functoriality(V)
    assert report.exhaustive
    assert report == expected
    assert str(report) == str(expected)


def test_oracle_fixtures_cover_failures_fractions_and_every_category():
    reports = {name: pairwise_check_functoriality(V) for name, V in ORACLE_FIXTURES.items()}
    corrupted = [name for name in reports if "!" in name]
    assert len(corrupted) == len(CORRUPTION_VERDICTS) + 11     # D1@3 has 11 nonempty blocks
    assert not any(reports[name].passed for name in corrupted)
    assert not reports["order-sign@3"].passed
    passing = {name for name, r in reports.items() if r.passed}
    assert passing == set(ORACLE_FIXTURES) - set(corrupted) - {"order-sign@3"}
    assert {V.category for V in ORACLE_FIXTURES.values()} == {N, FI, DELTA, F}
    conjugated = ORACLE_FIXTURES["conjugated C2@3"]
    assert any(type(c) is Fraction for m in enumerate_hom(N, 3, 3)
               for col in conjugated.columns(m) for _, c in col)


# -- certification by the defining relations ------------------------------------

# The H1@4 corruptions are in both tables; fi-subsets@4 is a rule module in
# ORACLE_FIXTURES and its elementary copy in FACTOR_TABLE_FIXTURES.
RELATION_FIXTURES = {**FACTOR_TABLE_FIXTURES, **ORACLE_FIXTURES,
                     "elementary fi-subsets@4": FACTOR_TABLE_FIXTURES["fi-subsets@4"]}
# Functors at N@4, where the pairwise oracle takes 10 to 27 s each; their
# truncations at level 3 are in ORACLE_FIXTURES and meet the oracle there.
FUNCTORS_AT_N4 = {"C1", "C2", "C3", "D1", "conjugated C2"}


@pytest.mark.parametrize("name", list(RELATION_FIXTURES))
def test_relations_agree_with_the_pairwise_oracle(name):
    V = RELATION_FIXTURES[name]
    expected = name in FUNCTORS_AT_N4 or pairwise_check_functoriality(V).passed
    assert repmod._relations_certify(V) == expected


def test_relation_fixtures_cover_both_verdicts_and_backends():
    assert len(RELATION_FIXTURES) == 105 + 65 - 18
    assert {V.category for V in RELATION_FIXTURES.values()} == {N, FI, DELTA, F}
    assert FUNCTORS_AT_N4 <= {name for name, V in RELATION_FIXTURES.items()
                              if V.category is N and V.max_level == 4 and V._elementary}
    rules = [V for V in RELATION_FIXTURES.values() if V._elementary is None]
    assert len(rules) == 12 and not all(repmod._relations_certify(V) for V in rules)


def _failing_elementary_pairs(V):
    """Keys ``(k1, k2)`` of the composable elementary pairs with
    ``V(e2) V(e1) != V(e2 o e1)``."""
    columns = V.evaluator()
    keys = elementary_keys(V.category, V.max_level)
    gens = {key: elementary_morphism(V.category, key) for key in keys}
    return [(k1, k2) for k1 in keys for k2 in keys if gens[k2].dom == gens[k1].cod
            and compose_columns(columns(gens[k2]), columns(gens[k1]))
            != columns(compose_in(V.category, gens[k2], gens[k1]))]


def _control(category, dims, blocks):
    """An elementary module with the given blocks, zero elsewhere."""
    mats = {key: Matrix.zeros(*elementary_shape(dims, key))
            for key in elementary_keys(category, len(dims) - 1)}
    mats.update({key: Matrix(len(rows), len(rows[0]), rows) for key, rows in blocks.items()})
    return from_elementary(category, len(dims) - 1, dims, sparse_blocks(mats))


@pytest.mark.parametrize("V,failing,message", [
    # tau_1 = diag(1, -1) and tau_2 = swap at N@3 are involutions, but break
    # the braid relation, which no pair check sees
    (_control(N, (0, 0, 0, 2), {("transp", 3, 1): [[1, 0], [0, -1]],
                                ("transp", 3, 2): [[0, 1], [1, 0]]}),
     [], "Coxeter relation tau_1 tau_2 tau_1 = tau_2 tau_1 tau_2 fails at level 3"),
    # at F@2 both cofaces [1] -> [2] are (1, 1), s_1 = (1, 0) and tau_1 the
    # swap: only s_1 o tau_1 = s_1 fails
    (_control(F, (0, 1, 2), {("coface", 1, 1): [[1], [1]], ("coface", 1, 2): [[1], [1]],
                             ("codegen", 1, 1): [[1, 0]], ("transp", 2, 1): [[0, 1], [1, 0]]}),
     [(("transp", 2, 1), ("codegen", 1, 1))], "relation codegen 1 1 o transp 2 1 fails"),
    # N@3 with levels 2 and 3 only: [3] carries the points and a sign line,
    # which s_1 alone sees; only the crossed relations tau_1 o s_j = s_j' o
    # (3-cycle) fail, whose right sides have length 3
    (_control(N, (0, 0, 1, 4), {
        ("transp", 2, 1): [[1]],
        ("transp", 3, 1): [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        ("transp", 3, 2): [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
        ("coface", 2, 1): [[1], [0], [0], [0]], ("coface", 2, 2): [[0], [1], [0], [0]],
        ("coface", 2, 3): [[0], [0], [1], [0]],
        ("codegen", 2, 1): [[1, 1, 0, 1]], ("codegen", 2, 2): [[0, 1, 1, 0]]}),
     [(("codegen", 2, 1), ("transp", 2, 1)), (("codegen", 2, 2), ("transp", 2, 1))],
     "relation transp 2 1 o codegen 2 1 fails"),
], ids=["braid", "codegeneracy after transposition", "transposition after codegeneracy"])
def test_relation_controls_fail_only_the_named_relations(V, failing, message):
    assert _failing_elementary_pairs(V) == failing
    with pytest.raises(FunctorialityError) as info:
        check_relations(V)
    assert str(info.value) == message
    expected = pairwise_check_functoriality(V)
    assert not expected.passed
    assert check_functoriality(V, trials=10 ** 9) == expected


@pytest.mark.parametrize("cat,top,entries", [
    (N, 2, (0, 1, -1)), (F, 2, (0, 1, -1)), (FI, 3, (1, -1)), (DELTA, 3, (1, -1)), (N, 3, (1, -1)),
], ids=["N@2", "F@2", "FI@3", "Delta@3", "N@3"])
def test_relations_agree_with_the_oracle_on_every_small_one_dimensional_module(cat, top, entries):
    keys = elementary_keys(cat, top)
    dims = (0,) + (1,) * top if cat is DELTA else (1,) * (top + 1)
    verdicts = []
    for values in itertools.product(entries, repeat=len(keys)):
        V = from_elementary(cat, top, dims, sparse_blocks({k: Matrix(1, 1, [[v]])
                                                          for k, v in zip(keys, values)}))
        try:
            check_relations(V)
            passed = True
        except FunctorialityError:
            passed = False
        assert passed == pairwise_check_functoriality(V).passed, values
        verdicts.append(passed)
    assert len(verdicts) == len(entries) ** len(keys) and 1 < sum(verdicts) < len(verdicts)


def test_trials_equal_to_the_pair_count_make_the_check_exhaustive():
    V = make_simple("Ck", 3, k=2)       # 7,564 composable pairs
    assert str(check_functoriality(V, trials=7564)) == "functoriality ok (7564 pairs, exhaustive)"
    assert str(check_functoriality(V, trials=7563)) == "functoriality ok (7563 pairs, sampled)"
    W = dict(_single_entry_corruptions(V))["coface", 2, 1]
    report = check_functoriality(W, trials=7564)
    pairs, witness = CORRUPTION_VERDICTS["C2@3", ("coface", 2, 1)]
    assert report.exhaustive and report.pairs_checked == pairs
    assert tuple(format_mor(m) for m in report.counterexample) == witness


def _pair_total(V):
    cat = V.category
    return sum(hom_count(cat, a, b) * hom_count(cat, b, c)
               for a in V.levels for b in V.levels for c in V.levels)


@pytest.mark.parametrize("name", list(FACTOR_TABLE_FIXTURES))
def test_sampled_check_gives_the_report_of_its_draws(name):
    # a certified elementary module returns without drawing; the report
    # must be the one the draws give, failing or passing
    V = FACTOR_TABLE_FIXTURES[name]
    trials = [t for t in (1, 37, 500) if t < _pair_total(V)]
    assert trials
    for t in trials:
        for seed in range(3):
            report = check_functoriality(V, trials=t, seed=seed)
            assert not report.exhaustive
            assert str(report) == str(sampled_walk(V, t, seed)), (t, seed)


def test_sampled_fixtures_cover_both_verdicts_and_missed_corruptions():
    # a corrupted module that its draws miss fails its relations all the
    # same, and must still be reported as the draws saw it
    verdicts = {(name, t, seed): sampled_walk(V, t, seed).passed
                for name, V in FACTOR_TABLE_FIXTURES.items()
                for t in (1, 37, 500) if t < _pair_total(V) for seed in range(3)}
    good = {key for key in verdicts if "!" not in key[0]}
    assert all(verdicts[key] for key in good)
    missed = {key for key in set(verdicts) - good if verdicts[key]}
    assert missed and len(missed) < len(verdicts) - len(good)
    assert not any(repmod._relations_certify(FACTOR_TABLE_FIXTURES[name]) for name, _, _ in missed)


def test_a_pair_walk_that_contradicts_the_relations_is_an_internal_error(monkeypatch):
    def reject(V):
        raise FunctorialityError("rejected")

    monkeypatch.setattr(repmod, "check_relations", reject)
    for V in (make_simple("Ck", 3, k=2), read_module(write_module(make_simple("Ck", 3, k=2)))):
        with pytest.raises(RuntimeError, match="passes all 7564 composable pairs"):
            check_functoriality(V, trials=10 ** 9)


def test_exhaustive_check_leaves_no_state_behind():
    V = read_module(write_module(make_simple("Ck", 3, k=2)))
    assert check_functoriality(V, trials=10 ** 9).passed
    assert descends_through_phi(V, 3).passed
    assert V.memo == {}
    H = read_module(write_module(arnold_module(1, 3)))
    assert check_functoriality(restrict(H, "phi"), trials=10 ** 9).passed
    assert H.memo == {}
    # no evaluation table outlives its call at module level
    for module in (repmod, simples):
        assert not [name for name, value in vars(module).items()
                    if isinstance(value, (dict, list, set)) and not name.startswith("__")]

    def live():
        return sum(1 for o in gc.get_objects() if type(o) is CatModule)

    def throwaway(i):
        # a scale no other test uses, distinct per module, makes columns new
        return _rescaled(make_simple("Ck", 2, k=1), lambda n: Fraction(7919 + i, 7907) ** n)

    def elementary(V):
        return from_elementary(V.category, V.max_level, V.dims, to_elementary(V))

    def restricted(i):
        # an elementary F-module whose phi restriction evaluates through it
        H0 = _rescaled(arnold_module(0, 2), lambda n: Fraction(7817 + i, 7907) ** n)
        return restrict(elementary(H0), "phi")

    check_functoriality(throwaway(-1), trials=10 ** 9)
    descends_through_phi(elementary(throwaway(-1)), 2)
    check_functoriality(restricted(-1), trials=10 ** 9)
    gc.collect()
    before = live()
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for i in range(50):
            W = throwaway(i)
            assert check_functoriality(W, trials=10 ** 9).passed
            W = elementary(W)
            assert check_functoriality(W, trials=10 ** 9).passed
            assert descends_through_phi(W, 2).passed
            W = restricted(i)
            assert check_functoriality(W, trials=10 ** 9).passed
            assert descends_through_phi(W, 2).passed
        del W
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert live() == before
    assert grown < 8_000, grown     # catches a table of columns kept across calls


def test_module_file_round_trip_bit_exact():
    for module in (make_simple("Ck", 4, k=2), make_simple("D0", 3),
                   restrict(make_simple("Ck", 4, k=1), "psi"),
                   injective_pushforward_module(4, 2)):
        text = write_module(module)
        again = read_module(text)
        assert write_module(again) == text
        assert again.dims == module.dims and again.category == module.category


def dense_write_module(V):
    """catmod/1 text through dense matrices: every block of ``V`` as the
    :class:`Matrix` of ``V.act``, printed by ``format_matrix`` -- the
    reference the sparse writer must reproduce."""
    mats = dense_blocks(V)
    lines = ["catmod/1", "category %s" % V.category, "max_level %d" % V.max_level,
             "dims %s" % " ".join(str(d) for d in V.dims)]
    for key in elementary_keys(V.category, V.max_level):
        lines.append("%s %d %d" % key)
        if mats[key].rows:
            lines.append(format_matrix(mats[key]))
    return "\n".join(lines) + "\n"


def _rescaled(V, scale):
    """``V`` with the basis of level ``n`` multiplied by ``1 / scale(n)``:
    a rule module whose coefficients pick up ``scale(cod) / scale(dom)``."""
    def columns(f):
        s = scale(f.cod) / scale(f.dom)
        return [[(r, c * s) for r, c in col] for col in V.columns(f)]
    return CatModule(V.category, V.max_level, V.dims, columns=columns,
                     name="rescaled " + V.name)


def _write_fixtures():
    out = {}
    for k in (1, 2, 3):
        out["C%d" % k] = make_simple("Ck", 6, k=k)
    out["D0"] = make_simple("D0", 6)
    out["D1"] = make_simple("D1", 6)
    out["order-sign"] = order_sign_module(6)
    for i in (0, 1, 2):
        out["H%d" % i] = arnold_module(i, 6)
    for name in ("C1", "C2", "C3", "D0", "D1", "order-sign"):
        out[name + "|Delta"] = restrict(out[name], "psi")
    for name in ("H0", "H1", "H2"):
        out[name + "|N"] = restrict(out[name], "phi")
    out["C1+C2"] = direct_sum(out["C1"], out["C2"])
    out["realize"] = realize(_cochain_fixture(), 5)
    out["realize, zero levels"] = realize(CochainComplex(2, (0, 0, 2), [
        Matrix.zeros(0, 0), Matrix.zeros(2, 0)]), 4)
    out["rescaled C2"] = _rescaled(out["C2"], lambda n: Fraction(-2, 3) ** n)
    out["rescaled H1"] = _rescaled(out["H1"], lambda n: Fraction(-5, 2) ** n)
    small = make_simple("Ck", 4, k=2)
    out["conjugated C2"] = from_elementary(N, 4, small.dims, sparse_blocks(_conjugated(small)))
    out["fi-subsets"] = injective_pushforward_module(4, 2)
    for name in list(out):
        out[name + " read back"] = read_module(write_module(out[name]))
    return out


WRITE_FIXTURES = _write_fixtures()


@pytest.mark.parametrize("name", sorted(WRITE_FIXTURES))
def test_write_module_matches_the_dense_path(name):
    V = WRITE_FIXTURES[name]
    assert write_module(V) == dense_write_module(V)


def test_write_fixtures_cover_signs_fractions_and_empty_levels():
    texts = [dense_write_module(V) for V in WRITE_FIXTURES.values()]
    entries = {tok for text in texts for line in text.splitlines()[4:] for tok in line.split()}
    assert {"-1", "1/2", "-2/3", "-3/2"} <= entries
    assert any("\n\n" in text for text in texts)          # rows of width 0
    assert any(0 in V.dims[1:] for V in WRITE_FIXTURES.values())
    for name in ("rescaled C2", "rescaled H1"):
        assert check_functoriality(WRITE_FIXTURES[name], trials=300).passed


def test_read_blocks_equal_the_normalized_blocks():
    """``read_module`` keeps the columns it parses, which must be exactly the
    blocks ``from_elementary`` normalizes, to the type of each coefficient."""
    def normalized(V):
        return from_elementary(V.category, V.max_level, V.dims, to_elementary(V))._elementary

    texts = [(write_module(V), normalized(V)) for V in WRITE_FIXTURES.values()]
    C2 = make_simple("Ck", 4, k=2)
    respelled = "\n".join(line if line[:1].isalpha() else " ".join(
        {"0": "-0", "1": "2/2"}.get(tok, tok) for tok in line.split())
        for line in write_module(C2).splitlines()) + "\n"
    assert "-0 2/2" in respelled
    texts.append((respelled, normalized(C2)))
    for text, expected in texts:
        got = read_module(text)._elementary
        assert got == expected and repr(got) == repr(expected)


def test_elementary_keys_shapes():
    keys = elementary_keys(DELTA, 3)
    assert ("transp", 2, 1) not in keys
    keys = elementary_keys(FI, 3)
    assert all(kind != "codegen" for kind, _, _ in keys)
    keys = elementary_keys(N, 3)
    assert ("coface", 0, 1) in keys and ("codegen", 1, 1) in keys and ("transp", 3, 2) in keys


def test_read_module_rejects_malformed():
    from finsetrep.catcore import ParseError
    text = write_module(make_simple("D0", 3))
    with pytest.raises(ParseError):
        read_module(text.replace("catmod/1", "catmod/9", 1))
    with pytest.raises(ParseError):
        read_module(text + "junk\n")


# -- restriction -----------------------------------------------------------------

def test_restrict_psi_dims_and_agreement():
    C1 = make_simple("Ck", 5, k=1)
    W = restrict(C1, "psi")
    assert W.dims == (0, 1, 2, 3, 4, 5)
    for a in range(1, 5):
        for b in range(1, 5):
            for d in enumerate_hom(DELTA, a, b):
                assert W.act(d) == C1.act(lift(d))


def test_restrict_d1_psi_all_ones():
    W = restrict(make_simple("D1", 4), "psi")
    for a in range(1, 5):
        for b in range(1, 5):
            for d in enumerate_hom(DELTA, a, b):
                assert W.act(d) == Matrix(1, 1, [[1]])


def test_restrict_phi_collapses_equal_underlying_maps():
    from finsetrep.arnold import arnold_module
    H1 = restrict(arnold_module(1, 4), "phi")
    for m in range(4):
        for n in range(4):
            seen = {}
            for f in enumerate_hom(N, m, n):
                key = f.map.values
                mat = H1.act(f)
                if key in seen:
                    assert mat == seen[key]
                seen[key] = mat


def _descent_fixtures():
    """The elementary N-modules of ``FACTOR_TABLE_FIXTURES``, and the phi
    relabel of each elementary F-module there."""
    out = {}
    for name, V in FACTOR_TABLE_FIXTURES.items():
        if V.category is N:
            out[name] = V
        elif V.category is F:
            out[name + "|N"] = restrict(V, "phi")
    return out


DESCENT_FIXTURES = _descent_fixtures()


@pytest.mark.parametrize("name", list(DESCENT_FIXTURES))
def test_descent_matches_the_pair_walk(name):
    V = DESCENT_FIXTURES[name]
    assert V._elementary is not None
    for bound in range(V.max_level + 1):
        assert str(descends_through_phi(V, bound)) == str(descent_walk(V, bound)), bound


def test_descent_fixtures_cover_both_verdicts():
    verdicts = {name: descent_walk(V, V.max_level).passed for name, V in DESCENT_FIXTURES.items()}
    certified = {name for name, V in DESCENT_FIXTURES.items() if repmod._relations_certify(V)}
    assert certified == {"C1", "C2", "C3", "D1", "conjugated C2", "H0|N", "H1|N", "H2|N"}
    assert all(verdicts[name] for name in certified)
    assert {True, False} <= {verdicts[name] for name in set(verdicts) - certified}


T2_WITNESS = "order-sensitive action: 2->1: 1,1 | orders: 1:(1,2) vs 2->1: 1,1 | orders: 1:(2,1)"


@pytest.mark.parametrize("top", [3, 4])
def test_tensor_power_of_t2_is_a_functor_that_does_not_descend(top):
    L = tensor_t2_module(top)
    assert L.dims == tuple(3 ** n for n in range(top + 1))
    E = from_elementary(N, top, L.dims, to_elementary(L))
    check_relations(E)
    if top == 3:        # the rule agrees with its elementary copy on every morphism
        assert repmod._relations_certify(L)
    assert str(descends_through_phi(E, top)) == str(descent_walk(L, top)) == T2_WITNESS


@pytest.mark.parametrize("name", [name for name, V in FACTOR_TABLE_FIXTURES.items()
                                  if V.category is N])
def test_psi_relabel_equals_the_lift(name):
    V = FACTOR_TABLE_FIXTURES[name]
    W = restrict(V, "psi")
    assert W._elementary is not None and W.dims == (0,) + V.dims[1:]
    lifted, relabeled = V.evaluator(), W.evaluator()
    for a in W.levels:
        for b in W.levels:
            for d in enumerate_hom(DELTA, a, b):
                assert relabeled(d) == lifted(lift(d)), format_mor(d)


def test_phi_relabel_of_an_f_functor_equals_the_forgetful_evaluation():
    functors = {name: V for name, V in FACTOR_TABLE_FIXTURES.items()
                if V.category is F and repmod._relations_certify(V)}
    assert list(functors) == ["H0", "H1", "H2"]
    for name, V in functors.items():
        W = restrict(V, "phi")
        assert W._elementary is not None and W.dims == V.dims
        forgetful, relabeled = V.evaluator(), W.evaluator()
        for a in W.levels:
            for b in W.levels:
                for f in enumerate_hom(N, a, b):
                    assert relabeled(f) == forgetful(forget(f)), (name, format_mor(f))


def test_restrict_category_mismatch():
    with pytest.raises(ValueError):
        restrict(make_simple("Ck", 3, k=1), "phi")


# -- direct sums -----------------------------------------------------------------

def test_direct_sum_dims_and_block_action():
    D1 = make_simple("D1", 4)
    sum_ = direct_sum(D1, D1)
    assert sum_.dims == (0, 2, 2, 2, 2)
    C1 = make_simple("Ck", 4, k=1)
    C2 = make_simple("Ck", 4, k=2)
    s = direct_sum(C1, C2)
    f = lift(SetMap(2, 3, (2, 3)))
    top = C1.act(f)
    bot = C2.act(f)
    mat = s.act(f)
    for i in range(top.rows):
        for j in range(top.cols):
            assert mat.data[i][j] == top.data[i][j]
    for i in range(bot.rows):
        for j in range(bot.cols):
            assert mat.data[top.rows + i][top.cols + j] == bot.data[i][j]
    assert all(not mat.data[i][top.cols + j] for i in range(top.rows) for j in range(bot.cols))


# -- generation degree -------------------------------------------------------------

def test_generation_degrees_of_fixtures():
    assert generation_degree(make_simple("Ck", 6, k=1)).degree == 1
    assert generation_degree(make_simple("Ck", 6, k=2)).degree == 2
    assert generation_degree(make_simple("Ck", 6, k=3)).degree == 3
    assert generation_degree(make_simple("D1", 6)).degree == 1
    assert generation_degree(make_simple("D0", 4)).degree == 0


def test_generation_degree_of_plane_module():
    from finsetrep.arnold import arnold_module
    cert = generation_degree(arnold_module(1, 6))
    assert cert.degree == 2 and cert.spanned


def test_generation_degree_monotone_under_sum():
    C1 = make_simple("Ck", 5, k=1)
    C2 = make_simple("Ck", 5, k=2)
    assert generation_degree(direct_sum(C1, C2)).degree == 2
    D1 = make_simple("D1", 5)
    assert generation_degree(direct_sum(D1, D1)).degree == 1


def test_generation_degree_of_realized_complexes():
    from finsetrep.doldkan import one_term_complex, realize
    # a one-line complex in degree p realizes to a module generated at the
    # first nonzero level, p + 1
    for p in (0, 1, 2):
        cert = generation_degree(realize(one_term_complex(p), 5))
        assert cert.spanned and cert.degree == p + 1


def test_generation_certificate_witnesses_span():
    C2 = make_simple("Ck", 5, k=2)
    cert = generation_degree(C2)
    assert cert.spanned
    for n in C2.levels:
        assert len(cert.witnesses[n]) == C2.dims[n]
