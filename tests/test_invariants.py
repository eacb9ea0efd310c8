import gc
import itertools
from fractions import Fraction

import pytest

from finsetrep.arnold import arnold_module
from finsetrep.catcore import N, SetMap, enumerate_hom, lift
from finsetrep.exactla import Matrix, rank, reduce, solve
from finsetrep.invariants import (
    InvariantBasis, barred_map, invariants_basis, monotonicity_check,
    replication_iso_check, replication_map,
)
from finsetrep.repmod import (
    CatModule, FunctorialityError, direct_sum, from_elementary, permutation_action,
    read_module, restrict, write_module,
)
from finsetrep.simples import make_simple
from helpers import dense_blocks, sparse_blocks


def averaging_projector(V, n):
    """The defining sum ``(1/n!) sum_sigma act(sigma)`` over all of ``S_n``:
    the reference the generator-based computation must reproduce exactly."""
    d = V.dims[n]
    if d == 0:
        return Matrix.zeros(0, 0)
    acc = [[0] * d for _ in range(d)]
    count = 0
    for values in itertools.permutations(range(1, n + 1)):
        for j, col in enumerate(permutation_action(V, values)):
            for r, c in col:
                acc[r][j] += c
        count += 1
    inv = Fraction(1, count)
    return Matrix(d, d, [[x * inv for x in row] for row in acc])


def _skewed(V):
    """``V`` with the basis of every level changed by ``1 + (superdiagonal
    ones)``: an isomorphic module whose averaging projectors are not
    orthogonal, unlike those of the permutation modules."""
    change = {n: Matrix(d, d, [[1 if j in (i, i + 1) else 0 for j in range(d)] for i in range(d)])
              for n, d in enumerate(V.dims)}
    undo = {n: solve(s, Matrix.identity(s.rows)) for n, s in change.items()}
    ends = {"coface": lambda n: (n + 1, n), "codegen": lambda n: (n, n + 1),
            "transp": lambda n: (n, n)}
    mats = {}
    for key, m in dense_blocks(V).items():
        cod, dom = ends[key[0]](key[1])
        mats[key] = change[cod] * m * undo[dom]
    return from_elementary(V.category, V.max_level, V.dims, sparse_blocks(mats), name="skewed " + V.name)


def _reference_fixtures():
    rules = {
        "C1": make_simple("Ck", 5, k=1),
        "C2": make_simple("Ck", 5, k=2),
        "C3": make_simple("Ck", 5, k=3),
        "D1": make_simple("D1", 5),
        "H0": arnold_module(0, 5),
        "H1": arnold_module(1, 5),
        "H2": arnold_module(2, 5),
    }
    fixtures = list(rules.items())
    fixtures += [(name + " read back", read_module(write_module(V))) for name, V in rules.items()]
    fixtures.append(("C2+C3", direct_sum(rules["C2"], rules["C3"])))
    fixtures += [("skewed " + name, _skewed(rules[name])) for name in ("C2", "H1")]
    return fixtures


REFERENCE_FIXTURES = _reference_fixtures()


@pytest.mark.parametrize("name,module", REFERENCE_FIXTURES, ids=[name for name, _ in REFERENCE_FIXTURES])
def test_generators_reproduce_the_averaging_sum(name, module):
    for n in range(0, 6):
        expected = averaging_projector(module, n)
        rref, rk, _ = reduce(expected.transpose())
        ib = invariants_basis(module, n)
        assert ib.projector == expected, (name, n)
        assert ib.basis == Matrix(module.dims[n], rk, [[rref.data[j][i] for j in range(rk)]
                                                       for i in range(module.dims[n])])


def test_invariants_of_c2():
    C2 = make_simple("Ck", 5, k=2)
    ib = invariants_basis(C2, 4)
    assert ib.dim == 1
    assert tuple(row[0] for row in ib.basis.data) == (1, 1, 1, 1, 1, 1)
    assert invariants_basis(C2, 1).dim == 0


def test_invariants_of_d1():
    D1 = make_simple("D1", 5)
    for n in range(1, 6):
        assert invariants_basis(D1, n).dim == 1


def test_projector_idempotent_and_fixed_by_transpositions():
    fixtures = (make_simple("Ck", 5, k=2), make_simple("D1", 5), arnold_module(1, 5))
    for module in fixtures:
        for n in range(1, 6):
            ib = invariants_basis(module, n)
            assert ib.projector * ib.projector == ib.projector
            for i in range(1, n):
                swap = tuple(i + 1 if x == i else i if x == i + 1 else x
                             for x in range(1, n + 1))
                mats = module.act(lift(SetMap(n, n, swap))) \
                    if module.category is N else module.act(SetMap(n, n, swap))
                assert mats * ib.basis == ib.basis


def test_invariants_match_coinvariants_dimension():
    # rank of the projector = dim invariants; corank of (I - P) = dim coinvariants
    for module in (make_simple("Ck", 5, k=2), arnold_module(1, 5)):
        for n in range(1, 6):
            p = invariants_basis(module, n).projector
            eye_minus_p = Matrix(p.rows, p.rows, [[(i == j) - x for j, x in enumerate(row)]
                                                  for i, row in enumerate(p.data)])
            assert rank(p) == p.rows - rank(eye_minus_p)


def test_barred_map_examples():
    C2 = make_simple("Ck", 5, k=2)
    mat = barred_map(C2, SetMap(2, 3, (1, 3)))
    assert mat.shape == (1, 1) and not mat.is_zero()
    mat = barred_map(C2, SetMap(2, 1, (1, 1)))
    assert mat.shape == (0, 1)
    D1 = make_simple("D1", 5)
    mat = barred_map(D1, SetMap(3, 2, (1, 2, 2)))
    assert mat.shape == (1, 1) and not mat.is_zero()


def test_barred_map_is_lift_independent_where_action_descends():
    C2 = make_simple("Ck", 4, k=2)
    for m in range(5):
        for n in range(5):
            groups = {}
            for f in enumerate_hom(N, m, n):
                groups.setdefault(f.map.values, []).append(f)
            for mors in groups.values():
                base = barred_map(C2, mors[0])
                for f in mors[1:]:
                    assert barred_map(C2, f) == base


def test_monotonicity_of_fixtures():
    report = monotonicity_check(make_simple("Ck", 6, k=3), range(1, 7))
    assert report.dims == (0, 0, 1, 1, 1, 1) and report.passed
    report = monotonicity_check(arnold_module(1, 6), range(1, 7))
    assert report.dims == (0, 1, 1, 1, 1, 1) and report.passed
    report = monotonicity_check(arnold_module(2, 6), range(1, 7))
    assert report.dims == (0, 0, 0, 0, 0, 0) and report.passed


def test_monotonicity_of_direct_sums():
    a = direct_sum(make_simple("Ck", 5, k=2), make_simple("Ck", 5, k=3))
    report = monotonicity_check(a, range(1, 6))
    assert report.passed and report.dims == (0, 1, 2, 2, 2)


def test_replication_map_shape():
    f = replication_map(2, 3)
    assert f.values == (1, 1, 1, 2, 2, 2)


def test_replication_pass_and_fail():
    C2 = make_simple("Ck", 6, k=2)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        assert replication_iso_check(C2, n, m).passed
    control = replication_iso_check(make_simple("Ck", 6, k=3), 2, 2)
    assert not control.passed
    assert (control.source_dim, control.target_dim) == (1, 0)


def test_replication_value_on_plane_module():
    H1 = arnold_module(1, 6)
    report = replication_iso_check(H1, 2, 2)
    assert report.passed
    assert report.matrix == Matrix(1, 1, [[4]])


def test_replication_requires_room():
    with pytest.raises(ValueError):
        replication_iso_check(make_simple("Ck", 5, k=2), 3, 2)


def test_level_cap_is_gone():
    assert monotonicity_check(arnold_module(1, 8), range(1, 9)).dims == (0, 1, 1, 1, 1, 1, 1, 1)
    assert monotonicity_check(make_simple("Ck", 9, k=2), range(1, 10)).dims == (0,) + (1,) * 8


def _permutation_matrix(values):
    n = len(values)
    return Matrix(n, n, [[1 if values[j] == i + 1 else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("key,values,relation", [
    (("transp", 2, 1), None, "tau_1^2 = 1 fails at level 2"),
    (("transp", 3, 2), (1, 2, 3), "tau_1 tau_2 tau_1 = tau_2 tau_1 tau_2 fails at level 3"),
    (("transp", 4, 3), (1, 3, 2, 4), "tau_1 tau_3 = tau_3 tau_1 fails at level 4"),
])
def test_coxeter_relations_are_certified_before_use(key, values, relation):
    C1 = make_simple("Ck", 4, k=1)
    mats = dense_blocks(C1)
    mats[key] = Matrix(2, 2, [[1, 1], [1, 0]]) if values is None else _permutation_matrix(values)
    broken = from_elementary(N, 4, C1.dims, sparse_blocks(mats))
    assert invariants_basis(broken, 1).dim == 1
    with pytest.raises(FunctorialityError) as info:
        monotonicity_check(broken, range(1, 5))
    assert str(info.value) == "Coxeter relation " + relation


def test_barred_map_reports_an_escaped_image_as_a_functoriality_failure():
    C2 = make_simple("Ck", 4, k=2)
    # a level-2 basis that misses the invariant line, as a broken module could give
    C2.memo["invariants", 2] = InvariantBasis(2, Matrix.zeros(1, 0), Matrix.identity(1))
    with pytest.raises(FunctorialityError, match="escaped the invariants at level 2"):
        barred_map(C2, replication_map(2, 2))


def test_delta_modules_have_no_invariants():
    V = restrict(make_simple("Ck", 3, k=1), "psi")
    for n in (1, 2, 3):
        with pytest.raises(ValueError):
            invariants_basis(V, n)


def test_invariant_bases_die_with_their_module():
    C2 = make_simple("Ck", 4, k=2)
    for i in range(50):
        V = CatModule(N, 4, C2.dims, columns=C2.columns, name="throwaway-%d" % i)
        assert invariants_basis(V, 3).dim == 1
    del V
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, CatModule) and o.name.startswith("throwaway-")]
    assert alive == []
