import random

import pytest

from finsetrep.catcore import (
    DELTA, F, FI, N, DeltaMor, NMor, ParseError, SetMap,
    compose_delta, compose_n, compose_set, enumerate_hom, factorize,
    forget, format_mor, hom_count, identity_n, lift, parse_mor,
    parse_nmor, parse_setmap, random_mor,
)


def nmor(dom, cod, values, orders):
    return NMor(SetMap(dom, cod, values), orders)


# -- composition ------------------------------------------------------------

def test_compose_identity_leaves_f_unchanged():
    f = lift(SetMap(2, 1, (1, 1)))
    assert compose_n(identity_n(1), f) == f


def test_compose_merges_orders_outer_first():
    # f constant at 1 with fiber order (2,1); g constant with order (1,2)
    f = nmor(2, 2, (1, 1), ((2, 1), ()))
    g = nmor(2, 1, (1, 1), ((1, 2),))
    assert compose_n(g, f) == nmor(2, 1, (1, 1), ((2, 1),))


def test_compose_inherits_outer_order_through_identity():
    f = identity_n(2)
    g = nmor(2, 1, (1, 1), ((2, 1),))
    assert compose_n(g, f) == nmor(2, 1, (1, 1), ((2, 1),))


def test_compose_merges_three_point_fiber():
    # hand derivation: over z=1 walk g's fiber (2,1); y=2 contributes (2),
    # y=1 contributes (3,1)
    f = nmor(3, 2, (1, 2, 1), ((3, 1), (2,)))
    g = nmor(2, 1, (1, 1), ((2, 1),))
    assert compose_n(g, f) == nmor(3, 1, (1, 1, 1), ((2, 3, 1),))


def test_injections_have_unique_lifts():
    for m in range(5):
        for n in range(5):
            by_map = {}
            for f in enumerate_hom(N, m, n):
                by_map.setdefault(f.map.values, []).append(f)
            for sm in enumerate_hom(FI, m, n):
                assert len(by_map[sm.values]) == 1


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_n(identity_n(3), identity_n(2))


def test_associativity_and_forget_on_seeded_triples():
    rng = random.Random(11)
    done = 0
    while done < 200:
        a, b, c, d = (rng.randint(0, 6) for _ in range(4))
        if (b == 0 and a) or (c == 0 and b) or (d == 0 and c):
            continue
        f = random_mor(N, a, b, rng)
        g = random_mor(N, b, c, rng)
        h = random_mor(N, c, d, rng)
        assert compose_n(h, compose_n(g, f)) == compose_n(compose_n(h, g), f)
        assert forget(compose_n(g, f)) == compose_set(forget(g), forget(f))
        done += 1


def test_monotone_lift_functorial_exhaustive_sizes_5():
    for a in range(1, 6):
        for b in range(1, 6):
            es = enumerate_hom(DELTA, a, b)
            for c in range(1, 6):
                for d in enumerate_hom(DELTA, b, c):
                    ld = lift(d)
                    for e in es:
                        assert lift(compose_delta(d, e)) == compose_n(ld, lift(e))


# -- lifting and forgetting ---------------------------------------------------

def test_lift_delta_orders_fibers_increasing():
    assert lift(SetMap(2, 1, (1, 1))).fiber_orders == ((1, 2),)


def test_lift_injection_unique_singleton_fibers():
    f = lift(SetMap(2, 3, (1, 3)))
    assert all(len(fib) <= 1 for fib in f.fiber_orders)


def test_lift_canonical_increasing():
    assert lift(SetMap(3, 1, (1, 1, 1))).fiber_orders == ((1, 2, 3),)


def test_forget_section_and_two_lifts():
    for m in range(4):
        for n in range(4):
            for sm in enumerate_hom(F, m, n):
                assert forget(lift(sm)) == sm
    a = nmor(2, 1, (1, 1), ((1, 2),))
    b = nmor(2, 1, (1, 1), ((2, 1),))
    assert forget(a) == forget(b)


# -- enumeration and counting -------------------------------------------------

def test_enumeration_examples():
    assert len(enumerate_hom(N, 2, 2)) == 6
    assert len(enumerate_hom(F, 2, 3)) == 9
    assert [d.map.values for d in enumerate_hom(DELTA, 2, 2)] == [(1, 1), (1, 2), (2, 2)]


def test_hom_count_examples():
    assert hom_count(N, 3, 1) == 6
    assert all(hom_count(N, 0, n) == 1 for n in range(6))
    assert hom_count(N, 2, 2) == 6


def test_counts_match_enumeration_everywhere():
    for m in range(6):
        for n in range(6):
            for cat in (N, F, FI):
                assert hom_count(cat, m, n) == len(enumerate_hom(cat, m, n))
            if m and n:
                assert hom_count(DELTA, m, n) == len(enumerate_hom(DELTA, m, n))


def test_enumeration_is_duplicate_free_and_sorted():
    homs = enumerate_hom(N, 3, 2)
    assert len(set(homs)) == len(homs)
    keys = [(f.map.values, f.fiber_orders) for f in homs]
    assert keys == sorted(keys)


def test_delta_rejects_empty_objects():
    with pytest.raises(ValueError):
        enumerate_hom(DELTA, 0, 2)
    with pytest.raises(ValueError):
        hom_count(DELTA, 1, 0)


# -- factorization ------------------------------------------------------------

def test_factorize_identity():
    s, p, i = factorize(identity_n(3))
    assert s == p == i == identity_n(3)


def test_factorize_collapse_with_reversed_order():
    f = nmor(2, 1, (1, 1), ((2, 1),))
    s, p, i = factorize(f)
    assert s.map.values == (2, 1)
    assert p.map.values == (1, 1)
    assert i == identity_n(1)
    assert compose_n(i, compose_n(p, s)) == f


def test_factorize_injection_sorts_by_image():
    f = lift(SetMap(2, 3, (3, 1)))
    s, p, i = factorize(f)
    assert s.map.values == (2, 1)
    assert i.map.values == (1, 3)
    assert compose_n(i, compose_n(p, s)) == f


def test_factorize_round_trip_exhaustive_sizes_4():
    for m in range(5):
        for n in range(5):
            for f in enumerate_hom(N, m, n):
                s, p, i = factorize(f)
                assert s.map.is_bijective()
                assert p.map.is_monotone()
                assert i.map.is_monotone() and i.map.is_injective()
                assert compose_n(i, compose_n(p, s)) == f


# -- validation ---------------------------------------------------------------

def test_setmap_invariants():
    with pytest.raises(ValueError):
        SetMap(2, 1, (1, 2))
    with pytest.raises(ValueError):
        SetMap(1, 0, (1,))
    SetMap(0, 0, ())  # empty map is fine


def test_nmor_fiber_validation():
    with pytest.raises(ValueError):
        NMor(SetMap(2, 1, (1, 1)), ((1,),))
    with pytest.raises(ValueError):
        NMor(SetMap(2, 1, (1, 1)), ((1, 1),))


def test_delta_mor_validation():
    with pytest.raises(ValueError):
        DeltaMor(SetMap(2, 2, (2, 1)))


# -- text form ----------------------------------------------------------------

def test_text_round_trip():
    for m in range(4):
        for n in range(4):
            for f in enumerate_hom(N, m, n):
                assert parse_nmor(format_mor(f)) == f
            for sm in enumerate_hom(F, m, n):
                assert parse_setmap(format_mor(sm)) == sm


def test_text_examples():
    assert format_mor(SetMap(2, 3, (1, 3))) == "2->3: 1,3"
    f = nmor(2, 1, (1, 1), ((2, 1),))
    assert format_mor(f) == "2->1: 1,1 | orders: 1:(2,1)"
    assert parse_mor(N, "2->1: 1,1 | orders: 1:(2,1)") == f


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_setmap("2->3 1,3")
    assert err.value.pos == 4 and err.value.line is None
    assert str(err.value) == "expected ':' (at offset 4)"
    with pytest.raises(ParseError):
        parse_nmor("2->1: 1,1 | orders: 1:(1)")
    with pytest.raises(ParseError):
        parse_mor(FI, "2->1: 1,1")
