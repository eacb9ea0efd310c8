"""Morphism combinatorics for four categories of finite sets.

Objects are the standard sets ``[n] = {1, ..., n}``, identified with their
cardinality; ``[0]`` is the empty set.  The categories are

* ``F``     -- all maps of finite sets;
* ``FI``    -- injective maps only;
* ``Delta`` -- nonempty ``[m]``, ``[n]`` with weakly monotone maps;
* ``N``     -- maps carrying a linear order on every fiber.  Composition
  merges fiber orders outer-first: on a composite fiber, ``x`` precedes
  ``x'`` when ``f(x)`` precedes ``f(x')`` in the outer fiber order, and ties
  are broken by the inner fiber order.

Every value is immutable and hashable; every operation is pure and
deterministic, so concurrent use is safe.  Enumerations are sorted
lexicographically by value sequence, then by fiber-order words, so golden
files and matrix computations are reproducible.

Morphism text form (also used by the CLI)::

    m->n: v1,...,vm | orders: 1:(x,...); 2:(x,...); ...

The ``orders`` section lists every fiber ``1..n`` in order and is present
exactly when the morphism is an ``N``-morphism with ``n > 0``.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import comb, factorial


class CategoryTag(Enum):
    DELTA = "Delta"
    N = "N"
    F = "F"
    FI = "FI"

    def __str__(self):
        return self.value


DELTA = CategoryTag.DELTA
N = CategoryTag.N
F = CategoryTag.F
FI = CategoryTag.FI

_TAG_BY_NAME = {t.value: t for t in CategoryTag}


def category_tag(name):
    """Look up a CategoryTag by its text name (``Delta``, ``N``, ``F``, ``FI``)."""
    try:
        return _TAG_BY_NAME[name]
    except KeyError:
        raise ValueError("unknown category %r (expected one of Delta, N, F, FI)" % name) from None


class ParseError(ValueError):
    """Malformed morphism/matrix/module text; carries a location: ``pos``, a
    character offset into a morphism's text form, or ``line``, a 1-based line
    number in a module or cochain file."""

    def __init__(self, message, pos=None, *, line=None):
        self.pos = pos
        self.line = line
        if line is not None:
            message = "%s (at line %d)" % (message, line)
        elif pos is not None:
            message = "%s (at offset %d)" % (message, pos)
        super().__init__(message)


def parse_count(token, what, line, minimum=0):
    """``int(token)`` for a count in a text-form header line; a token that is
    not an integer, or a value below ``minimum``, raises :class:`ParseError`
    located at ``line``."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, token), line=line) from None
    if value < minimum:
        raise ParseError("%s must be at least %d, got %d" % (what, minimum, value), line=line)
    return value


class SetMap:
    """A map ``[dom] -> [cod]`` given by its value sequence (1-based)."""

    __slots__ = ("dom", "cod", "values")

    def __init__(self, dom, cod, values):
        values = tuple(values)
        if dom < 0 or cod < 0:
            raise ValueError("negative set size")
        if len(values) != dom:
            raise ValueError("expected %d values, got %d" % (dom, len(values)))
        if cod == 0 and dom != 0:
            raise ValueError("no maps from a nonempty set to the empty set")
        if any(not 1 <= v <= cod for v in values):
            raise ValueError("values must lie in 1..%d: %r" % (cod, values))
        self.dom = dom
        self.cod = cod
        self.values = values

    @classmethod
    def _raw(cls, dom, cod, values):
        m = object.__new__(cls)
        m.dom = dom
        m.cod = cod
        m.values = values
        return m

    def __eq__(self, other):
        if not isinstance(other, SetMap):
            return NotImplemented
        return (self.dom, self.cod, self.values) == (other.dom, other.cod, other.values)

    def __hash__(self):
        return hash((self.dom, self.cod, self.values))

    def __repr__(self):
        return "SetMap(%d, %d, %r)" % (self.dom, self.cod, self.values)

    def is_injective(self):
        return len(set(self.values)) == self.dom

    def is_monotone(self):
        return all(self.values[i] <= self.values[i + 1] for i in range(self.dom - 1))

    def is_bijective(self):
        return self.dom == self.cod and self.is_injective()


class NMor:
    """A set map with a linear order on every fiber.

    ``fiber_orders[y-1]`` lists the preimage of ``y`` exactly once, in order.
    """

    __slots__ = ("map", "fiber_orders", "_hash")

    def __init__(self, map, fiber_orders):
        fiber_orders = tuple(tuple(fib) for fib in fiber_orders)
        if len(fiber_orders) != map.cod:
            raise ValueError("expected %d fiber orders, got %d" % (map.cod, len(fiber_orders)))
        for y, fib in enumerate(fiber_orders, 1):
            actual = sorted(x for x, v in enumerate(map.values, 1) if v == y)
            if sorted(fib) != actual:
                raise ValueError("fiber order %r is not a permutation of the fiber of %d" % (fib, y))
        self.map = map
        self.fiber_orders = fiber_orders
        self._hash = None

    @classmethod
    def _raw(cls, map, fiber_orders):
        m = object.__new__(cls)
        m.map = map
        m.fiber_orders = fiber_orders
        m._hash = None
        return m

    @property
    def dom(self):
        return self.map.dom

    @property
    def cod(self):
        return self.map.cod

    def __eq__(self, other):
        if not isinstance(other, NMor):
            return NotImplemented
        return self.map == other.map and self.fiber_orders == other.fiber_orders

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.map.dom, self.map.cod, self.map.values, self.fiber_orders))
            self._hash = h
        return h

    def __repr__(self):
        return "NMor(%r, %r)" % (self.map, self.fiber_orders)


class DeltaMor:
    """A weakly monotone map between nonempty standard ordered sets."""

    __slots__ = ("map",)

    def __init__(self, map):
        if map.dom == 0 or map.cod == 0:
            raise ValueError("Delta objects are nonempty")
        if not map.is_monotone():
            raise ValueError("Delta morphisms are weakly monotone: %r" % (map.values,))
        self.map = map

    @classmethod
    def _raw(cls, map):
        m = object.__new__(cls)
        m.map = map
        return m

    @property
    def dom(self):
        return self.map.dom

    @property
    def cod(self):
        return self.map.cod

    def __eq__(self, other):
        if not isinstance(other, DeltaMor):
            return NotImplemented
        return self.map == other.map

    def __hash__(self):
        return hash(("Delta", self.map.dom, self.map.cod, self.map.values))

    def __repr__(self):
        return "DeltaMor(%r)" % (self.map,)


# ---------------------------------------------------------------------------
# identities and elementary maps

def identity_map(n):
    return SetMap._raw(n, n, tuple(range(1, n + 1)))


def identity_n(n):
    return NMor._raw(identity_map(n), tuple((x,) for x in range(1, n + 1)))


def identity_delta(n):
    return DeltaMor._raw(identity_map(n))


def coface_map(n, i):
    """The monotone injection ``[n] -> [n+1]`` whose image misses ``i``."""
    if not 1 <= i <= n + 1:
        raise ValueError("coface index %d out of range 1..%d" % (i, n + 1))
    return SetMap._raw(n, n + 1, tuple(x if x < i else x + 1 for x in range(1, n + 1)))


def codegen_map(n, i):
    """The monotone surjection ``[n+1] -> [n]`` hitting ``i`` twice."""
    if not 1 <= i <= n:
        raise ValueError("codegeneracy index %d out of range 1..%d" % (i, n))
    return SetMap._raw(n + 1, n, tuple(x if x <= i else x - 1 for x in range(1, n + 2)))


def transposition_map(n, i):
    """The bijection of ``[n]`` swapping ``i`` and ``i+1``."""
    if not 1 <= i <= n - 1:
        raise ValueError("transposition index %d out of range 1..%d" % (i, n - 1))
    vals = list(range(1, n + 1))
    vals[i - 1], vals[i] = vals[i], vals[i - 1]
    return SetMap._raw(n, n, tuple(vals))


# ---------------------------------------------------------------------------
# composition

def compose_set(g, f):
    """Composite of plain set maps (g after f)."""
    if f.cod != g.dom:
        raise ValueError("composition mismatch: [%d]->[%d] after [%d]->[%d]"
                         % (g.dom, g.cod, f.dom, f.cod))
    gv = g.values
    return SetMap._raw(f.dom, g.cod, tuple(gv[v - 1] for v in f.values))


def compose_n(g, f):
    """Composite in N: underlying maps compose; each composite fiber is
    ordered by outer fiber position first, inner fiber position second."""
    if f.map.cod != g.map.dom:
        raise ValueError("composition mismatch: [%d]->[%d] after [%d]->[%d]"
                         % (g.map.dom, g.map.cod, f.map.dom, f.map.cod))
    gv = g.map.values
    values = tuple(gv[v - 1] for v in f.map.values)
    ford = f.fiber_orders
    orders = tuple(
        tuple(x for y in gfib for x in ford[y - 1])
        for gfib in g.fiber_orders
    )
    return NMor._raw(SetMap._raw(f.map.dom, g.map.cod, values), orders)


def compose_delta(g, f):
    return DeltaMor._raw(compose_set(g.map, f.map))


def compose_in(cat, g, f):
    if cat is N:
        return compose_n(g, f)
    if cat is DELTA:
        return compose_delta(g, f)
    return compose_set(g, f)


# ---------------------------------------------------------------------------
# lifting along psi (Delta -> N) and the canonical section of the forgetful map

def lift(m):
    """Lift a set map (or a Delta morphism) to N, every fiber in increasing
    order: the unique lift of an injection, and the lift of a monotone map
    along psi (its fibers inherit their order from the domain).  The input
    is not checked; ``finsetrep lift --mode`` checks its own input.
    """
    sm = m.map if isinstance(m, DeltaMor) else m
    return NMor._raw(sm, increasing_fibers(sm))


def increasing_fibers(sm):
    """Fibers of the set map ``sm``, each in increasing order: entry ``y-1``
    lists the preimage of ``y``."""
    fibers = [[] for _ in range(sm.cod)]
    for x, v in enumerate(sm.values, 1):
        fibers[v - 1].append(x)
    return tuple(tuple(fib) for fib in fibers)


def forget(f):
    """Underlying set map of an N-morphism (the forgetful functor to F)."""
    return f.map


# ---------------------------------------------------------------------------
# enumeration and counting

def enumerate_hom(cat, m, n):
    """All morphisms ``[m] -> [n]`` in ``cat``, duplicate-free, in a fixed
    lexicographic order (by value sequence, then by fiber-order words)."""
    if m < 0 or n < 0:
        raise ValueError("negative set size")
    if cat is DELTA:
        if m == 0 or n == 0:
            raise ValueError("Delta objects are nonempty")
        return tuple(
            DeltaMor._raw(SetMap._raw(m, n, values))
            for values in itertools.combinations_with_replacement(range(1, n + 1), m)
        )
    if cat is F:
        return tuple(
            SetMap._raw(m, n, values)
            for values in itertools.product(range(1, n + 1), repeat=m)
        )
    if cat is FI:
        return tuple(
            SetMap._raw(m, n, values)
            for values in itertools.product(range(1, n + 1), repeat=m)
            if len(set(values)) == m
        )
    if cat is N:
        out = []
        for values in itertools.product(range(1, n + 1), repeat=m):
            fibers = [[] for _ in range(n)]
            for x, v in enumerate(values, 1):
                fibers[v - 1].append(x)
            sm = SetMap._raw(m, n, values)
            for orders in itertools.product(*[itertools.permutations(fib) for fib in fibers]):
                out.append(NMor._raw(sm, orders))
        return tuple(out)
    raise ValueError("unknown category %r" % (cat,))


def hom_count(cat, m, n):
    """Closed-form size of ``hom([m], [n])``; always equals the length of
    :func:`enumerate_hom`."""
    if m < 0 or n < 0:
        raise ValueError("negative set size")
    if cat is DELTA:
        if m == 0 or n == 0:
            raise ValueError("Delta objects are nonempty")
        return comb(n + m - 1, m)
    if cat is F:
        return n ** m if m else 1
    if cat is FI:
        return factorial(n) // factorial(n - m) if m <= n else 0
    if cat is N:
        r = 1
        for t in range(m):
            r *= n + t
        return r
    raise ValueError("unknown category %r" % (cat,))


# ---------------------------------------------------------------------------
# canonical factorization in N

def factor_values(fibers):
    """Value sequences ``(sigma, pi, image)`` of the canonical factorization
    ``iota o pi o sigma`` of the N-morphism with fiber orders ``fibers``.

    ``sigma`` is the bijection numbering the domain fiber by fiber, each
    fiber in its order; ``pi`` is the monotone surjection onto ``[r]``, for
    ``r`` nonempty fibers, sending the ``j``-th block of that numbering to
    ``j``; ``image`` lists the values of the monotone injection
    ``iota: [r] -> [cod]``, the points with a nonempty fiber.
    """
    ordered = [x for fib in fibers for x in fib]
    sigma = [0] * len(ordered)
    for pos, x in enumerate(ordered, 1):
        sigma[x - 1] = pos
    image = tuple(y for y, fib in enumerate(fibers, 1) if fib)
    pi = tuple(j for j, y in enumerate(image, 1) for _ in fibers[y - 1])
    return tuple(sigma), pi, image


def factorize(f):
    """Write an N-morphism as ``iota o pi o sigma``, the lifts of the value
    sequences of :func:`factor_values`.

    ``sigma`` and ``iota`` are unique lifts of a bijection and a monotone
    injection, and ``pi`` is the increasing-fiber lift of a monotone
    surjection.  ``compose_n(iota, compose_n(pi, sigma)) == f``.
    """
    sigma, pi, image = factor_values(f.fiber_orders)
    m, r = len(sigma), len(image)
    return (lift(SetMap._raw(m, m, sigma)), lift(SetMap._raw(m, r, pi)),
            lift(SetMap._raw(r, f.cod, image)))


# ---------------------------------------------------------------------------
# decompositions into elementary maps (used by matrix backends)

def injection_chain(sm):
    """Coface keys ``(n, i)`` with ``sm = d_{i_1} o d_{i_2} o ...`` read
    left to right; each key names ``coface_map(n, i): [n] -> [n+1]``."""
    if not sm.is_injective() or not sm.is_monotone():
        raise ValueError("not a monotone injection: %r" % (sm.values,))
    chain = []
    values = list(sm.values)
    cod = sm.cod
    while cod > len(values):
        missing = max(x for x in range(1, cod + 1) if x not in values)
        chain.append((cod - 1, missing))
        values = [x if x < missing else x - 1 for x in values]
        cod -= 1
    return tuple(chain)


def surjection_chain(sm):
    """Codegeneracy keys ``(n, i)`` with ``sm = s_{i_1} o ... o s_{i_k}``
    read left to right; each key names ``codegen_map(n, i): [n+1] -> [n]``."""
    values = list(sm.values)
    dom = sm.dom
    if not sm.is_monotone() or (set(values) != set(range(1, sm.cod + 1)) and dom):
        raise ValueError("not a monotone surjection: %r" % (sm.values,))
    chain = []
    while dom > sm.cod:
        # peel the innermost collapse off the domain side
        j = next(i for i in range(1, dom) if values[i - 1] == values[i])
        chain.append((dom - 1, j))
        values = values[:j - 1] + values[j:]
        dom -= 1
    return tuple(reversed(chain))


def permutation_chain(values):
    """Adjacent-transposition keys ``(n, i)`` with the bijection equal to
    ``tau_{i_1} o tau_{i_2} o ...`` read left to right."""
    n = len(values)
    v = list(values)
    rev = []
    # bubble toward the identity; each swap peels a factor off the right
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                rev.append((n, i + 1))
                changed = True
    if v != sorted(v):
        raise ValueError("not a bijection: %r" % (values,))
    return tuple(reversed(rev))


# ---------------------------------------------------------------------------
# seeded random morphisms (property tests, functoriality sampling)

def random_mor(cat, m, n, rng):
    if cat is F:
        if n == 0 and m > 0:
            raise ValueError("empty hom set")
        return SetMap._raw(m, n, tuple(rng.randint(1, n) for _ in range(m)))
    if cat is FI:
        if m > n:
            raise ValueError("empty hom set")
        return SetMap._raw(m, n, tuple(rng.sample(range(1, n + 1), m)))
    if cat is DELTA:
        if m == 0 or n == 0:
            raise ValueError("Delta objects are nonempty")
        return DeltaMor._raw(SetMap._raw(m, n, tuple(sorted(rng.randint(1, n) for _ in range(m)))))
    if cat is N:
        if n == 0 and m > 0:
            raise ValueError("empty hom set")
        values = tuple(rng.randint(1, n) for _ in range(m))
        fibers = [[] for _ in range(n)]
        for x, v in enumerate(values, 1):
            fibers[v - 1].append(x)
        for fib in fibers:
            rng.shuffle(fib)
        return NMor._raw(SetMap._raw(m, n, values), tuple(tuple(fib) for fib in fibers))
    raise ValueError("unknown category %r" % (cat,))


# ---------------------------------------------------------------------------
# text form

def format_mor(x):
    if isinstance(x, DeltaMor):
        x = x.map
    if isinstance(x, SetMap):
        vals = ",".join(str(v) for v in x.values)
        return "%d->%d:%s" % (x.dom, x.cod, " " + vals if vals else "")
    if isinstance(x, NMor):
        base = format_mor(x.map)
        if x.map.cod == 0:
            return base
        orders = "; ".join(
            "%d:(%s)" % (y, ",".join(str(v) for v in fib))
            for y, fib in enumerate(x.fiber_orders, 1)
        )
        return "%s | orders: %s" % (base, orders)
    raise TypeError("cannot format %r" % (x,))


def _parse_int(text, pos, what):
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected %s" % what, start)
    return int(text[start:pos]), pos


def _parse_int_list(text, pos):
    vals = []
    while pos < len(text) and text[pos].isdigit():
        v, pos = _parse_int(text, pos, "integer")
        vals.append(v)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            if pos == len(text) or not text[pos].isdigit():
                raise ParseError("expected integer after ','", pos)
    return vals, pos


def _parse_setmap_prefix(text):
    pos = 0
    m, pos = _parse_int(text, pos, "source size")
    if not text.startswith("->", pos):
        raise ParseError("expected '->'", pos)
    pos += 2
    n, pos = _parse_int(text, pos, "target size")
    if pos == len(text) or text[pos] != ":":
        raise ParseError("expected ':'", pos)
    pos += 1
    vals = []
    if pos + 1 < len(text) and text[pos] == " " and text[pos + 1].isdigit():
        vals, pos = _parse_int_list(text, pos + 1)
    try:
        sm = SetMap(m, n, vals)
    except ValueError as e:
        raise ParseError(str(e), 0) from None
    return sm, pos


def parse_setmap(text):
    text = text.strip()
    sm, pos = _parse_setmap_prefix(text)
    if pos != len(text):
        raise ParseError("trailing input after set map", pos)
    return sm


def parse_delta(text):
    sm = parse_setmap(text)
    try:
        return DeltaMor(sm)
    except ValueError as e:
        raise ParseError(str(e), 0) from None


def parse_nmor(text):
    text = text.strip()
    sm, pos = _parse_setmap_prefix(text)
    if pos == len(text):
        if sm.cod == 0:
            return lift(sm)
        raise ParseError("expected ' | orders: ...' section", pos)
    marker = " | orders: "
    if not text.startswith(marker, pos):
        raise ParseError("expected ' | orders: ...' section", pos)
    pos += len(marker)
    orders = []
    for y in range(1, sm.cod + 1):
        v, pos = _parse_int(text, pos, "fiber label")
        if v != y:
            raise ParseError("expected fiber label %d" % y, pos)
        if pos == len(text) or text[pos] != ":":
            raise ParseError("expected ':'", pos)
        pos += 1
        if pos == len(text) or text[pos] != "(":
            raise ParseError("expected '('", pos)
        pos += 1
        fib, pos = _parse_int_list(text, pos)
        if pos == len(text) or text[pos] != ")":
            raise ParseError("expected ')'", pos)
        pos += 1
        orders.append(tuple(fib))
        if y < sm.cod:
            if not text.startswith("; ", pos):
                raise ParseError("expected '; ' between fibers", pos)
            pos += 2
    if pos != len(text):
        raise ParseError("trailing input after fiber orders", pos)
    try:
        return NMor(sm, tuple(orders))
    except ValueError as e:
        raise ParseError(str(e), 0) from None


def parse_mor(cat, text):
    """Parse a morphism of the given category from its text form."""
    if cat is N:
        return parse_nmor(text)
    if cat is DELTA:
        return parse_delta(text)
    sm = parse_setmap(text)
    if cat is FI and not sm.is_injective():
        raise ParseError("FI morphisms are injective", 0)
    return sm
