"""Truncated matrix representations of the finite-set categories.

A :class:`CatModule` is a functor from one of Delta, N, F, FI to
finite-dimensional rational vector spaces, truncated at a level ``max_level``
and evaluated as exact matrices.  Two backends exist:

* a *rule* backend computes the (sparse) columns of the acting matrix of any
  morphism directly;
* an *elementary* backend stores a block, as sparse columns, for each
  elementary morphism between consecutive levels -- cofaces,
  codegeneracies and adjacent transpositions -- and evaluates arbitrary
  morphisms through the canonical factorization ``f = iota o pi o sigma``
  of :func:`finsetrep.catcore.factor_values`.

Both backends evaluate a morphism to sparse columns first: for each basis
vector of the source, the ``(row, coeff)`` pairs of its image.  A coefficient
is an ``int`` when it is integral and a ``Fraction`` only otherwise, so the
unit-vector columns that dominate these modules never touch ``Fraction``
arithmetic; :func:`compose_columns` keeps that form.  An elementary backend
evaluates ``V(f) = V(iota o pi) . V(sigma)``, each factor the product of its
blocks along its elementary chain.  The morphisms of a hom set share most of
their factors, so :meth:`CatModule.evaluator` returns a function that keeps
each factor it has built, one table for the permutations and one for the
monotone parts, for as long as the function lives; a caller evaluating many
morphisms takes one evaluator per call, and :meth:`CatModule.columns` is the
same function with fresh tables.  :meth:`CatModule.act` densifies the
columns into a :class:`~finsetrep.exactla.Matrix`, whose entries are always
``Fraction``.

Well-definedness of an elementary backend is never assumed: it is certified
by :func:`check_functoriality`, which tests the functor laws on composable
pairs (exhaustively whenever that is cheap enough, otherwise on a seeded
random sample).  Neither check enumerates the pairs of an elementary
module: :func:`check_relations` tests the defining relations of the
category on its blocks, a few hundred products, and a module that
satisfies them satisfies every functor law within the truncation (the
argument is in that function's docstring), so a sampled check of it
returns the report its draws would give.  An exhaustive check of a rule
module is certified the same way through its elementary copy, which must
also agree with the rule on every morphism.  Only when this fails does the
check walk the pairs in a fixed order, to name the first failing pair.
The walk is the loop a sampled check runs on its seeded draws: one
composite and one column product per pair, with the columns of each
morphism kept for the call.  :func:`restrict` relabels the blocks of an
elementary module rather than evaluating through the functor.

Module file format (versioned header ``catmod/1``): category tag, truncation
level, dimension line, then one labeled matrix block per elementary morphism
in a fixed order.  :func:`read_module` parses each block straight into sparse
columns (:func:`~finsetrep.exactla.parse_columns`) and :func:`write_module`
writes every block from its columns, so no dense matrix is built on the way
and round-trips are bit-exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import catcore
from .catcore import (
    DELTA, F, FI, N, CategoryTag, DeltaMor, NMor, ParseError, SetMap,
    category_tag, coface_map, codegen_map, compose_in, enumerate_hom,
    factor_values, forget, hom_count, identity_delta, identity_map,
    identity_n, increasing_fibers, injection_chain, lift, parse_count,
    permutation_chain, random_mor, surjection_chain, transposition_map,
)
from .exactla import Matrix, coefficient, parse_columns, reduce


class FunctorialityError(ValueError):
    """A backend failed the functor laws or produced inconsistent data."""


class CatModule:
    """A truncated matrix-valued functor on one of the four categories.

    ``dims[n]`` is the dimension of the value at ``[n]`` for every level
    ``0..max_level``; Delta modules have no level 0 and carry ``dims[0] == 0``
    by convention.  Instances are immutable; all evaluation is pure.
    ``_elementary`` maps each elementary key to the sparse columns of its
    block, or is ``None`` for a rule module.  ``memo`` holds data derived
    from the module (invariant bases, straightened columns of a rule), so
    it is freed together with the module.
    """

    __slots__ = ("category", "max_level", "dims", "name", "memo", "_rule", "_elementary")

    def __init__(self, category, max_level, dims, *, columns=None, elementary=None, name=""):
        if not isinstance(category, CategoryTag):
            raise ValueError("category must be a CategoryTag")
        if max_level < 1:
            raise ValueError("max_level must be at least 1")
        dims = tuple(int(d) for d in dims)
        if len(dims) != max_level + 1:
            raise ValueError("dims must list levels 0..max_level")
        if any(d < 0 for d in dims):
            raise ValueError("dimensions are nonnegative")
        if category is DELTA and dims[0] != 0:
            raise ValueError("Delta modules carry dims[0] == 0")
        if (columns is None) == (elementary is None):
            raise ValueError("exactly one backend (columns rule or elementary matrices) is required")
        self.category = category
        self.max_level = max_level
        self.dims = dims
        self.name = name
        self.memo = {}
        self._rule = columns
        self._elementary = elementary

    @property
    def levels(self):
        return range(1 if self.category is DELTA else 0, self.max_level + 1)

    def __repr__(self):
        return "CatModule(%s, max_level=%d, dims=%r, name=%r)" % (
            self.category, self.max_level, self.dims, self.name)

    # -- morphism admission ------------------------------------------------

    def _coerce(self, f):
        cat = self.category
        if cat is N:
            if not isinstance(f, NMor):
                raise ValueError("%s expects N-morphisms, got %r" % (self, f))
        elif cat is DELTA:
            if not isinstance(f, DeltaMor):
                raise ValueError("%s expects Delta morphisms, got %r" % (self, f))
        else:
            if not isinstance(f, SetMap):
                raise ValueError("%s expects set maps, got %r" % (self, f))
            if cat is FI and not f.is_injective():
                raise ValueError("FI morphisms are injective: %r" % (f,))
        if f.dom > self.max_level or f.cod > self.max_level:
            raise ValueError("morphism endpoints [%d]->[%d] exceed truncation %d"
                             % (f.dom, f.cod, self.max_level))
        return f

    # -- evaluation ---------------------------------------------------------

    def columns(self, f):
        """Sparse columns of the acting matrix: for each basis vector of the
        source, a tuple of ``(row, coeff)`` pairs sorted by row, with ``coeff``
        an ``int`` when integral and a ``Fraction`` otherwise."""
        if self._rule is not None:
            f = self._coerce(f)
            return _normalize_columns(self._rule(f), self.dims[f.cod])
        return self.evaluator()(f)

    def evaluator(self):
        """A function equal to :meth:`columns`, for evaluating many morphisms.

        An elementary module writes ``f`` as ``iota o pi o sigma``
        (:func:`~finsetrep.catcore.factor_values`) and returns
        ``V(iota o pi) . V(sigma)``, each factor the product of its
        elementary blocks along the chains of :mod:`~finsetrep.catcore`.
        The function keeps the factors it has built in two tables, ``V(sigma)``
        by ``sigma`` and ``V(iota o pi)`` by ``(pi, image, cod)`` (in Delta,
        where ``sigma`` is the identity, by ``(values, cod)``), and the tables
        live exactly as long as the function.  A rule module returns its own
        :meth:`columns`.
        """
        if self._rule is not None:
            return self.columns
        coerce, blocks, dims = self._coerce, self._elementary, self.dims
        delta, nmor = self.category is DELTA, self.category is N
        perms, monos = {}, {}

        def fold(keys, dim):
            cols = None
            for key in reversed(keys):
                b = blocks[key]
                cols = b if cols is None else compose_columns(b, cols)
            return identity_columns(dim) if cols is None else cols

        def monotone(pi, image, cod):
            m, r = len(pi), len(image)
            return fold([("coface", n, i) for n, i in injection_chain(SetMap._raw(r, cod, image))]
                        + [("codegen", n, i) for n, i in surjection_chain(SetMap._raw(m, r, pi))],
                        dims[m])

        def evaluate(f):
            f = coerce(f)
            if delta:
                key = (f.map.values, f.cod)
                got = monos.get(key)
                if got is None:
                    _, pi, image = factor_values(increasing_fibers(f.map))
                    got = monos[key] = monotone(pi, image, f.cod)
                return got
            sigma, pi, image = factor_values(f.fiber_orders if nmor else increasing_fibers(f))
            s = perms.get(sigma)
            if s is None:
                s = perms[sigma] = fold([("transp", n, i) for n, i in permutation_chain(sigma)],
                                        dims[len(sigma)])
            key = (pi, image, f.cod)
            t = monos.get(key)
            if t is None:
                t = monos[key] = monotone(pi, image, f.cod)
            return compose_columns(t, s)

        return evaluate

    def act(self, f):
        """Dense acting matrix, of shape ``dims[cod] x dims[dom]``."""
        return Matrix.from_sparse(self.columns(f), self.dims[f.cod])


def _normalize_columns(cols, nrows):
    """``cols`` as sparse columns: zero entries dropped, coefficients by
    :func:`~finsetrep.exactla.coefficient`, each column sorted by row.  A
    row outside ``0..nrows-1``, or named twice in one column, raises
    ``ValueError``."""
    out = []
    for col in cols:
        clean = tuple(sorted((r, c if type(c) is int else coefficient(c))
                             for r, c in col if c))
        if clean and not (0 <= clean[0][0] and clean[-1][0] < nrows):
            raise ValueError("column entry out of range")
        if len(clean) > 1 and len({r for r, _ in clean}) < len(clean):
            raise ValueError("column repeats a row")
        out.append(clean)
    return tuple(out)


def compose_columns(gcols, fcols):
    """Sparse columns of ``g`` applied after the columns of ``f``.

    An empty column stays empty and a column ``((r, 1),)`` of ``f`` is column
    ``r`` of ``g`` itself; other columns are accumulated in ``int`` until a
    ``Fraction`` coefficient enters, and integral results come back as
    ``int``.
    """
    return tuple([col if not col else
                  gcols[col[0][0]] if len(col) == 1 and col[0][1] == 1 else
                  _combine(gcols, col) for col in fcols])


def _combine(gcols, col):
    acc = {}
    for r, c in col:
        for r2, c2 in gcols[r]:
            acc[r2] = acc.get(r2, 0) + c * c2
    return tuple(sorted((r, c if type(c) is int else coefficient(c))
                        for r, c in acc.items() if c))


def identity_columns(dim):
    return tuple(((j, 1),) for j in range(dim))


def _identity_mor(cat, n):
    if cat is N:
        return identity_n(n)
    if cat is DELTA:
        return identity_delta(n)
    return identity_map(n)


def permutation_action(V, values):
    """Columns of ``V`` acting on the bijection with one-line form ``values``."""
    n = len(values)
    sm = SetMap(n, n, values)
    if not sm.is_bijective():
        raise ValueError("not a bijection: %r" % (values,))
    if V.category is N:
        return V.columns(lift(sm))
    if V.category is DELTA:
        raise ValueError("Delta has no nontrivial bijections to act with")
    return V.columns(sm)


# ---------------------------------------------------------------------------
# functor-law certification

@dataclass(frozen=True)
class FunctorialityReport:
    passed: bool
    pairs_checked: int
    exhaustive: bool
    counterexample: tuple | None   # ("identity", n) or (f, g)

    def __str__(self):
        if self.passed:
            return "functoriality ok (%d pairs, %s)" % (
                self.pairs_checked, "exhaustive" if self.exhaustive else "sampled")
        return "functoriality FAILED after %d pairs: %r" % (self.pairs_checked, self.counterexample)


def check_coxeter(taus, n):
    """Certify that the sparse columns ``taus`` of ``tau_1 .. tau_(n-1)``
    satisfy the Coxeter relations of ``S_n``: ``tau_i^2 = 1``, the braid
    relation ``tau_i tau_(i+1) tau_i = tau_(i+1) tau_i tau_(i+1)`` and
    ``tau_i tau_j = tau_j tau_i`` for ``|i - j| >= 2``.  The first relation
    that fails raises :class:`FunctorialityError` naming it and the level."""
    def fail(relation):
        raise FunctorialityError("Coxeter relation %s fails at level %d" % (relation, n))

    for i, a in enumerate(taus, 1):
        if compose_columns(a, a) != identity_columns(len(a)):
            fail("tau_%d^2 = 1" % i)
        for j in range(i + 1, n):
            b = taus[j - 1]
            ab, ba = compose_columns(a, b), compose_columns(b, a)
            if j == i + 1:
                if compose_columns(a, ba) != compose_columns(b, ab):
                    fail("tau_%d tau_%d tau_%d = tau_%d tau_%d tau_%d" % (i, j, i, j, i, j))
            elif ab != ba:
                fail("tau_%d tau_%d = tau_%d tau_%d" % (i, j, j, i))


def check_relations(V):
    """Certify ``V`` by the defining relations of its category.

    The checks run in this order, and the first that fails raises
    :class:`FunctorialityError` naming it:

    * level by level, the Coxeter relations of the adjacent transpositions
      (:func:`check_coxeter`);
    * ``V(e2) V(e1) = V(e2 o e1)`` for every composable pair ``e1``, ``e2``
      of elementary morphisms (cofaces, codegeneracies, transpositions),
      in file order of ``e1``, then of ``e2``; ``V`` is the module's
      evaluator.  The message names the pair by its block labels.

    *Sound:* every check is an instance of the functor law, so every functor
    passes.

    *Complete* for an elementary module.  Write ``P(w)`` for the product of
    the blocks along a word ``w`` in the elementary morphisms.  The evaluator
    returns ``P(c(f))``, where ``c(f)`` is the canonical chain of ``f``: the
    cofaces of ``iota``, the codegeneracies of ``pi``, then the
    transpositions of ``sigma``.  So ``V(e) = P(e)`` for each elementary
    ``e``, and ``V`` is a functor exactly when ``P`` respects every relation
    of a presentation of the category.  N without ``[0]`` is the crossed
    simplicial group Delta-S (Fiedorowicz-Loday 1991; Pirashvili-Richter
    2002), with this presentation:

    * the cosimplicial identities among cofaces and codegeneracies (with
      ``[0]``, those of the augmented simplex category);
    * the Coxeter relations of each ``S_n``;
    * the crossed relations ``tau_i o e = e' o sigma``, which move a
      transposition to the right of a coface or codegeneracy ``e``;
    * in F also ``s_i o tau_i = s_i``.  FI drops the codegeneracies and
      Delta the transpositions.

    Each relation is checked.  Both sides of a cosimplicial identity, of
    ``tau_i^2 = 1``, of a commutation, of ``s_i o tau_i = s_i`` and of a
    crossed relation at a coface have length at most 2.  A side of length 2
    equals the evaluator on the composite by a pair check, and a shorter side
    is its own canonical chain, so both sides agree.  The braid relation is
    checked as it stands.  A crossed relation at a codegeneracy may have a
    right side of length 3 (a 3-cycle after ``s_j``), but that side is the
    canonical chain of the composite, which the pair check compares with the
    left side.  These relations rewrite every word into canonical form:
    transpositions move right, then the cosimplicial identities and the
    Coxeter relations normalize the monotone part and the permutation.  In F,
    a fiber order that is not increasing is absorbed by ``s_i o tau_i = s_i``.
    No rewriting step passes through a level above the highest level of the
    word, so the argument holds within the truncation.

    On a rule module the checks are sound but not complete; a rule is
    certified through its elementary copy (:func:`check_functoriality`).
    """
    cat = V.category
    columns = V.evaluator()
    keys = elementary_keys(cat, V.max_level)
    gens = {key: elementary_morphism(cat, key) for key in keys}
    blocks = {key: columns(e) for key, e in gens.items()}
    if cat is not DELTA:
        for n in range(2, V.max_level + 1):
            check_coxeter([blocks["transp", n, i] for i in range(1, n)], n)
    for k1 in keys:
        e1 = gens[k1]
        for k2 in keys:
            e2 = gens[k2]
            if e2.dom == e1.cod and (compose_columns(blocks[k2], blocks[k1])
                                     != columns(compose_in(cat, e2, e1))):
                raise FunctorialityError("relation %s %d %d o %s %d %d fails" % (k2 + k1))


def _relations_certify(V):
    """Whether :func:`check_relations` certifies ``V``: an elementary module
    directly; a rule module through its elementary copy, which must also
    agree with the rule on every morphism within the truncation."""
    E = V if V._elementary is not None else from_elementary(
        V.category, V.max_level, V.dims, to_elementary(V))
    try:
        check_relations(E)
    except FunctorialityError:
        return False
    if E is V:
        return True
    evaluate = E.evaluator()
    return all(V.columns(f) == evaluate(f) for a in V.levels for b in V.levels
               for f in enumerate_hom(V.category, a, b))


def check_functoriality(V, trials=500, seed=0):
    """Certify the functor laws on ``V``.

    Checks ``act(id) = id`` at every level, then ``act(g o f) = act(g) act(f)``
    on composable pairs: exhaustively when the total number of pairs within
    the truncation is at most ``trials``, else on ``trials`` pairs drawn from
    a ``random.Random(seed)``.  Deterministic given ``seed``.

    An exhaustive check, and every check of an elementary module, certifies
    by the defining relations first (:func:`check_relations`; a rule module
    through its elementary copy).  When they hold, every pair holds: an
    exhaustive report counts all ``total`` pairs as covered, and a sampled
    one is the report its ``trials`` draws would give, returned without
    drawing them.  When they fail, an exhaustive check walks the pairs in
    the order ``a, b, c, g, f`` (``f: [a] -> [b]``, ``g: [b] -> [c]``), so
    the report names the first failing pair; a walk that finds none
    contradicts the relation check and raises ``RuntimeError``.  A sampled
    check of a rule module, or of an elementary module that fails its
    relations, runs its seeded draws.  The walk and the draws run one loop,
    ``V(g o f) = V(g) V(f)`` on sparse columns, with the columns of each
    morphism kept for the call.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    cat = V.category
    levels = list(V.levels)
    columns = V.evaluator()
    for n in levels:
        if columns(_identity_mor(cat, n)) != identity_columns(V.dims[n]):
            return FunctorialityReport(False, 0, False, ("identity", n))

    def pair_count():
        total = 0
        for a in levels:
            for b in levels:
                hab = hom_count(cat, a, b)
                if not hab:
                    continue
                for c in levels:
                    total += hab * hom_count(cat, b, c)
                    if total > trials:
                        return total
        return total

    total = pair_count()
    exhaustive = total <= trials
    if (exhaustive or V._elementary is not None) and _relations_certify(V):
        return FunctorialityReport(True, min(total, trials), exhaustive, None)
    if exhaustive:
        homs = {(a, b): enumerate_hom(cat, a, b) for a in levels for b in levels}
        pairs = ((f, g) for a in levels for b in levels for c in levels
                 for g in homs[b, c] for f in homs[a, b])
    else:
        def draws():
            rng = random.Random(seed)
            while True:
                a, b, c = (rng.choice(levels) for _ in range(3))
                if hom_count(cat, a, b) and hom_count(cat, b, c):
                    f = random_mor(cat, a, b, rng)
                    yield f, random_mor(cat, b, c, rng)

        pairs = itertools.islice(draws(), trials)
    cache = {}

    def cols(m):
        got = cache.get(m)
        if got is None:
            got = cache[m] = columns(m)
        return got

    for checked, (f, g) in enumerate(pairs, 1):
        if cols(compose_in(cat, g, f)) != compose_columns(cols(g), cols(f)):
            return FunctorialityReport(False, checked, exhaustive, (f, g))
    if exhaustive:
        raise RuntimeError("%r fails its defining relations but passes all %d composable pairs"
                           % (V, total))
    return FunctorialityReport(True, trials, False, None)


# ---------------------------------------------------------------------------
# restriction along psi (Delta -> N) and phi (N -> F)

def restrict(V, along):
    """Restrict a module along one of the canonical functors.

    ``along="psi"`` turns an N-module into a Delta module by acting through
    increasing-fiber lifts of monotone maps; ``along="phi"`` turns an
    F-module into an N-module by forgetting fiber orders.

    A rule module is evaluated through the functor.  An elementary module
    is relabeled: its psi restriction keeps the coface and codegeneracy
    blocks at levels ``>= 1``, which equals ``V(lift(d))`` on every Delta
    morphism ``d`` even when ``V`` is no functor, because the permutation
    ``sigma`` of a lift is the identity.  Its phi restriction is the same
    blocks as an N-module, which equals ``V(forget(f))`` on every
    N-morphism ``f`` whenever ``V`` is an F-functor, since both evaluate
    the canonical chain of ``f``.
    """
    blocks = V._elementary
    if along == "psi":
        if V.category is not N:
            raise ValueError("psi restriction applies to N-modules")
        dims = (0,) + V.dims[1:]
        name = "%s|Delta" % (V.name or "V")
        if blocks is not None:
            return CatModule(DELTA, V.max_level, dims, name=name, elementary={
                key: blocks[key] for key in elementary_keys(DELTA, V.max_level)})
        columns = V.evaluator()
        return CatModule(DELTA, V.max_level, dims, columns=lambda d: columns(lift(d)), name=name)
    if along == "phi":
        if V.category is not F:
            raise ValueError("phi restriction applies to F-modules")
        name = "%s|N" % (V.name or "V")
        if blocks is not None:
            return CatModule(N, V.max_level, V.dims, elementary=blocks, name=name)
        columns = V.evaluator()
        return CatModule(N, V.max_level, V.dims, columns=lambda f: columns(forget(f)), name=name)
    raise ValueError("unknown restriction %r" % (along,))


# ---------------------------------------------------------------------------
# direct sums

def direct_sum(V, W):
    if V.category is not W.category or V.max_level != W.max_level:
        raise ValueError("direct summands must share category and truncation")
    dims = tuple(a + b for a, b in zip(V.dims, W.dims))

    def columns(f):
        shift = V.dims[f.cod]
        vcols = V.columns(f)
        wcols = tuple(tuple((r + shift, c) for r, c in col) for col in W.columns(f))
        return vcols + wcols

    return CatModule(V.category, V.max_level, dims, columns=columns,
                     name="%s+%s" % (V.name or "V", W.name or "W"))


# ---------------------------------------------------------------------------
# generation degree

@dataclass(frozen=True)
class GenerationCertificate:
    """Witness that all levels are spanned by images of vectors from levels
    at most ``degree``; ``degree is None`` when even the full truncation does
    not span (truncation too small to certify)."""
    degree: int | None
    spanned: bool
    witnesses: dict

    def __str__(self):
        if self.spanned:
            return "generated in degree %d" % self.degree
        return "not generated within truncation"


def _spans_from(V, g):
    columns = V.evaluator()
    witnesses = {}
    for n in V.levels:
        if V.dims[n] == 0:
            witnesses[n] = ()
            continue
        if n <= g:
            ident = catcore.format_mor(_identity_mor(V.category, n))
            witnesses[n] = tuple((ident, j) for j in range(V.dims[n]))
            continue
        vectors = []       # collected sparse columns
        provenance = []
        for j in range(1 if V.category is DELTA else 0, g + 1):
            if V.dims[j] == 0:
                continue
            for f in enumerate_hom(V.category, j, n):
                for idx, col in enumerate(columns(f)):
                    if col:
                        vectors.append(col)
                        provenance.append((catcore.format_mor(f), idx))
        if not vectors:
            return None
        rref, rk, pivots = reduce(Matrix.from_sparse(vectors, V.dims[n]))
        if rk < V.dims[n]:
            return None
        witnesses[n] = tuple(provenance[p - 1] for p in pivots)
    return witnesses


def generation_degree(V):
    """Smallest ``g`` such that every level is spanned by images of vectors
    living in levels at most ``g``; reports failure (never raises) when the
    truncation cannot certify any ``g``."""
    for g in V.levels:
        witnesses = _spans_from(V, g)
        if witnesses is not None:
            return GenerationCertificate(g, True, witnesses)
    return GenerationCertificate(None, False, {})


# ---------------------------------------------------------------------------
# elementary backends and the catmod/1 file format

def elementary_keys(category, max_level):
    """All elementary-morphism labels for the category, in file order."""
    lo = 1 if category is DELTA else 0
    keys = []
    for n in range(lo, max_level):
        for i in range(1, n + 2):
            keys.append(("coface", n, i))
    if category is not FI:
        for n in range(max(lo, 1), max_level):
            for i in range(1, n + 1):
                keys.append(("codegen", n, i))
    if category is not DELTA:
        for n in range(2, max_level + 1):
            for i in range(1, n):
                keys.append(("transp", n, i))
    return tuple(keys)


def elementary_morphism(category, key):
    kind, n, i = key
    if kind == "coface":
        sm = coface_map(n, i)
    elif kind == "codegen":
        sm = codegen_map(n, i)
    elif kind == "transp":
        sm = transposition_map(n, i)
    else:
        raise ValueError("unknown elementary kind %r" % (kind,))
    if category is DELTA:
        return DeltaMor(sm)
    if category is N:
        return lift(sm)
    return sm


def elementary_shape(dims, key):
    kind, n, i = key
    if kind == "coface":
        return dims[n + 1], dims[n]
    if kind == "codegen":
        return dims[n], dims[n + 1]
    return dims[n], dims[n]


def to_elementary(V):
    """The sparse columns of ``V`` on every elementary morphism; the
    resulting dict backs an equivalent elementary module."""
    return {
        key: V.columns(elementary_morphism(V.category, key))
        for key in elementary_keys(V.category, V.max_level)
    }


def from_elementary(category, max_level, dims, blocks, name=""):
    """Build an elementary-backed module from ``{key: columns}``, the sparse
    columns of each elementary block.  Each block is validated and
    normalized here (:func:`_normalize_columns`, plus its column count); the
    functor laws are certified separately by :func:`check_functoriality`."""
    expected = elementary_keys(category, max_level)
    if set(blocks) != set(expected):
        raise ValueError("elementary matrix set does not match the category/truncation")
    dims = tuple(dims)
    normal = {}
    for key in expected:
        rows, width = elementary_shape(dims, key)
        if len(blocks[key]) != width:
            raise ValueError("block %r has %d columns, expected %d" % (key, len(blocks[key]), width))
        try:
            normal[key] = _normalize_columns(blocks[key], rows)
        except ValueError as e:
            raise ValueError("block %r: %s" % (key, e)) from None
    return CatModule(category, max_level, dims, elementary=normal, name=name)


def write_module(V):
    """Serialize to the catmod/1 text form, each block from sparse columns."""
    lines = [
        "catmod/1",
        "category %s" % V.category,
        "max_level %d" % V.max_level,
        "dims %s" % " ".join(str(d) for d in V.dims),
    ]
    blocks = to_elementary(V) if V._elementary is None else V._elementary
    for key in elementary_keys(V.category, V.max_level):
        lines.append("%s %d %d" % key)
        rows, width = elementary_shape(V.dims, key)
        if not rows:
            continue
        grid = [["0"] * width for _ in range(rows)]
        for j, col in enumerate(blocks[key]):
            for r, c in col:
                grid[r][j] = str(c)
        lines.append("\n".join(" ".join(row) for row in grid))
    return "\n".join(lines) + "\n"


def read_module(text, name=""):
    lines = text.splitlines()
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of module file (expected %s)" % what, line=pos + 1)
        line = lines[pos]
        pos += 1
        return line

    if take("header") != "catmod/1":
        raise ParseError("not a catmod/1 file", line=1)
    cat_line = take("category line").split()
    if len(cat_line) != 2 or cat_line[0] != "category":
        raise ParseError("bad category line", line=pos)
    try:
        category = category_tag(cat_line[1])
    except ValueError as e:
        raise ParseError(str(e), line=pos) from None
    lvl_line = take("max_level line").split()
    if len(lvl_line) != 2 or lvl_line[0] != "max_level":
        raise ParseError("bad max_level line", line=pos)
    max_level = parse_count(lvl_line[1], "max_level", pos, minimum=1)
    dims_line = take("dims line").split()
    if not dims_line or dims_line[0] != "dims":
        raise ParseError("bad dims line", line=pos)
    dims = tuple(parse_count(x, "dims entry", pos) for x in dims_line[1:])
    if len(dims) != max_level + 1:
        raise ParseError("dims line must list levels 0..max_level", line=pos)
    if category is DELTA and dims[0] != 0:
        raise ParseError("Delta modules carry dims[0] == 0", line=pos)
    blocks = {}
    for key in elementary_keys(category, max_level):
        header = take("matrix header").split()
        try:
            got = (header[0], int(header[1]), int(header[2])) if len(header) == 3 else None
        except ValueError:
            got = None
        if got != key:
            raise ParseError("expected matrix block %r, got %r" % (key, " ".join(header)), line=pos)
        at = pos
        rows, cols = elementary_shape(dims, key)
        block = [take("matrix row") for _ in range(rows)]
        try:
            blocks[key] = parse_columns(block, rows, cols)
        except ValueError as e:
            raise ParseError("block %r: %s" % (key, e), line=at) from None
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise ParseError("trailing content after module blocks", line=pos + 1)
    # parse_columns builds every block sorted, zero-free, in range and of
    # its width, which is all from_elementary would check
    return CatModule(category, max_level, dims, elementary=blocks, name=name)
