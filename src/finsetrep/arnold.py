"""The graded algebra presented by degree-one generators ``w(a,b)`` subject
to symmetry ``w(a,b) = w(b,a)``, square-zero, anticommutativity in degree
one, and the three-term relation

    w(a,b) w(b,c) + w(b,c) w(c,a) + w(c,a) w(a,b) = 0,

the classical presentation of the cohomology of ordered configurations of
points in the plane.  Its degree-``i`` part at ``n`` points is packaged as an
F-module: a set map acts on generators by ``w(a,b) -> w(f(a), f(b))`` when
the images differ and by zero when they collide, extended multiplicatively
and then straightened back into the admissible basis.

Admissible basis: products ``w(a1,b1)...w(ai,bi)`` with ``aj < bj`` and
``b1 < b2 < ... < bi``.  Counting admissible words shows the degree-``i``
dimension at ``n`` points is the elementary symmetric polynomial
``e_i(1, ..., n-1)``, i.e. the ``t^i`` coefficient of the product
``(1+t)(1+2t)...(1+(n-1)t)`` -- the oracle the test-suite recomputes
independently.

Straightening sorts factors (with anticommutation signs) by their larger
index and resolves a repeated larger index ``b`` through

    w(x,b) w(y,b) = w(x,y) w(y,b) - w(x,y) w(x,b),

an instance of the three-term relation.  Each rewrite strictly decreases the
multiset of larger indices, so the recursion terminates; confluence is not
assumed but evidenced by the functoriality certificate that module
construction requires (a seeded sample of 300 composable pairs).

The module's rule straightens each image word once per target level and
keeps the resulting column in the module's ``memo``; there are at most as
many entries as sequences of ``i`` factors on at most ``max_level`` points,
and they are freed with the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .catcore import F
from .repmod import CatModule, FunctorialityError, check_functoriality


def _normalize_factor(a, b):
    return (a, b) if a < b else (b, a)


def _straighten(pairs):
    """Straighten a word of normalized ``(a, b)`` factors.

    Returns a dict mapping admissible words to integer coefficients.
    """
    items = list(pairs)
    sign = 1
    # insertion sort by (larger index, smaller index), tracking the parity
    for i in range(1, len(items)):
        j = i
        while j > 0 and (items[j - 1][1], items[j - 1][0]) > (items[j][1], items[j][0]):
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(items) - 1):
        if items[i] == items[i + 1]:
            return {}
    for i in range(len(items) - 1):
        (x, b), (y, b2) = items[i], items[i + 1]
        if b == b2:
            head, tail = items[:i], items[i + 2:]
            xy = _normalize_factor(x, y)
            out = {}
            for coeff, mid in ((1, (xy, (y, b))), (-1, (xy, (x, b)))):
                for word, c in _straighten(tuple(head) + mid + tuple(tail)).items():
                    total = out.get(word, 0) + sign * coeff * c
                    if total:
                        out[word] = total
                    elif word in out:
                        del out[word]
            return out
    return {tuple(items): sign}


def admissible_basis(n, degree):
    """Admissible degree-``degree`` words on ``n`` points, in sorted order."""
    if degree == 0:
        return ((),)
    words = []
    for bs in itertools.combinations(range(2, n + 1), degree):
        for as_ in itertools.product(*[range(1, b) for b in bs]):
            words.append(tuple(zip(as_, bs)))
    return tuple(sorted(words))


def arnold_dim(degree, n):
    """Number of admissible degree-``degree`` words on ``n`` points."""
    if degree < 0 or n < 1:
        raise ValueError("need degree >= 0 and n >= 1")
    return len(admissible_basis(n, degree))


@dataclass(frozen=True)
class OSElement:
    """Exact linear combination of admissible words at one level and degree."""
    level: int
    degree: int
    terms: tuple   # ((word, Fraction), ...) sorted by word, nonzero only

    def __str__(self):
        if not self.terms:
            return "0"
        parts = ["%s * %s" % (c, format_word(w)) for w, c in self.terms]
        return " + ".join(parts)


def format_word(word):
    if not word:
        return "1"
    return "".join("w(%d,%d)" % (a, b) for a, b in word)


def straighten(pairs, n):
    """Express a product of generators ``w(a1,b1)...w(ai,bi)`` in the
    admissible basis at level ``n``.  Indices must lie in ``1..n`` and each
    factor must have distinct indices.  Idempotent on basis words."""
    pairs = tuple(pairs)
    for a, b in pairs:
        if a == b:
            raise ValueError("generator w(%d,%d) has equal indices" % (a, b))
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError("generator w(%d,%d) out of range 1..%d" % (a, b, n))
    normalized = tuple(_normalize_factor(a, b) for a, b in pairs)
    acc = _straighten(normalized)
    terms = tuple(sorted((w, Fraction(c)) for w, c in acc.items()))
    return OSElement(n, len(pairs), terms)


def arnold_module(degree, max_level, *, certify_trials=300, seed=0):
    """The degree-``degree`` part of the algebra as an F-module.

    Construction certifies the functor laws (seeded sample of composable
    pairs) and refuses to return an inconsistent backend: a failure here
    would mean the straightening or the generator action rule is wrong.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    bases = {n: admissible_basis(n, degree) for n in range(max_level + 1)}
    index = {n: {w: i for i, w in enumerate(bases[n])} for n in bases}
    dims = tuple(len(bases[n]) for n in range(max_level + 1))

    def columns(f):
        values = f.values
        cod = f.cod
        # straightened columns of image words, per target level: row
        # indices depend on the level the word lands in
        straightened = memo.get(("arnold", cod))
        if straightened is None:
            straightened = memo[("arnold", cod)] = {}
        cols = []
        for word in bases[f.dom]:
            image = []
            for a, b in word:
                fa, fb = values[a - 1], values[b - 1]
                if fa == fb:
                    image = None
                    break
                image.append((fa, fb) if fa < fb else (fb, fa))
            if image is None:
                cols.append(())
                continue
            image = tuple(image)
            col = straightened.get(image)
            if col is None:
                tgt = index[cod]
                col = straightened[image] = tuple(sorted(
                    (tgt[w], c) for w, c in _straighten(image).items()))
            cols.append(col)
        return cols

    module = CatModule(F, max_level, dims, columns=columns, name="arnold-h%d" % degree)
    memo = module.memo      # the rule holds the memo, not the module: no cycle
    report = check_functoriality(module, trials=certify_trials, seed=seed)
    if not report.passed:
        raise FunctorialityError(
            "generator action failed certification: %s" % report)
    return module
