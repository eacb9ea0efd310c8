"""Cochain complexes and both directions of the cosimplicial Dold-Kan
correspondence, truncated and exact.

Indexing convention: the object ``[n]`` (n elements) sits in cosimplicial
degree ``n - 1``, so the one-term complex with a single line in degree ``p``
realizes to a Delta module of level dimensions ``C(n-1, p)``.

Conormalization sends a Delta module ``V`` to the complex whose degree-``p``
part is the intersection of the kernels of the ``p`` codegeneracy maps
``V[p+1] -> V[p]``, with differential the alternating coface sum restricted
to those kernels.  Realization goes the other way: it is built by duality
from the standard simplicial construction (one summand per monotone
surjection, with identity and differential blocks), with all structure maps
transposed; finite dimensions make the dualization exact.

The level dimensions of any Delta module therefore agree with the binomial
polynomial ``sum_p m_p * C(n-1, p)`` built from the conormalized dimensions.
:func:`conormalize` enforces that agreement at every level (zero residual)
and raises otherwise; :func:`dim_polynomial` reads the polynomial off the
conormalized dimensions and does not check it a second time.

Cochain text format (versioned header ``cochain/1``): top degree, dimension
line, then one labeled matrix block per differential.
"""

from __future__ import annotations

import itertools
from math import comb

from .catcore import (
    DELTA, DeltaMor, ParseError, coface_map, codegen_map, parse_count,
)
from .chars import BinomialPolynomial
from .exactla import ONE, Matrix, format_matrix, kernel, parse_matrix, solve
from .repmod import CatModule, FunctorialityError, compose_columns


class CochainComplex:
    """Nonnegatively graded cochain complex with exact differentials.

    ``dims[p]`` for ``p = 0..top``; ``diffs[p]`` is the matrix of
    ``d: C^p -> C^(p+1)`` (shape ``dims[p+1] x dims[p]``) for ``p < top``.
    ``d o d = 0`` is validated at construction.
    """

    __slots__ = ("top", "dims", "diffs")

    def __init__(self, top, dims, diffs):
        dims = tuple(int(d) for d in dims)
        diffs = tuple(diffs)
        if top < 0:
            raise ValueError("top degree must be nonnegative")
        if len(dims) != top + 1:
            raise ValueError("dims must list degrees 0..top")
        if len(diffs) != top:
            raise ValueError("expected %d differentials" % top)
        for p, d in enumerate(diffs):
            if d.shape != (dims[p + 1], dims[p]):
                raise ValueError("differential %d has shape %r, expected %r"
                                 % (p, d.shape, (dims[p + 1], dims[p])))
        for p in range(top - 1):
            if not (diffs[p + 1] * diffs[p]).is_zero():
                raise ValueError("d o d != 0 at degree %d" % p)
        self.top = top
        self.dims = dims
        self.diffs = diffs

    def __eq__(self, other):
        if not isinstance(other, CochainComplex):
            return NotImplemented
        return (self.top, self.dims, self.diffs) == (other.top, other.dims, other.diffs)

    def __repr__(self):
        return "CochainComplex(top=%d, dims=%r)" % (self.top, self.dims)


def one_term_complex(p, dim=1):
    """The complex with a single ``dim``-dimensional line in degree ``p``."""
    dims = [0] * (p + 1)
    dims[p] = dim
    diffs = [Matrix.zeros(dims[q + 1], dims[q]) for q in range(p)]
    return CochainComplex(p, dims, diffs)


def _stacked_codegeneracies(columns, dims, n):
    """The ``n - 1`` codegeneracies ``V[n] -> V[n-1]`` stacked into one
    matrix, the ``i``-th in the ``i``-th block of ``dims[n-1]`` rows."""
    stacked = [[] for _ in range(dims[n])]
    for i in range(1, n):
        offset = (i - 1) * dims[n - 1]
        for col, block in zip(stacked, columns(DeltaMor(codegen_map(n - 1, i)))):
            col.extend((offset + r, c) for r, c in block)
    return Matrix.from_sparse(stacked, (n - 1) * dims[n - 1])


def _coface_sum(columns, dims, n):
    """Alternating sum of the coface actions ``V[n] -> V[n+1]``: the cofaces
    side by side, applied to columns of signs."""
    side_by_side = tuple(col for i in range(1, n + 2)
                         for col in columns(DeltaMor(coface_map(n, i))))
    signs = tuple(tuple((i * dims[n] + j, -1 if i % 2 else 1) for i in range(n + 1))
                  for j in range(dims[n]))
    return Matrix.from_sparse(compose_columns(side_by_side, signs), dims[n + 1])


def conormalize(V):
    """Cochain complex of a Delta module.

    Degree ``p`` is carried by the intersection of the codegeneracy kernels
    inside ``V[p+1]``; the output satisfies ``d o d = 0`` and the binomial
    dimension identity at every level up to the truncation.  Inconsistent
    codegeneracy data (a non-functor) raises ``FunctorialityError``.
    """
    if V.category is not DELTA:
        raise ValueError("conormalize applies to Delta modules")
    top = V.max_level - 1
    columns = V.evaluator()
    bases = [Matrix.identity(V.dims[1])]
    bases += [kernel(_stacked_codegeneracies(columns, V.dims, n)) for n in range(2, top + 2)]
    dims = tuple(b.cols for b in bases)
    diffs = []
    for p in range(top):
        image = _coface_sum(columns, V.dims, p + 1) * bases[p]
        coords = solve(bases[p + 1], image)
        if coords is None:
            raise FunctorialityError(
                "coface sum does not preserve codegeneracy kernels at degree %d" % p)
        diffs.append(coords)
    complex_ = CochainComplex(top, dims, diffs)
    for n in range(1, V.max_level + 1):
        expected = sum(dims[p] * comb(n - 1, p) for p in range(top + 1))
        if expected != V.dims[n]:
            raise FunctorialityError(
                "dimension identity fails at level %d: %d != %d" % (n, expected, V.dims[n]))
    return complex_


def dim_polynomial(V):
    """Binomial dimension polynomial of a Delta module.

    The coefficients are the conormalized dimensions; :func:`conormalize`
    has already checked agreement with ``V.dims`` at every level.
    """
    return BinomialPolynomial(conormalize(V).dims)


# ---------------------------------------------------------------------------
# realization

def monotone_surjections(n, r):
    """Value tuples of all monotone surjections ``[n] -> [r]``, sorted."""
    if r > n or r < 1:
        return ()
    out = []
    for ascents in itertools.combinations(range(1, n), r - 1):
        vals = [1]
        for j in range(1, n):
            vals.append(vals[-1] + (1 if j in ascents else 0))
        out.append(tuple(vals))
    return tuple(sorted(out))


def realize(C, max_level):
    """Delta module realizing the complex ``C``.

    Level ``n`` carries one block of dimension ``dims C^p`` per monotone
    surjection ``[n] -> [p+1]``, so level dimensions are
    ``sum_p dim C^p * C(n-1, p)``.  A monotone map ``[m] -> [n]`` acts
    blockwise: composing a level-``n`` surjection with the map either stays
    surjective (identity block), drops exactly the top target point
    (differential block), or neither (zero block).
    """
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    offsets = {}        # level -> {(p, eta): first row}, in summand order
    dims = [0] * (max_level + 1)
    for n in range(1, max_level + 1):
        offs = offsets[n] = {}
        for p in range(C.top + 1):
            if C.dims[p]:
                for eta in monotone_surjections(n, p + 1):
                    offs[(p, eta)] = dims[n]
                    dims[n] += C.dims[p]

    def columns(d):
        m, n = d.map.dom, d.map.cod
        dvals = d.map.values
        offs_m = offsets[m]
        # summands come in row order, so each column's rows come out sorted
        cols = [[] for _ in range(dims[m])]
        for (p, eta), roff in offsets[n].items():
            theta = tuple(eta[v - 1] for v in dvals)
            hit = set(theta)
            if len(hit) == p + 1:
                # still surjective: identity block into the (p, theta) summand
                coff = offs_m[(p, theta)]
                for t in range(C.dims[p]):
                    cols[coff + t].append((roff + t, ONE))
            elif p >= 1 and C.dims[p - 1] and len(hit) == p and max(theta) == p:
                # misses exactly the top point: differential block
                coff = offs_m[(p - 1, theta)]
                for t, row in enumerate(C.diffs[p - 1].data):
                    for u, x in enumerate(row):
                        if x:
                            cols[coff + u].append((roff + t, x))
        return tuple(tuple(col) for col in cols)

    return CatModule(DELTA, max_level, tuple(dims), columns=columns,
                     name="realize(top=%d)" % C.top)


# ---------------------------------------------------------------------------
# cochain/1 text form

def write_complex(C):
    lines = [
        "cochain/1",
        "top %d" % C.top,
        "dims %s" % " ".join(str(d) for d in C.dims),
    ]
    for p, d in enumerate(C.diffs):
        lines.append("d %d" % p)
        if d.rows:
            lines.append(format_matrix(d))
    return "\n".join(lines) + "\n"


def read_complex(text):
    lines = text.splitlines()
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of cochain file (expected %s)" % what, line=pos + 1)
        line = lines[pos]
        pos += 1
        return line

    if take("header") != "cochain/1":
        raise ParseError("not a cochain/1 file", line=1)
    top_line = take("top line").split()
    if len(top_line) != 2 or top_line[0] != "top":
        raise ParseError("bad top line", line=pos)
    top = parse_count(top_line[1], "top", pos)
    dims_line = take("dims line").split()
    if not dims_line or dims_line[0] != "dims":
        raise ParseError("bad dims line", line=pos)
    dims = tuple(parse_count(x, "dims entry", pos) for x in dims_line[1:])
    if len(dims) != top + 1:
        raise ParseError("dims line must list degrees 0..top", line=pos)
    diffs = []
    headers = []    # line of each differential's header
    for p in range(top):
        header = take("differential header").split()
        if header != ["d", str(p)]:
            raise ParseError("expected differential block d %d" % p, line=pos)
        headers.append(pos)
        rows, cols = dims[p + 1], dims[p]
        block = [take("matrix row") for _ in range(rows)]
        try:
            diffs.append(parse_matrix(block, rows, cols))
        except ValueError as e:
            raise ParseError("differential %d: %s" % (p, e), line=headers[p]) from None
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise ParseError("trailing content after cochain blocks", line=pos + 1)
    try:
        return CochainComplex(top, dims, diffs)
    except ValueError as e:
        # shapes were checked block by block, so d o d = 0 is what failed:
        # locate it at the header of the second differential of the first
        # nonzero composite
        bad = [p for p in range(top - 1) if not (diffs[p + 1] * diffs[p]).is_zero()]
        raise ParseError(str(e), line=headers[bad[0] + 1] if bad else None) from None
