"""Exact linear algebra over the rationals.

Maps are carried in one of two forms.  :class:`Matrix` is an immutable dense
matrix whose entries are `fractions.Fraction` values (automatically in lowest
terms with positive denominator).  *Sparse columns* hold, for each column,
the ``(row, coeff)`` pairs of its nonzero entries sorted by row, with
``coeff`` an ``int`` when integral and a ``Fraction`` otherwise
(:func:`coefficient`); the elementary blocks of a module live in this form
from file to evaluator.  A dense matrix is built from its rows or, from
sparse columns, by :meth:`Matrix.from_sparse`; a sum or stack of maps is
formed on their sparse columns first, and the only dense stack is
:func:`hstack`, the augmented system of :func:`solve`.

There is one elimination loop, :func:`eliminate`: row-sparse Gauss-Jordan on
``{col: coeff}`` rows, whose coefficients stay integers until a pivot
divides.  :func:`null_vectors` reads a kernel off its result;
:func:`reduce` is its dense view, and :func:`rank`, :func:`kernel` and
:func:`solve` read their answers off it directly.  All computations are
exact; no floating point appears anywhere.

Text form: one line per row, entries separated by single spaces, each entry
written ``p/q`` or as a bare integer ``p`` meaning ``p/1``.  Matrices with a
zero dimension are only representable where the shape is known from context,
so :func:`parse_columns` and :func:`parse_matrix` take the expected shape.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Matrix:
    """Immutable ``rows x cols`` matrix of exact rationals.

    ``data`` is a tuple of row tuples.  Do not mutate.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in data
        )
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("matrix data does not match shape %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _make(cls, rows, cols, data):
        # Trusted constructor: data must already be a tuple of Fraction tuples.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_sparse(cls, columns, rows):
        """The ``rows x len(columns)`` matrix with the given sparse columns."""
        data = [[ZERO] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col:
                data[i][j] = x
        return cls(rows, len(columns), data)

    @classmethod
    def identity(cls, n):
        return cls._make(
            n, n,
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
        )

    @classmethod
    def zeros(cls, rows, cols):
        row = (ZERO,) * cols
        return cls._make(rows, cols, (row,) * rows)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %r * %r" % (self.shape, other.shape))
        out = []
        ocols = other.cols
        odata = other.data
        for arow in self.data:
            acc = [ZERO] * ocols
            for k, aik in enumerate(arow):
                if aik:
                    brow = odata[k]
                    if aik == ONE:
                        for j, bv in enumerate(brow):
                            if bv:
                                acc[j] += bv
                    else:
                        for j, bv in enumerate(brow):
                            if bv:
                                acc[j] += aik * bv
            out.append(tuple(acc))
        return Matrix._make(self.rows, ocols, tuple(out))

    def transpose(self):
        return Matrix._make(self.cols, self.rows, tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

    def is_zero(self):
        return all(not x for row in self.data for x in row)


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of no matrices")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
    return Matrix._make(rows, sum(m.cols for m in mats), data)


def eliminate(rows):
    """Reduced row-echelon form of the span of sparse ``rows``.

    Each row is a ``{col: coeff}`` dict of its nonzero entries.  Returns
    ``[(pivot, row), ...]`` sorted by pivot, each ``row`` such a dict whose
    lowest column is ``pivot``, with entry 1 there and no entry in any other
    pivot column.  Rows are added one at a time: a new row is reduced by the
    pivots so far, its lowest column becomes a pivot, and that column is
    cleared from the other rows.  Coefficients stay ``int`` until a pivot
    divides (:func:`coefficient`).  The RREF of a row space is unique, so
    the rows are the nonzero rows of :func:`reduce` entry for entry.
    """
    echelon = {}
    for row in rows:
        r = dict(row)
        for p in [c for c in r if c in echelon]:
            _subtract(r, r[p], echelon[p])
        if not r:
            continue
        p = min(r)
        pv = r[p]
        if pv == -1:
            r = {c: -x for c, x in r.items()}
        elif pv != 1:
            r = {c: coefficient(Fraction(x, pv)) for c, x in r.items()}
        for e in echelon.values():
            if p in e:
                _subtract(e, e[p], r)
        echelon[p] = r
    return sorted(echelon.items())


def _subtract(r, t, e):
    """``r -= t * e`` in place, dropping the entries that become zero."""
    for c, x in e.items():
        y = r.get(c, 0) - t * x
        if y:
            r[c] = y
        else:
            r.pop(c, None)


def null_vectors(echelon, ncols):
    """One sparse kernel vector per free column ``f`` of ``echelon`` (as
    :func:`eliminate` returns it): 1 at ``f`` and minus each pivot row's
    entry in ``f`` at that pivot, as ``(index, coeff)`` pairs sorted by
    index."""
    free = {f: [] for f in range(ncols)}
    for p, _ in echelon:
        del free[p]
    for p, row in echelon:
        for c, x in row.items():
            if c in free:
                free[c].append((p, -x))
    return [tuple(col) + ((f, 1),) for f, col in free.items()]


def _rows(a):
    """The rows of ``a`` as ``{col: coeff}`` dicts of their nonzero entries."""
    return [{j: coefficient(x) for j, x in enumerate(row) if x} for row in a.data]


def reduce(a):
    """Reduced row-echelon form of ``a``: the dense view of :func:`eliminate`.

    Returns ``(rref, rank, pivot_cols)`` where ``pivot_cols`` is a tuple of
    1-based column indices, matching the 1-based set conventions used
    throughout the package.
    """
    echelon = eliminate(_rows(a))
    rank = len(echelon)
    rows = [row.items() for _, row in echelon] + [()] * (a.rows - rank)
    rref = Matrix.from_sparse(rows, a.cols).transpose()
    return rref, rank, tuple(p + 1 for p, _ in echelon)


def rank(a):
    return len(eliminate(_rows(a)))


def kernel(a):
    """Basis of the null space of ``a`` as the columns of the result.

    The result has ``a.cols`` rows and ``a.cols - rank(a)`` columns, and
    satisfies ``a * kernel(a) = 0`` exactly.
    """
    return Matrix.from_sparse(null_vectors(eliminate(_rows(a)), a.cols), a.cols)


def solve(a, b):
    """Solve ``a @ X = b`` exactly; returns ``X`` or None when inconsistent.

    When the system is underdetermined, free variables are set to zero.
    """
    if a.rows != b.rows:
        raise ValueError("solve: row mismatch %r vs %r" % (a.shape, b.shape))
    echelon = eliminate(_rows(hstack([a, b])))
    if any(p >= a.cols for p, _ in echelon):
        return None
    x = [[ZERO] * b.cols for _ in range(a.cols)]
    for p, row in echelon:
        for c, v in row.items():
            if c >= a.cols:
                x[p][c - a.cols] = v
    return Matrix(a.cols, b.cols, x)


def format_matrix(a):
    return "\n".join(" ".join(str(x) for x in row) for row in a.data)


def parse_columns(lines, rows, cols):
    """Parse ``rows`` text lines into the sparse columns of a ``rows x cols``
    matrix.

    ``lines`` is a sequence of strings (no newlines).  Each entry reads as
    ``coefficient(Fraction(entry))``, and a zero entry adds nothing.  Raises
    ValueError with the offending row/column on malformed input.
    """
    if len(lines) != rows:
        raise ValueError("expected %d matrix rows, got %d" % (rows, len(lines)))
    seen = {}       # token -> value; module files repeat a few tokens
    out = [[] for _ in range(cols)]
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != cols:
            raise ValueError("matrix row %d: expected %d entries, got %d" % (i + 1, cols, len(tokens)))
        for j, tok in enumerate(tokens):
            x = seen.get(tok)
            if x is None:
                try:
                    x = seen[tok] = _parse_entry(tok)
                except (ValueError, ZeroDivisionError):
                    raise ValueError("matrix row %d, entry %d: bad rational %r" % (i + 1, j + 1, tok)) from None
            if x:
                out[j].append((i, x))
    return tuple(map(tuple, out))


def parse_matrix(lines, rows, cols):
    """:func:`parse_columns`, densified into a :class:`Matrix`."""
    return Matrix.from_sparse(parse_columns(lines, rows, cols), rows)


def coefficient(c):
    """``c`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _parse_entry(tok):
    """``coefficient(Fraction(tok))``, with bare decimal integers read by
    ``int``."""
    digits = tok[1:] if tok[:1] in "+-" else tok
    return int(tok) if digits.isdecimal() else coefficient(Fraction(tok))
