"""Exact linear algebra over the rationals.

Maps are carried in one of two forms.  :class:`Matrix` is an immutable dense
matrix whose entries are `fractions.Fraction` values (automatically in lowest
terms with positive denominator); elimination, kernels and solving work on
it.  *Sparse columns* hold, for each column, the ``(row, coeff)`` pairs of
its nonzero entries sorted by row, with ``coeff`` an ``int`` when integral
and a ``Fraction`` otherwise (:func:`coefficient`); the elementary blocks of
a module live in this form from file to evaluator, and
:meth:`Matrix.from_sparse` densifies it.  All computations are exact; no
floating point appears anywhere.

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
    def from_columns(cls, columns, rows):
        cols = len(columns)
        data = [[ZERO] * cols for _ in range(rows)]
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column %d has wrong length" % j)
            for i, x in enumerate(col):
                data[i][j] = x
        return cls(rows, cols, data)

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

    def __neg__(self):
        return Matrix._make(self.rows, self.cols,
                            tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition: %r vs %r" % (self.shape, other.shape))
        return Matrix._make(
            self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)),
        )

    def __sub__(self, other):
        return self + (-other)

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


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of no matrices")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack column mismatch")
    data = tuple(row for m in mats for row in m.data)
    return Matrix._make(len(data), cols, data)


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of no matrices")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
    return Matrix._make(rows, sum(m.cols for m in mats), data)


def reduce(a):
    """Reduced row-echelon form of ``a``.

    Returns ``(rref, rank, pivot_cols)`` where ``pivot_cols`` is a tuple of
    1-based column indices, matching the 1-based set conventions used
    throughout the package.
    """
    m = [list(row) for row in a.data]
    nrows, ncols = a.rows, a.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != ONE:
            inv = ONE / pv
            m[r] = [x * inv for x in m[r]]
        mr = m[r]
        for i in range(nrows):
            if i != r:
                t = m[i][c]
                if t:
                    mi = m[i]
                    for j in range(c, ncols):
                        if mr[j]:
                            mi[j] -= t * mr[j]
        pivots.append(c + 1)
        r += 1
        if r == nrows:
            break
    rref = Matrix._make(nrows, ncols, tuple(tuple(row) for row in m))
    return rref, r, tuple(pivots)


def rank(a):
    return reduce(a)[1]


def kernel(a):
    """Basis of the null space of ``a`` as the columns of the result.

    The result has ``a.cols`` rows and ``a.cols - rank(a)`` columns, and
    satisfies ``a * kernel(a) = 0`` exactly.
    """
    rref, rk, pivots = reduce(a)
    pivot_set = set(pivots)
    free = [c for c in range(1, a.cols + 1) if c not in pivot_set]
    columns = []
    for f in free:
        v = [ZERO] * a.cols
        v[f - 1] = ONE
        for row_idx, p in enumerate(pivots):
            v[p - 1] = -rref.data[row_idx][f - 1]
        columns.append(v)
    return Matrix.from_columns(columns, a.cols)


def solve(a, b):
    """Solve ``a @ X = b`` exactly; returns ``X`` or None when inconsistent.

    When the system is underdetermined, free variables are set to zero.
    """
    if a.rows != b.rows:
        raise ValueError("solve: row mismatch %r vs %r" % (a.shape, b.shape))
    aug = hstack([a, b])
    rref, rk, pivots = reduce(aug)
    if any(p > a.cols for p in pivots):
        return None
    x = [[ZERO] * b.cols for _ in range(a.cols)]
    for row_idx, p in enumerate(pivots):
        x[p - 1] = list(rref.data[row_idx][a.cols:])
    return Matrix(a.cols, b.cols, x)


class LinearSystem:
    """Incremental exact solver for ``A x = b`` kept in reduced form.

    Equations are added one at a time; :meth:`add` returns False exactly when
    the new equation is inconsistent with the ones already present, which lets
    callers report the first offending equation.
    """

    def __init__(self, num_vars):
        self.num_vars = num_vars
        self._rows = []     # reduced rows, each a list of length num_vars + 1
        self._pivots = []   # 0-based pivot column per stored row

    def add(self, coeffs, rhs):
        if len(coeffs) != self.num_vars:
            raise ValueError("equation has wrong number of coefficients")
        row = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
        row.append(rhs if type(rhs) is Fraction else Fraction(rhs))
        for stored, p in zip(self._rows, self._pivots):
            t = row[p]
            if t:
                for j in range(p, self.num_vars + 1):
                    if stored[j]:
                        row[j] -= t * stored[j]
        pivot = next((j for j in range(self.num_vars) if row[j]), None)
        if pivot is None:
            return not row[self.num_vars]
        pv = row[pivot]
        if pv != ONE:
            inv = ONE / pv
            row = [x * inv for x in row]
        for stored, p in zip(self._rows, self._pivots):
            t = stored[pivot]
            if t:
                for j in range(pivot, self.num_vars + 1):
                    if row[j]:
                        stored[j] -= t * row[j]
        self._rows.append(row)
        self._pivots.append(pivot)
        return True

    def solution(self):
        """A particular solution with free variables set to zero."""
        x = [ZERO] * self.num_vars
        for row, p in zip(self._rows, self._pivots):
            x[p] = row[self.num_vars]
        return x


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
