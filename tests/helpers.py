"""Dense views of elementary blocks, for tests that build or edit a block
entry by entry, and a dense Gauss-Jordan elimination as an oracle for the
sparse one in ``exactla``."""

from fractions import Fraction

from finsetrep.exactla import Matrix
from finsetrep.repmod import elementary_keys, elementary_morphism


def dense_blocks(V):
    """Every elementary block of ``V`` as a dense :class:`Matrix`."""
    return {key: V.act(elementary_morphism(V.category, key))
            for key in elementary_keys(V.category, V.max_level)}


def sparse_blocks(mats):
    """Dense blocks ``{key: Matrix}`` as the sparse columns that
    ``from_elementary`` takes."""
    return {key: tuple(tuple((i, row[j]) for i, row in enumerate(m.data) if row[j])
                       for j in range(m.cols))
            for key, m in mats.items()}


def dense_rref(a):
    """``(rref, rank, pivot_cols)`` of ``a`` by column-by-column Gauss-Jordan
    on a dense grid, with 1-based pivot columns, as ``exactla.reduce``
    returns them."""
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
        if pv != 1:
            inv = Fraction(1) / pv
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
    return Matrix(nrows, ncols, m), r, tuple(pivots)
