"""Dense views of elementary blocks, for tests that build or edit a block
entry by entry."""

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
