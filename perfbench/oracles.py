"""Known answers computed without the package's own code paths.

Closed forms (binomials, the Poincare product, subset counting, finite
differences, the rational cohomology of the braid groups) and a plain
reader for catmod/1 blocks that checks elementary identities by direct
multiplication, so a corrupted file is known to be wrong before any
certifier looks at it.
"""

from fractions import Fraction
from math import comb


def poincare_coefficients(n):
    """Coefficients of ``prod_{k=1}^{n-1} (1 + k t)``: the dimensions of the
    plane-configuration cohomology at ``n`` points, by degree."""
    coeffs = [1]
    for k in range(1, n):
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def arnold_dims(degree, max_level):
    """Level dimensions ``0..max_level`` of the degree-``degree`` F-module."""
    out = [1 if degree == 0 else 0]
    for n in range(1, max_level + 1):
        coeffs = poincare_coefficients(n)
        out.append(coeffs[degree] if degree < len(coeffs) else 0)
    return tuple(out)


def simple_dims(which, max_level, k=None):
    if which == "Ck":
        return tuple(comb(n, k) for n in range(max_level + 1))
    if which == "D0":
        return (1,) + (0,) * max_level
    if which == "D1":
        return (0,) + (1,) * max_level
    if which == "order-sign":
        return (1,) * (max_level + 1)
    raise ValueError(which)


def realized_dims(complex_dims, max_level):
    """Level dimensions of the realization: ``sum_p dim C^p * C(n-1, p)``."""
    return (0,) + tuple(sum(d * comb(n - 1, p) for p, d in enumerate(complex_dims))
                        for n in range(1, max_level + 1))


def normalized_dims(level_dims):
    """Finite differences of the Delta levels ``1..L``: the dimensions of
    the normalized complex, degree ``0..L-1``."""
    seq = level_dims[1:]
    return tuple(sum((-1) ** (p - j) * comb(p, j) * seq[j] for j in range(p + 1))
                 for p in range(len(seq)))


def subset_character(k, partition):
    """Number of ``k``-subsets fixed setwise by a permutation of the given
    cycle type: the ``t^k`` coefficient of ``prod (1 + t^part)``."""
    coeffs = [1]
    for part in partition:
        grown = coeffs + [0] * part
        for i, c in enumerate(coeffs):
            grown[i + part] += c
        coeffs = grown
    return coeffs[k] if k < len(coeffs) else 0


def invariant_dim(kind, n):
    """Dimension of the ``S_n``-invariants at level ``n``.

    ``Ck``: the k-subsets form one orbit once ``n >= k``.  ``Hi``: the
    invariants are the rational cohomology of the braid group, which is the
    rationals in degrees 0 and 1 (``n >= 2``) and zero above.
    """
    if kind in ("D1", "H0"):
        return 1
    if kind == "H1":
        return 1 if n >= 2 else 0
    if kind == "H2":
        return 0
    k = int(kind[1:])
    return 1 if n >= k else 0


def dim_polynomial_text(coefficients):
    """``finsetrep doldkan dimpoly`` output for the given binomial coefficients."""
    terms = [str(m) if p == 0 else "%d*C(n-1,%d)" % (m, p)
             for p, m in enumerate(coefficients) if m]
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# catmod/1 blocks, read directly

def read_blocks(text):
    """``(lines, {key: (first row line, rows)})`` for every matrix block."""
    lines = text.split("\n")
    dims = [int(x) for x in lines[3].split()[1:]]
    blocks = {}
    i = 4
    while i < len(lines) and lines[i]:
        kind, n, j = lines[i].split()
        key = (kind, int(n), int(j))
        rows = dims[key[1] + 1] if kind == "coface" else dims[key[1]]
        blocks[key] = (i + 1, rows)
        i += 1 + rows
    return lines, blocks


def _matrix(lines, block):
    first, rows = block
    return [[Fraction(tok) for tok in lines[first + r].split()] for r in range(rows)]


def _sparse(lines, block):
    """The nonzero entries of a block, one ``{column: value}`` per row."""
    first, rows = block
    return [{c: Fraction(tok) for c, tok in enumerate(lines[first + r].split()) if tok != "0"}
            for r in range(rows)]


def _is_identity_near(a, b, row, col):
    """True when row ``row`` and column ``col`` of ``a b`` are those of the
    identity; ``None`` skips that line.  ``a`` and ``b`` are sparse rows.
    A change to row ``row`` of ``a`` or column ``col`` of ``b`` shows only
    there, so set-up multiplies the nonzero entries of one line of the
    product, not the whole product, whatever block the seed picks."""
    if row is not None:
        line = {}
        for t, x in a[row].items():
            for j, y in b[t].items():
                line[j] = line.get(j, 0) + x * y
        if {j: v for j, v in line.items() if v} != {row: 1}:
            return False
    if col is not None:
        for i, entries in enumerate(a):
            if sum(x * b[t].get(col, 0) for t, x in entries.items()) != (i == col):
                return False
    return True


def _witness_pairs(key):
    kind, n, i = key
    if kind == "coface":
        return [(("codegen", n, j), key) for j in (i, i - 1)]
    if kind == "codegen":
        return [(key, ("coface", n, j)) for j in (i, i + 1)]
    return [(key, key)]


def failing_identity(lines, blocks, key, row, col):
    """An elementary identity through ``key`` that the blocks violate:
    ``s_j o d_i = id`` for ``i in (j, j+1)``, or ``t_i o t_i = id``.  Only
    entry ``(row, col)`` of block ``key`` differs from a file whose
    identities hold, so only the product lines through it are checked."""
    for outer, inner in _witness_pairs(key):
        if outer in blocks and inner in blocks:
            a, b = _sparse(lines, blocks[outer]), _sparse(lines, blocks[inner])
            if not _is_identity_near(a, b, row if outer == key else None, col if inner == key else None):
                return "%s %d %d o %s %d %d != id" % (outer + inner)
    return None


def all_blocks_unit(text):
    """True when every block is the 1x1 matrix ``1``: the constant functor."""
    lines, blocks = read_blocks(text)
    return all(_matrix(lines, b) == [[1]] for b in blocks.values())


def corrupt(text, rng):
    """Add 1 to one seeded entry of one elementary block whose identities
    can witness the change.  Returns ``(text, key)`` or ``None`` when the
    file has no entry a witness identity covers."""
    lines, blocks = read_blocks(text)
    keys = [key for key, (first, rows) in blocks.items()
            if rows and lines[first].split() and not (key[0] == "coface" and key[1] == 0)]
    if not keys:
        return None
    for _ in range(100):
        key = rng.choice(keys)
        first, rows = blocks[key]
        row = rng.randrange(rows)
        tokens = lines[first + row].split()
        c = rng.randrange(len(tokens))
        tokens[c] = str(Fraction(tokens[c]) + 1)
        changed = list(lines)
        changed[first + row] = " ".join(tokens)
        if failing_identity(changed, blocks, key, row, c):
            return "\n".join(changed), key
    return None
