"""Symmetric-group invariants over the rationals, the induced map between
invariant subspaces, and the monotonicity / replication checkers.

Invariants at level ``n`` are the image of the averaging projector
``P = (1/n!) sum_sigma act(sigma)`` -- the canonical characteristic-zero
realization of the coinvariants-to-invariants isomorphism.  ``P`` is never
summed: it is computed from the ``n - 1`` adjacent transpositions
``tau_i`` alone.

* The Coxeter relations ``tau_i^2 = 1``, ``tau_i tau_(i+1) tau_i =
  tau_(i+1) tau_i tau_(i+1)`` and ``tau_i tau_j = tau_j tau_i``
  (``|i - j| >= 2``) are checked on the sparse action columns first
  (:func:`~finsetrep.repmod.check_coxeter`), so the
  generators really define an ``S_n`` action; a failure raises
  :class:`~finsetrep.repmod.FunctorialityError` naming relation and level.
* ``V^{S_n}`` is the common kernel of the ``tau_i - 1``, intersected one
  generator at a time; its columns ``B`` span the image of ``P``.
* The invariant functionals ``Phi`` are the common kernel of the
  ``tau_i^T - 1``.  Their joint kernel is ``sum_i im(tau_i - 1)``, which is
  the span of all ``sigma v - v`` and hence exactly the kernel of ``P``.
* A projector is determined by its image and kernel, so
  ``P = B (Phi B)^(-1) Phi`` is the averaging projector entry for entry.

The work per level is a handful of eliminations of size ``dims[n]``
instead of ``n!`` matrix evaluations.  Results are memoized on the module
itself (``CatModule.memo``) and are freed with it.

The induced map of a set map ``f: [n] -> [n']`` between invariant subspaces
is ``(average at n') o act(f)`` restricted to the invariants at ``n``,
expressed in the reduced-echelon bases; bare set maps act through their
canonical (increasing-fiber) lifts when the module lives over N, a
convention certified harmless wherever the action descends through the
forgetful functor.

The replication checker builds the block-collapse map ``[n*m] -> [n]``
(each block of ``m`` consecutive points to one point) and asks whether the
induced map between invariant subspaces is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catcore import (
    DELTA, N, NMor, SetMap, forget, format_mor, lift, transposition_map,
)
from .exactla import ONE, ZERO, Matrix, kernel, reduce, solve
from .repmod import FunctorialityError, check_coxeter, permutation_action


@dataclass(frozen=True)
class InvariantBasis:
    """Basis of the fixed subspace at one level, with its averaging
    projector.  Columns are in reduced-echelon order."""
    level: int
    basis: Matrix       # dims[n] x (invariant dimension)
    projector: Matrix   # dims[n] x dims[n], idempotent

    @property
    def dim(self):
        return self.basis.cols


def _transpositions(V, n):
    """Sparse columns of ``tau_1 .. tau_(n-1)`` at level ``n``, certified
    against the Coxeter relations of ``S_n``."""
    if V.category is DELTA:
        raise ValueError("Delta modules carry no symmetric-group action")
    taus = [permutation_action(V, transposition_map(n, i).values) for i in range(1, n)]
    check_coxeter(taus, n)
    return taus


def _minus_identity(cols, d):
    """Dense ``g - 1`` for the sparse columns of ``g``."""
    grid = [[ZERO] * d for _ in range(d)]
    for j, col in enumerate(cols):
        grid[j][j] -= ONE
        for r, c in col:
            grid[r][j] += c
    return Matrix(d, d, grid)


def _common_kernel(mats, d):
    """Columns spanning the vectors killed by every matrix in ``mats``; the
    kernels are intersected one matrix at a time."""
    span = Matrix.identity(d)
    for m in mats:
        if not span.cols:
            break
        span = span * kernel(m * span)
    return span


def _averaging_projector(moves, basis):
    """``(1/n!) sum_sigma act(sigma)`` from the moves ``tau_i - 1`` and a
    basis of their common kernel: ``B (Phi B)^(-1) Phi``."""
    d, k = basis.rows, basis.cols
    if k == d:
        return Matrix.identity(d)
    if k == 0:
        return Matrix.zeros(d, d)
    functionals = _common_kernel([m.transpose() for m in moves], d).transpose()
    return basis * solve(functionals * basis, functionals)


def invariants_basis(V, n):
    """Invariant subspace of ``V[n]`` with its averaging projector."""
    key = ("invariants", n)
    got = V.memo.get(key)
    if got is None:
        if n < 0 or n > V.max_level:
            raise ValueError("level %d out of range" % n)
        d = V.dims[n]
        moves = [_minus_identity(t, d) for t in _transpositions(V, n)] if d else []
        rref, rank, _ = reduce(_common_kernel(moves, d).transpose())
        basis = Matrix(rank, d, rref.data[:rank]).transpose()
        got = V.memo[key] = InvariantBasis(n, basis, _averaging_projector(moves, basis))
    return got


def barred_map(V, f):
    """Matrix of the induced map between invariant subspaces.

    ``f`` may be a set map or an N-morphism; it is coerced to the module's
    category (bare set maps lift canonically into N).  The result is
    expressed in the invariant bases of source and target levels.
    """
    if V.category is N and isinstance(f, SetMap):
        f = lift(f)
    elif V.category is not N and isinstance(f, NMor):
        f = forget(f)
    src = invariants_basis(V, f.dom)
    tgt = invariants_basis(V, f.cod)
    image = tgt.projector * (V.act(f) * src.basis)
    coords = solve(tgt.basis, image)
    if coords is None:
        raise FunctorialityError("averaged image of %s escaped the invariants at level %d"
                                 % (format_mor(f), f.cod))
    return coords


@dataclass(frozen=True)
class MonotonicityReport:
    levels: tuple
    dims: tuple
    passed: bool

    def __str__(self):
        seq = " ".join(str(d) for d in self.dims)
        return "invariant dims [%s]: %s" % (seq, "nondecreasing" if self.passed else "DECREASE")


def monotonicity_check(V, n_range):
    """Dimensions of the invariant subspaces over ``n_range`` plus a
    nondecreasing verdict."""
    levels = tuple(n_range)
    if any(n < 1 or n > V.max_level for n in levels):
        raise ValueError("levels out of range 1..%d" % V.max_level)
    dims = tuple(invariants_basis(V, n).dim for n in levels)
    passed = all(a <= b for a, b in zip(dims, dims[1:]))
    return MonotonicityReport(levels, dims, passed)


def replication_map(n, m):
    """The set map ``[n*m] -> [n]`` collapsing consecutive blocks of ``m``."""
    if n < 1 or m < 1:
        raise ValueError("replication parameters must be positive")
    return SetMap(n * m, n, tuple((x - 1) // m + 1 for x in range(1, n * m + 1)))


@dataclass(frozen=True)
class ReplicationReport:
    n: int
    m: int
    source_dim: int
    target_dim: int
    matrix: Matrix
    passed: bool

    def __str__(self):
        verdict = "isomorphism" if self.passed else "NOT an isomorphism"
        return "replication (n=%d, m=%d): invariants %d -> %d, %s" % (
            self.n, self.m, self.source_dim, self.target_dim, verdict)


def replication_iso_check(V, n, m):
    """Check that block collapse induces a bijection on invariants.

    The induced map goes from the invariants at level ``n*m`` to the
    invariants at level ``n``; the report records both dimensions and the
    matrix, and passes only for a square invertible matrix.
    """
    if n * m > V.max_level:
        raise ValueError("n*m exceeds the truncation")
    f = replication_map(n, m)
    mat = barred_map(V, f)
    square = mat.rows == mat.cols
    invertible = square and reduce(mat)[1] == mat.rows
    return ReplicationReport(n, m, mat.cols, mat.rows, mat, invertible)
