"""Band matrices as stacks of blocks, and their block algebra.

A symmetric matrix ``T`` of half bandwidth ``w`` is block tridiagonal in
``w x w`` blocks, and is held as two stacks (:class:`Blocks`): its diagonal
blocks ``A_k`` and the blocks ``B_k`` below them.  This module draws the GOE
band model in that form (:func:`goe`; Dumitriu and Edelman, J. Math. Phys.
43, 2002), whose diagonal blocks are GOE(``w``) and whose blocks below are
Bartlett triangles, adds strengths to the leading block
(:func:`with_strengths`) and reads a leading window back as a dense matrix
(:func:`window`).  Block cyclic reduction (Heller, SIAM J. Numer. Anal. 13,
1976) of ``T - c I``, batched over the shifts ``c``, counts eigenvalues
(:func:`inertia`) and solves (:func:`solve`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Blocks(NamedTuple):
    """The band matrix ``T`` as two stacks, its ``w x w`` diagonal blocks
    ``A_k`` and the blocks ``B_k`` below them, the last block padded with
    zero rows and columns, and how many of the stacks' rows are ``T``'s."""

    diag: np.ndarray
    below: np.ndarray
    rows: int

    def leading(self, count: int) -> Blocks:
        """The stacks of ``T``'s leading ``count`` blocks, all of ``T`` from
        its block count on."""
        if count >= self.diag.shape[0]:
            return self
        return Blocks(self.diag[:count], self.below[: count - 1],
                      count * self.diag.shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``T``'s leading ``r`` rows and columns times ``x``, for ``x`` with
        ``r <= rows`` rows.  Vectors live on their working rows, where
        ``T``'s product is exact: when the last ``w`` rows of ``x`` are zero,
        this is ``T`` times ``x`` padded with zeros to ``rows`` rows, on its
        leading ``r`` rows and bit for bit, and that product is exactly zero
        below them.  ``x`` padded to whole blocks ``x_k``, then ``y_k = A_k
        x_k + B_(k-1) x_(k-1) + B_k^T x_(k+1)`` as three batched matmuls,
        O(r w) work per column."""
        rows, width = x.shape[0], self.diag.shape[1]
        count = -(-rows // width)
        diag, below = self.diag[:count], self.below[: count - 1]
        blocks = np.zeros((count * width, x.shape[1]))
        blocks[:rows] = x
        blocks = blocks.reshape(count, width, -1)
        y = diag @ blocks
        y[1:] += below @ blocks[:-1]
        y[:-1] += below.swapaxes(-1, -2) @ blocks[1:]
        return y.reshape(count * width, -1)[:rows]


def goe(n: int, width: int, gen: np.random.Generator) -> Blocks:
    """A GOE matrix reduced to half bandwidth ``width``, as its block stacks.

    Householder reflections on coordinates ``width + 1 .. n``, then on the
    next ``width`` after those and so on, take a GOE matrix to a block
    tridiagonal one.  Its diagonal blocks are GOE(``width``), N(0, 2/n) on
    the diagonal and N(0, 1/n) off it; the block below block ``k`` (1-based)
    is the R factor of the Gaussian columns beneath it, a Bartlett triangle
    (upper, as ``B_k`` holds it) with ``chi`` of ``n - k width - i + 1``
    degrees of freedom over ``sqrt(n)`` on its diagonal (row ``i``) and
    N(0, 1/n) above.  The draws run down ``T``'s diagonals: ``width`` rows of
    ``n`` normals, ``T[i + j, i]`` from row ``j`` (the diagonal's times
    ``sqrt(2)``, the draws past ``T``'s corner unused), then the ``chi`` of
    ``T[i + width, i]`` for ``i`` up from 0.  The reflections fix the leading
    ``width`` coordinates, so adding strengths there commutes with them.
    """
    count = -(-n // width)
    diag = np.zeros((count, width, width))
    below = np.zeros((count - 1, width, width))
    normal = gen.standard_normal((width, n))
    normal[0] *= math.sqrt(2.0)
    chi = np.sqrt(gen.chisquare(np.arange(n - width, 0, -1)))
    # Row k, column c of diagonal j's entries is T[k w + c + j, k w + c]: in
    # A_k at (c + j, c) and its mirror (c, c + j) while c + j < width, in B_k
    # at (c + j - width, c) after, strided slices of the flattened blocks.
    flat_diag = diag.reshape(count, width * width)
    flat_below = below.reshape(count - 1, width * width)
    for j in range(width + 1):
        entries = np.zeros((count, width))
        entries.flat[: n - j] = (normal[j, : n - j] if j < width else chi) / math.sqrt(n)
        flat_diag[:, j * width:: width + 1] = entries[:, : width - j]
        flat_diag[:, j: (width - j) * width: width + 1] = entries[:, : width - j]
        flat_below[:, width - j: j * width: width + 1] = entries[:-1, width - j:]
    return Blocks(diag, below, n)


def with_strengths(t: Blocks, thetas: np.ndarray) -> Blocks:
    """``t`` with ``thetas`` added to its leading diagonal entries, which
    lie in its first block; the stack below is shared."""
    diag = t.diag.copy()
    diag[0][np.diag_indices(thetas.size)] += thetas
    return t._replace(diag=diag)


def window(t: Blocks, size: int) -> np.ndarray:
    """The leading ``size`` rows and columns of the band matrix, dense."""
    width = t.diag.shape[1]
    count = -(-size // width)
    out = np.zeros((count, width, count, width))
    k = np.arange(count)
    out[k, :, k] = t.diag[:count]
    out[k[1:], :, k[:-1]] = t.below[: count - 1]
    out[k[:-1], :, k[1:]] = t.below[: count - 1].swapaxes(-1, -2)
    return np.ascontiguousarray(out.reshape(count * width, -1)[:size, :size])


def _shifted_blocks(blocks: Blocks, shifts: np.ndarray):
    """``T - c I`` for each ``c`` of ``shifts``: its stacks of diagonal
    blocks and of the blocks below them, and how many rows pad the last
    block.  Padding rows are isolated, at ``-1``."""
    count, width = blocks.diag.shape[:2]
    pivots = blocks.diag[None] - shifts[:, None, None, None] * np.eye(width)
    padding = count * width - blocks.rows
    for row in range(width - padding, width):
        pivots[:, -1, row, row] = -1.0
    return (pivots, np.broadcast_to(blocks.below, (shifts.size,) + blocks.below.shape),
            padding)


def _eliminate_odd(pivots: np.ndarray, below: np.ndarray,
                   inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of block cyclic reduction: the Schur complement on the even
    blocks once the odd ones, whose pivots have the inverses ``inverse``,
    are eliminated, as its diagonal blocks and the blocks below them.

    Eliminated block ``2q + 1`` couples up to kept block ``q`` through
    ``B_2q`` and down to kept block ``q + 1`` through ``B_2q+1``.
    """
    up, down = below[:, 0::2], below[:, 1::2]
    lower = down.shape[1]
    kept = pivots[:, 0::2].copy()
    kept[:, : up.shape[1]] -= up.swapaxes(-1, -2) @ inverse @ up
    scaled = down @ inverse[:, :lower]  # B_2q+1 P^-1, for both products
    kept[:, 1: lower + 1] -= scaled @ down.swapaxes(-1, -2)
    return kept, -(scaled @ up[:, :lower])


def inertia(blocks: Blocks,
            shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many eigenvalues of the band matrix ``T``, given by its block
    stacks, lie below each of ``shifts``, and the radius ``delta`` around
    each shift within which its count may err.

    ``T - c I`` is block tridiagonal in ``w x w`` blocks.  Block cyclic
    reduction eliminates every other block at once: the eliminated blocks
    are coupled only to the kept ones, so with ``P`` the eliminated blocks'
    (block diagonal) pivot, ``T - c I`` has the inertia of ``P`` plus that
    of the Schur complement on the kept blocks, again block tridiagonal with
    half as many blocks (Sylvester's law of inertia).  The leading block is
    kept to the last level, so each pivot eliminated before it is a Schur
    complement of a run of blocks without it, definite when ``c`` lies
    outside the spectrum of ``T`` without its leading ``w`` rows, as the
    cuts of :func:`partial.band_extremes` do but for near-critical
    strengths or an eigenvalue hidden down the band.  A definite matrix has
    diagonal entries of its own sign, so each level takes each shift's sign
    ``s`` from the first diagonal entry of its first eliminated pivot and
    runs one batched Cholesky of ``s P``.  A Cholesky that runs to
    completion proves ``s P + F`` definite for an ``F`` of the size of its
    rounding (Demmel, "On floating point errors in Cholesky", LAPACK Working
    Note 14, 1989), which ``delta`` below covers: each pivot holds ``w``
    eigenvalues of sign ``s``, and ``inv`` applies its inverse.  A level
    whose Cholesky or ``inv`` raises diagonalizes its pivots with one
    batched ``eigh`` instead, which gives their inertia and inverses, and so
    does the last level, on the leading block.  A last block shorter than
    ``w`` is padded with isolated rows, at ``+1`` for a shift whose first
    eliminated pivot starts positive and at ``-1`` otherwise, and their
    count is taken off.

    In floating point each pivot is the exact one of ``T - c I + E`` with
    ``E`` block diagonal, each block within about ``4 w u (|P_k| + 3
    |C_k|_F^2 |P_k^-1|)`` of zero, ``C_k`` the pivot's two couplings,
    ``u`` the unit roundoff and ``|.|`` the 2-norm (the block LU analysis
    of Demmel, Higham and Schreiber, Numer. Linear Algebra Appl. 2, 1995,
    with the constant taken as ``4 w``).  A level that diagonalized its
    pivots reads ``|P_k|`` and ``|P_k^-1| = 1 / min |eig(P_k)|`` off their
    eigenvalues; a Cholesky level bounds both by the largest absolute row
    sums of ``P_k`` and of ``P_k^-1``, which are at least the 2-norms of
    symmetric matrices.  ``delta`` is the largest of these, so by Weyl's
    bound the count lies between those of ``T`` at ``c - delta`` and ``c +
    delta``.  A near-singular pivot makes ``delta`` large or infinite.
    """
    width = blocks.diag.shape[1]
    pivots, below, padding = _shifted_blocks(blocks, shifts)
    negative = np.full(shifts.size, -padding)
    if pivots.shape[1] > 1:
        # Padding rows at +1 where the first eliminated pivot is positive,
        # so that the pivot holding them can still be definite.
        positive = pivots[:, 1, 0, 0] > 0.0
        for row in range(width - padding, width):
            pivots[positive, -1, row, row] = 1.0
        negative[positive] = 0
    worst = np.zeros(shifts.size)

    def row_sums(a: np.ndarray) -> np.ndarray:
        # The largest absolute row sum of each block, at least its 2-norm
        # when the block is symmetric.
        return np.abs(a).sum(axis=3).max(axis=2)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while pivots.shape[1] > 1:
            eliminated = pivots[:, 1::2]
            up, down = below[:, 0::2], below[:, 1::2]
            lower = down.shape[1]
            coupling = np.sum(up * up, axis=(2, 3))
            coupling[:, :lower] += np.sum(down * down, axis=(2, 3))
            sign = np.where(eliminated[:, 0, 0, 0] < 0.0, -1.0, 1.0)
            try:
                np.linalg.cholesky(sign[:, None, None, None] * eliminated)
                inverse = np.linalg.inv(eliminated)
            except np.linalg.LinAlgError:
                values, vecs = np.linalg.eigh(eliminated)
                negative += np.count_nonzero(values < 0.0, axis=(1, 2))
                inverse = (vecs / values[..., None, :]) @ vecs.swapaxes(-1, -2)
                size = np.abs(values)
                bound = size.max(axis=2) + 3.0 * coupling / size.min(axis=2)
            else:
                negative += np.where(sign < 0.0, eliminated.shape[1] * width, 0)
                bound = row_sums(eliminated) + 3.0 * coupling * row_sums(inverse)
            worst = np.maximum(worst, np.max(bound, axis=1))
            pivots, below = _eliminate_odd(pivots, below, inverse)
        # eigh, as in the Rayleigh-Ritz steps: eigvalsh is left to dense solves.
        values = np.linalg.eigh(pivots[:, 0])[0]
        negative += np.count_nonzero(values < 0.0, axis=1)
        worst = np.maximum(worst, np.abs(values).max(axis=1))
    unit = 0.5 * np.finfo(float).eps
    return negative, 4.0 * width * unit * worst


def solve(blocks: Blocks, shifts: np.ndarray,
          rhs: np.ndarray) -> np.ndarray:
    """Row ``j`` of ``rhs`` (``s x blocks.rows``) solved against ``T -
    shifts_j I``, ``T`` being the band matrix of the block stacks
    ``blocks``; ``LinAlgError`` when a pivot block is singular.  Its caller,
    :func:`partial._sweep`, gives way on that error, silences floating-point
    warnings and checks that the solution is finite.

    The block cyclic reduction of :func:`inertia`, batched over the
    shifts, with each level's pivots inverted.  On the way down each level
    folds the eliminated blocks' right-hand sides into the kept ones; on
    the way up it recovers the eliminated blocks' solutions from those of
    their kept neighbours.  O(n w^2) work per shift.
    """
    n, width = blocks.rows, blocks.diag.shape[1]
    pivots, below, _ = _shifted_blocks(blocks, shifts)
    b = np.zeros((shifts.size, pivots.shape[1] * width))
    b[:, :n] = rhs
    b = b.reshape(shifts.size, -1, width, 1)
    levels = []
    while pivots.shape[1] > 1:
        inverse = np.linalg.inv(pivots[:, 1::2])
        up, down = below[:, 0::2], below[:, 1::2]
        lower = down.shape[1]
        scaled = inverse @ b[:, 1::2]
        kept = b[:, 0::2].copy()
        kept[:, : up.shape[1]] -= up.swapaxes(-1, -2) @ scaled
        kept[:, 1: lower + 1] -= down @ scaled[:, :lower]
        levels.append((inverse, up, down, b[:, 1::2]))
        pivots, below = _eliminate_odd(pivots, below, inverse)
        b = kept
    x = np.linalg.inv(pivots) @ b
    for inverse, up, down, eliminated in reversed(levels):
        lower = down.shape[1]
        rest = eliminated - up @ x[:, : up.shape[1]]
        rest[:, :lower] -= down.swapaxes(-1, -2) @ x[:, 1: lower + 1]
        full = np.empty((shifts.size, x.shape[1] + up.shape[1], width, 1))
        full[:, 0::2], full[:, 1::2] = x, inverse @ rest
        x = full
    return x.reshape(shifts.size, -1)[:, :n]
