"""Exact dense linear algebra over a prime field F_p.

Scalars are plain Python ints in [0, p); matrices wrap int64 numpy arrays
with entries reduced mod p.  Elimination always picks the leftmost
available pivot, so echelon forms, canonical solutions and kernel bases
are byte-reproducible across runs.

Zero-dimensional matrices (0 x n, n x 0) are legal everywhere and stand
for zero spaces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


class FieldError(ValueError):
    pass


# Moduli must lie below this bound.  A matrix product sums n terms of at most
# (p - 1)**2 < 2**40 each before reducing, so int64 stays exact for every
# inner dimension n < 2**23, far past any dense matrix derlab can hold.
MODULUS_BOUND = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _inv_mod(x: int, p: int) -> int:
    # p prime, x nonzero mod p
    return pow(int(x), p - 2, p)


class Mat:
    """Immutable rows x cols matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data) -> None:
        if p < 2:
            raise FieldError(f"modulus must be >= 2, got {p}")
        if p >= MODULUS_BOUND:
            raise FieldError(f"modulus {p} is not below MODULUS_BOUND = {MODULUS_BOUND}, which keeps int64 products exact")
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise FieldError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        reduced = np.mod(arr, int(p))
        reduced.setflags(write=False)
        super().__setattr__("p", int(p))
        super().__setattr__("a", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Mat":
        return Mat(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        return Mat(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def column(p: int, entries: Sequence[int]) -> "Mat":
        return Mat(p, np.asarray(list(entries), dtype=np.int64).reshape(-1, 1))

    @staticmethod
    def row(p: int, entries: Sequence[int]) -> "Mat":
        return Mat(p, np.asarray(list(entries), dtype=np.int64).reshape(1, -1))

    # -- basic structure ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat(self.p, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    def is_identity(self) -> bool:
        return self.rows == self.cols and np.array_equal(self.a, np.eye(self.rows, dtype=np.int64))

    def col(self, j: int) -> "Mat":
        return Mat(self.p, self.a[:, j : j + 1])

    def to_list(self) -> List[List[int]]:
        return [[int(x) for x in row] for row in self.a]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Mat") -> None:
        if self.p != other.p:
            raise FieldError(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.cols != other.rows:
            raise FieldError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Mat(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.p, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.p, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.p, -self.a)

    def scale(self, c: int) -> "Mat":
        return Mat(self.p, self.a * (c % self.p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat(p={self.p}, {self.to_list()})"


def check_integer_entries(data) -> None:
    """Raise TypeError unless every leaf of a nested list is an integer;
    a document's 1.5, "1", true or null is refused, not truncated."""
    stack = [data]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"entry {x!r} is not an integer")


def matrix_from_entries(p: int, data, rows: int, cols: int) -> Mat:
    """The rows x cols matrix a document gives as nested lists of integers.

    A zero-sized matrix may be written as any empty nesting ([] or [[]]).
    Raises TypeError on a non-integer entry, OverflowError on one past
    int64, and ValueError (FieldError included) on a ragged or wrongly
    sized matrix.
    """
    check_integer_entries(data)
    arr = np.asarray(data, dtype=np.int64)
    if rows * cols == 0:
        if arr.size:
            raise FieldError(f"expected an empty {rows}x{cols} matrix, got {arr.size} entries")
        return Mat.zeros(p, rows, cols)
    if arr.shape != (rows, cols):
        raise FieldError(f"expected a {rows}x{cols} matrix, got shape {arr.shape}")
    return Mat(p, arr)


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise FieldError("hstack of nothing")
    p = mats[0].p
    return Mat(p, np.hstack([m.a for m in mats]))


def vstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise FieldError("vstack of nothing")
    p = mats[0].p
    return Mat(p, np.vstack([m.a for m in mats]))


def block_diag(p: int, mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    r = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = np.zeros((r, c), dtype=np.int64)
    i = j = 0
    for m in mats:
        out[i : i + m.rows, j : j + m.cols] = m.a
        i += m.rows
        j += m.cols
    return Mat(p, out)


def block(p: int, grid: Sequence[Sequence[Optional[Mat]]], row_dims: Sequence[int], col_dims: Sequence[int]) -> Mat:
    """Assemble a block matrix; None blocks are zero."""
    out = np.zeros((sum(row_dims), sum(col_dims)), dtype=np.int64)
    roff = 0
    for bi, rd in enumerate(row_dims):
        coff = 0
        for bj, cd in enumerate(col_dims):
            blk = grid[bi][bj]
            if blk is not None:
                if blk.rows != rd or blk.cols != cd:
                    raise FieldError(f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}, expected {rd}x{cd}")
                out[roff : roff + rd, coff : coff + cd] = blk.a
            coff += cd
        roff += rd
    return Mat(p, out)


def kron(a: Mat, b: Mat) -> Mat:
    a._check(b)
    return Mat(a.p, np.kron(a.a, b.a) % a.p)


def _rref_inplace(a: np.ndarray, p: int) -> Tuple[int, List[int]]:
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = _inv_mod(a[r, c], p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return r, pivots


def rref(m: Mat) -> Tuple[Mat, int, List[int]]:
    """Reduced row-echelon form, rank and pivot columns (leftmost-first)."""
    work = m.a.copy()
    rank_, pivots = _rref_inplace(work, m.p)
    return Mat(m.p, work), rank_, pivots


def rank(m: Mat) -> int:
    work = m.a.copy()
    r, _ = _rref_inplace(work, m.p)
    return r


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Canonical x with a @ x = b, or None if inconsistent.

    The canonical solution has zero entries in all non-pivot coordinates.
    """
    a._check(b)
    if a.rows != b.rows:
        raise FieldError(f"solve: {a.rows} rows vs {b.rows} rows")
    aug = np.hstack([a.a, b.a])
    r, pivots = _rref_inplace(aug, a.p)
    for c in pivots:
        if c >= a.cols:
            return None  # pivot in the rhs: inconsistent
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, a.cols :]
    return Mat(a.p, x)


def solve_left(a: Mat, b: Mat) -> Optional[Mat]:
    """Canonical x with x @ a = b, or None."""
    xt = solve(a.T, b.T)
    return None if xt is None else xt.T


def kernel_basis(m: Mat) -> Mat:
    """Columns form the canonical null-space basis (one per free variable,
    ordered by column index)."""
    red, r, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    out = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = (-red.a[i, fc]) % m.p
    return Mat(m.p, out)


def column_space_basis(m: Mat) -> Mat:
    """Canonical basis of the column space (rref of the transpose)."""
    red, r, _ = rref(m.T)
    return Mat(m.p, red.a[:r].T)


def in_column_span(span: Mat, vectors: Mat) -> bool:
    return solve(span, vectors) is not None


def subspaces_equal(a: Mat, b: Mat) -> bool:
    """Do the columns of a and b span the same subspace?"""
    if a.rows != b.rows:
        return False
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank(hstack([a, b])) == ra


def invert(m: Mat) -> Optional[Mat]:
    if m.rows != m.cols:
        return None
    x = solve(m, Mat.identity(m.p, m.rows))
    if x is None or not (m @ x).is_identity() or not (x @ m).is_identity():
        return None
    return x
