"""Exact dense linear algebra over a prime field F_p.

Scalars are plain Python ints in [0, p); matrices wrap int64 numpy arrays
with entries reduced mod p.  Elimination always picks the leftmost
available pivot, so echelon forms, canonical solutions and kernel bases
are byte-reproducible across runs.

At p = 2 elimination runs on rows packed into Python ints, reduced by XOR.
Odd p run the pivot loop on Python lists for matrices of at most
SMALL_ODD_MAX_CELLS cells and a numpy loop over pivots above that, so the
path depends on p and the size of the input.  All give the reduced
row-echelon form, which is unique for a given row space, so every rref,
rank, solve and basis is the same whichever path computed it.

Zero-dimensional matrices (0 x n, n x 0) are legal everywhere and stand
for zero spaces.

Every Mat holds a read-only int64 array with entries in [0, p), for a p
checked once, where the data first enters.  Results built here from Mats
(transpose, slices, reshape, products, stacks, blocks, Kronecker products,
eliminations) are wrapped without checking p or reducing again; +, -,
negation and scale reduce once.
"""

from __future__ import annotations

import operator
import threading
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class DerlabError(Exception):
    """Base of every error the library raises on its own account.  A
    scenario run turns one at load into exit code 2 and one inside a
    suite item into that item's fail verdict."""


class FieldError(DerlabError, ValueError):
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


def _checked_modulus(p: int) -> int:
    """p as a Python int; a float, string or bool is refused, not read."""
    if type(p) is not int:
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise FieldError(f"modulus must be an integer, got {p!r}")
        p = int(p)
    if p < 2:
        raise FieldError(f"modulus must be >= 2, got {p}")
    if p >= MODULUS_BOUND:
        raise FieldError(f"modulus {p} is not below MODULUS_BOUND = {MODULUS_BOUND}, which keeps int64 products exact")
    return p


def _refuse_non_integers(arr: np.ndarray) -> None:
    """Raise FieldError unless the non-empty, not signed-integer arr holds
    integers int64 reads as themselves: unsigned ones up to int64's max, or
    Python ints (not bools) in an object array.  Strings, bytes, floats,
    bools and complex numbers are refused, not parsed or truncated; a Python
    int past int64 is left for the int64 conversion to refuse with
    OverflowError."""
    kind = arr.dtype.kind
    if kind == "u":
        if int(arr.max()) > np.iinfo(np.int64).max:
            raise FieldError(f"matrix entry {int(arr.max())} does not fit in int64")
    elif kind != "O" or not all(isinstance(x, int) and not isinstance(x, bool) for x in arr.flat):
        raise FieldError(f"matrix entries must be integers, got dtype {arr.dtype}")


class Mat:
    """Immutable rows x cols matrix over F_p.  Mat(p, data) is the checked
    entry point: it refuses any entry int64 would not read as itself
    (_refuse_non_integers; empty data of any dtype is legal) and reduces
    the rest mod p."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data) -> None:
        p = _checked_modulus(p)
        arr = np.asarray(data)
        if arr.dtype.kind != "i" and arr.size:
            _refuse_non_integers(arr)
        arr = np.asarray(arr, dtype=np.int64)
        if arr.ndim != 2:
            raise FieldError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        reduced = np.mod(arr, p)
        reduced.setflags(write=False)
        _set_p(self, p)
        _set_a(self, reduced)

    @staticmethod
    def _of(p: int, arr: np.ndarray) -> "Mat":
        """Wrap arr, trusted to be a 2-d int64 array reduced mod the already
        checked p, and make it read-only.  Nothing may write to arr later."""
        m = _new(Mat)
        arr.setflags(False)  # write=False, passed by position: the keyword form costs 3x
        # the slot descriptors' own setters get past the refusing __setattr__
        # at about half the cost of object.__setattr__ (0.33 against 0.52 us
        # per _of call on a 2-vCPU host)
        _set_p(m, p)
        _set_a(m, arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Mat":
        return Mat._of(_checked_modulus(p), np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        """The n x n identity.  Up to IDENTITY_MAX_CACHED, one read-only
        instance per (p, n) is handed out again; p and n are checked first,
        since a float p or n hashes like the integer it equals."""
        p, n = _checked_modulus(p), operator.index(n)
        return _identity(p, n) if n <= IDENTITY_MAX_CACHED else _new_identity(p, n)

    # -- basic structure ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat._of(self.p, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    def is_identity(self) -> bool:
        # n nonzero entries, n of them ones on the diagonal
        return self.rows == self.cols and np.count_nonzero(self.a) == self.rows and bool((self.a.diagonal() == 1).all())

    def col(self, j: int) -> "Mat":
        return Mat._of(self.p, self.a[:, j : j + 1])

    def __getitem__(self, key) -> "Mat":
        """The submatrix numpy indexing selects, e.g. m[1:3, :]; the key must
        keep both axes."""
        sub = self.a[key]
        if sub.ndim != 2:
            raise FieldError(f"index {key!r} does not keep both axes of a matrix")
        return Mat._of(self.p, sub)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries, row-major, as a rows x cols matrix (numpy's -1
        stands for the size that fits)."""
        return Mat._of(self.p, self.a.reshape(rows, cols))

    def to_list(self) -> List[List[int]]:
        return [[int(x) for x in row] for row in self.a]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Mat") -> None:
        if self.p != other.p:
            raise FieldError(f"mixed moduli {self.p} and {other.p}")

    # The operators below check inline what _check does: at these sizes the
    # call and the property reads cost as much as the numpy work.

    def __matmul__(self, other: "Mat") -> "Mat":
        p = self.p
        if other.p != p:
            raise FieldError(f"mixed moduli {p} and {other.p}")
        a, b = self.a, other.a
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Mat._of(p, (a @ b) % p)

    def __add__(self, other: "Mat") -> "Mat":
        p = self.p
        if other.p != p:
            raise FieldError(f"mixed moduli {p} and {other.p}")
        return Mat._of(p, (self.a + other.a) % p)

    def __sub__(self, other: "Mat") -> "Mat":
        p = self.p
        if other.p != p:
            raise FieldError(f"mixed moduli {p} and {other.p}")
        return Mat._of(p, (self.a - other.a) % p)

    def __neg__(self) -> "Mat":
        return Mat._of(self.p, -self.a % self.p)

    def scale(self, c: int) -> "Mat":
        return Mat._of(self.p, (self.a * (c % self.p)) % self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat(p={self.p}, {self.to_list()})"


_new = object.__new__
_set_p = Mat.__dict__["p"].__set__
_set_a = Mat.__dict__["a"].__set__


def _new_identity(p: int, n: int) -> Mat:
    out = np.zeros((n, n), dtype=np.int64)
    out.flat[:: n + 1] = 1
    return Mat._of(p, out)


# Identities of at most this size are shared, at most 256 of them (under
# 8.5 MB when full).  Diagram.mat alone asks for one per identity morphism.
IDENTITY_MAX_CACHED = 64
_identity = lru_cache(maxsize=256)(_new_identity)


def product_defect(p: int, *terms: Tuple[np.ndarray, np.ndarray], c=0):
    """How many entries of sum a @ b over the pairs (a, b), minus c, are
    nonzero mod p: 0 iff sum a b = c over F_p.  Every check is written so,
    on raw int64 arrays, building no Mat: signs ride on the arrays, c is an
    array or 0, and a stack of matrices gets one count per matrix."""
    (a, b), *rest = terms
    d = a @ b - c
    for a, b in rest:
        d += a @ b
    d %= p
    return np.count_nonzero(d, axis=(-2, -1)) if d.ndim > 2 else np.count_nonzero(d)


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


def check_keys(data, known: Iterable[str]) -> None:
    """Raise unless a document is a mapping with no key outside known: a key
    no loader reads (a misspelt "budget", say) must not pass unseen."""
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; the keys read here are {list(known)}")


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


def common_modulus(mats: Sequence[Mat], p: int) -> int:
    """p, checked, when every one of mats has that modulus."""
    p = _checked_modulus(p)
    for m in mats:
        if m.p != p:
            raise FieldError(f"mixed moduli {p} and {m.p}")
    return p


def _stack(mats: Iterable[Mat], axis: int, name: str) -> Mat:
    arrs = []
    p = 0
    for m in mats:
        if m.p != p:
            if arrs:
                raise FieldError(f"mixed moduli {p} and {m.p}")
            p = m.p
        arrs.append(m.a)
    if not arrs:
        raise FieldError(f"{name} of nothing")
    return Mat._of(p, np.concatenate(arrs, axis=axis))


def hstack(mats: Iterable[Mat]) -> Mat:
    return _stack(mats, 1, "hstack")


def vstack(mats: Iterable[Mat]) -> Mat:
    return _stack(mats, 0, "vstack")


def block_diag(p: int, mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    p = common_modulus(mats, p)
    shapes = [m.a.shape for m in mats]
    out = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=np.int64)
    i = j = 0
    for m, (r, c) in zip(mats, shapes):
        out[i : i + r, j : j + c] = m.a
        i += r
        j += c
    return Mat._of(p, out)


def block(p: int, grid: Sequence[Sequence[Optional[Mat]]], row_dims: Sequence[int], col_dims: Sequence[int]) -> Mat:
    """Assemble a block matrix; None blocks are zero."""
    p = common_modulus([blk for row in grid for blk in row if blk is not None], p)
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
    return Mat._of(p, out)


def kron(a: Mat, b: Mat) -> Mat:
    a._check(b)
    (ar, ac), (br, bc) = a.a.shape, b.a.shape
    # np.kron for two matrices, without its generic n-d set-up
    out = a.a[:, None, :, None] * b.a[None, :, None, :]
    return Mat._of(a.p, out.reshape(ar * br, ac * bc) % a.p)


def _rref_gf2_inplace(a: np.ndarray) -> Tuple[int, List[int]]:
    """_rref_inplace for p = 2 on a non-empty a, by XOR on packed rows.

    Each row becomes one Python int with column j at bit top - 1 - j, so a
    row's leftmost nonzero column is read off its bit_length.  Rows are
    inserted one at a time into a basis keyed by that bit_length, each
    XOR-reduced against the rows already there; back-substitution then
    clears every pivot column in all other rows.  The result is the reduced
    row-echelon form of the row space, which is unique, so it equals what
    the leftmost-pivot loop computes."""
    rows, cols = a.shape
    packed = np.packbits(a, axis=1)  # column 0 first, zero-padded to whole bytes
    width = packed.shape[1]
    top = 8 * width
    data = packed.tobytes()
    basis: Dict[int, int] = {}
    for start in range(0, rows * width, width):
        x = int.from_bytes(data[start : start + width], "big")
        while x:
            lead = x.bit_length()
            row = basis.get(lead)
            if row is None:
                basis[lead] = x
                break
            x ^= row
    # From the rightmost pivot leftwards: a row has no bits left of its own
    # pivot, so XOR with the already reduced rows of the pivots right of it
    # clears those columns without setting another pivot bit.
    leads = sorted(basis)
    done = 0
    for lead in leads:
        x = basis[lead]
        hit = x & done
        while hit:
            x ^= basis[hit.bit_length()]
            hit = x & done
        basis[lead] = x
        done |= 1 << (lead - 1)
    leads.reverse()
    r = len(leads)
    reduced = b"".join([basis[lead].to_bytes(width, "big") for lead in leads])
    a[:r] = np.unpackbits(np.frombuffer(reduced, dtype=np.uint8).reshape(r, width), axis=1, count=cols)
    a[r:] = 0
    return r, [top - lead for lead in leads]


# Odd-p inputs of at most this many cells are eliminated on Python lists.
# The numpy loop pays several array calls per pivot whatever the size, the
# list loop pays per cell.  Replaying 4105 non-empty p = 3 eliminations of
# 90 recognition-p3 items through both (2-vCPU host), the list loop was
# 3.9x faster at <= 64 cells, 3.2x at 65-256, 2.1x at 257-1024, 1.5x at
# 1025-2048, even at 2049-4096 and 3.3x slower above.
SMALL_ODD_MAX_CELLS = 2048


def _rref_small_inplace(a: np.ndarray, p: int) -> Tuple[int, List[int]]:
    """_rref_inplace for odd p on a non-empty a: the leftmost-pivot loop
    on a.tolist() rows, written back into a."""
    rows, cols = a.shape
    m = a.tolist()
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        if i != r:
            m[i] = m[r]
        inv = pow(row[c], p - 2, p)
        if inv != 1:
            row = [x * inv % p for x in row]
        m[r] = row
        for k in range(rows):
            f = m[k][c]
            if f and k != r:
                m[k] = [(x - f * y) % p for x, y in zip(m[k], row)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    a[:] = m
    return r, pivots


def _rref_inplace(a: np.ndarray, p: int) -> Tuple[int, List[int]]:
    rows, cols = a.shape
    pivots: List[int] = []
    if rows == 0 or cols == 0:
        return 0, pivots
    if p == 2:
        return _rref_gf2_inplace(a)
    if a.size <= SMALL_ODD_MAX_CELLS:
        return _rref_small_inplace(a, p)
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


# rref, rank and solve share a memo of eliminations keyed by content.  On the
# three benchmark workloads (bench/workloads.py), 34-50% of the eliminations
# of one item repeat the exact input of an earlier one of that item and have
# at most 256 cells; 39-43% are empty and only 2-6% are larger.  So only
# non-empty inputs of at most MEMO_MAX_CELLS cells are kept, at most
# MEMO_MAX_ENTRIES of them, the oldest evicted first: under 5 MB when full,
# where an unbounded memo grew past 200 MB.  Entries are immutable and keyed
# by content, so sharing them between callers cannot change a result.
MEMO_MAX_CELLS = 256
MEMO_MAX_ENTRIES = 1024

_Elimination = Tuple[np.ndarray, int, Tuple[int, ...]]
_memo: dict[Tuple[int, Tuple[int, int], bytes], _Elimination] = {}
_memo_lock = threading.Lock()


def remember(memo: dict, key, value, max_entries: int):
    """Keep value under key in memo, a dict of at most max_entries entries,
    the oldest evicted first, and return value.  Inserts hold one lock, so
    threads sharing a memo never push it past its bound.  Every memo of the
    library is content-keyed and holds immutable values: a hit returns the
    bytes the call would have computed."""
    with _memo_lock:
        if len(memo) >= max_entries:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


def _eliminate(a: np.ndarray, p: int) -> _Elimination:
    """The reduced row-echelon form of a (read-only), its rank and pivots."""
    key = None
    if 0 < a.size <= MEMO_MAX_CELLS:
        key = (p, a.shape, a.tobytes())
        hit = _memo.get(key)
        if hit is not None:
            return hit
    work = a.copy()
    r, pivots = _rref_inplace(work, p)
    work.setflags(False)
    result = (work, r, tuple(pivots))
    if key is not None:
        remember(_memo, key, result, MEMO_MAX_ENTRIES)
    return result


def rref(m: Mat) -> Tuple[Mat, int, List[int]]:
    """Reduced row-echelon form, rank and pivot columns (leftmost-first)."""
    red, r, pivots = _eliminate(m.a, m.p)
    return Mat._of(m.p, red), r, list(pivots)


def rank(m: Mat) -> int:
    return _eliminate(m.a, m.p)[1]


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Canonical x with a @ x = b, or None if inconsistent.

    The canonical solution has zero entries in all non-pivot coordinates.
    """
    a._check(b)
    (rows, cols), (b_rows, b_cols) = a.a.shape, b.a.shape
    if rows != b_rows:
        raise FieldError(f"solve: {rows} rows vs {b_rows} rows")
    red, r, pivots = _eliminate(np.concatenate([a.a, b.a], axis=1), a.p)
    if r and pivots[-1] >= cols:
        return None  # pivot in the rhs: inconsistent
    x = np.zeros((cols, b_cols), dtype=np.int64)
    x[list(pivots)] = red[:r, cols:]
    return Mat._of(a.p, x)


def solve_by_pivots(a: Mat, pivots: np.ndarray, b: Mat) -> Optional[Mat]:
    """x with a @ x = b for an a that is the identity on its rows pivots,
    as a canonical column basis is on its pivot rows: x = b[pivots],
    certified by one product, or None when b leaves the span of a.  a has
    full column rank, so x is the x solve gives; rows that are not pivots
    read off numbers that fail the product, or that x.  The transpose
    reads a map out of a quotient off its section (diagrams.factor_by_section)."""
    x = b.a[pivots]
    return None if product_defect(a.p, (a.a, x), c=b.a) else Mat._of(a.p, x)


def kernel_basis(m: Mat) -> Mat:
    """Columns form the canonical null-space basis (one per free variable,
    ordered by column index)."""
    red, r, pivots = _eliminate(m.a, m.p)
    free = np.ones(m.cols, dtype=bool)
    free[list(pivots)] = False
    free = np.flatnonzero(free)
    out = np.zeros((m.cols, free.size), dtype=np.int64)
    out[free, np.arange(free.size)] = 1
    out[list(pivots)] = -red[:r, free] % m.p
    return Mat._of(m.p, out)


def column_space_basis(m: Mat) -> Mat:
    """Canonical basis of the column space (rref of the transpose)."""
    red, r, _ = _eliminate(m.a.T, m.p)
    return Mat._of(m.p, red[:r].T)


def in_column_span(span: Mat, vectors: Mat) -> bool:
    return solve(span, vectors) is not None


def invert(m: Mat) -> Optional[Mat]:
    if m.rows != m.cols:
        return None
    x = solve(m, Mat.identity(m.p, m.rows))
    if x is None or any(product_defect(m.p, pair, c=np.identity(m.rows, dtype=np.int64)) for pair in ((m.a, x.a), (x.a, m.a))):
        return None
    return x
