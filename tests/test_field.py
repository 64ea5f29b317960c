import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from derlab.field import (
    MODULUS_BOUND,
    FieldError,
    Mat,
    hstack,
    in_column_span,
    invert,
    is_prime,
    kernel_basis,
    rank,
    rref,
    solve,
    subspaces_equal,
)


def test_rref_duplicate_rows_f2():
    m = Mat(2, [[1, 1], [1, 1]])
    red, r, pivots = rref(m)
    assert r == 1
    assert pivots == [0]
    assert red == Mat(2, [[1, 1], [0, 0]])


def test_rref_identity():
    for n in (1, 2, 5):
        red, r, pivots = rref(Mat.identity(3, n))
        assert r == n
        assert pivots == list(range(n))


def test_rref_single_pivot_f3():
    red, r, pivots = rref(Mat(3, [[0, 1], [0, 0]]))
    assert r == 1
    assert pivots == [1]


def test_solve_identity():
    b = Mat(5, [[1], [2], [3]])
    assert solve(Mat.identity(5, 3), b) == b


def test_solve_inconsistent():
    a = Mat(2, [[0, 0], [0, 0]])
    b = Mat(2, [[1], [0]])
    assert solve(a, b) is None


def test_solve_canonical_f2():
    # [[1,1]] x = [1] over F_2: canonical solution puts 0 in the free slot
    a = Mat(2, [[1, 1]])
    b = Mat(2, [[1]])
    x = solve(a, b)
    assert x == Mat(2, [[1], [0]])
    # oracle: enumerate the 4 candidates
    sols = [v for v in ([0, 0], [0, 1], [1, 0], [1, 1]) if (v[0] + v[1]) % 2 == 1]
    assert x.to_list() in [[[v[0]], [v[1]]] for v in sols]


def test_solve_dimension_mismatch():
    with pytest.raises(FieldError):
        solve(Mat(2, [[1, 0]]), Mat(2, [[1], [0]]))


def test_kernel_zero_matrix():
    k = kernel_basis(Mat.zeros(3, 4, 4))
    assert k == Mat.identity(3, 4)


def test_kernel_invertible():
    k = kernel_basis(Mat(5, [[1, 2], [3, 4]]))
    assert k.cols == 0


def test_kernel_f2_example():
    # [[1,1]] over F_2: kernel spanned by (1,1); oracle by enumeration
    k = kernel_basis(Mat(2, [[1, 1]]))
    assert k.cols == 1
    assert k == Mat(2, [[1], [1]])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([2, 3, 5]),
    st.randoms(use_true_random=False),
)
def test_rank_nullity_and_exactness(rows, cols, p, rng):
    data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    m = Mat(p, data) if rows and cols else Mat.zeros(p, rows, cols)
    r = rank(m)
    k = kernel_basis(m)
    assert r + k.cols == cols
    if k.cols:
        assert (m @ k).is_zero()
    red, r2, piv = rref(m)
    assert r2 == r
    red2, r3, piv2 = rref(red)
    assert red2 == red and piv2 == piv  # idempotence


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_solve_exact(rows, cols, bcols, p, rng):
    a = Mat(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
    x0 = Mat(p, [[rng.randrange(p) for _ in range(bcols)] for _ in range(cols)])
    b = a @ x0
    x = solve(a, b)
    assert x is not None
    assert a @ x == b


def test_invert():
    m = Mat(2, [[1, 1], [0, 1]])
    mi = invert(m)
    assert mi is not None and (m @ mi).is_identity()
    assert invert(Mat(2, [[1, 1], [1, 1]])) is None


def test_subspace_helpers():
    s = Mat(2, [[1, 0], [0, 1], [1, 1]])
    v = Mat(2, [[1], [1], [0]])
    assert in_column_span(s, v)
    assert subspaces_equal(s, hstack([s, v]))


LARGEST_ALLOWED_PRIME = 1048573  # the largest prime below MODULUS_BOUND = 2**20
NEXT_PRIME = 1048583


def _int_product(a, b):
    """Exact product of two int-list matrices in Python integers."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_largest_allowed_prime_is_exact():
    p = LARGEST_ALLOWED_PRIME
    assert is_prime(p) and p < MODULUS_BOUND <= NEXT_PRIME and is_prime(NEXT_PRIME)
    assert not any(is_prime(q) for q in range(p + 1, NEXT_PRIME))
    assert (Mat(p, [[p - 1] * 3]) @ Mat(p, [[p - 1]] * 3)).to_list() == [[3]]
    # entries next to p - 1 make every product as large as it can be
    rng = np.random.default_rng(0)
    a = Mat(p, rng.integers(p - 64, p, size=(5, 64)))
    b = Mat(p, rng.integers(p - 64, p, size=(64, 4)))
    want = [[x % p for x in row] for row in _int_product(a.to_list(), b.to_list())]
    assert (a @ b).to_list() == want
    m = Mat(p, rng.integers(p - 64, p, size=(6, 6)))
    rhs = Mat(p, rng.integers(p - 64, p, size=(6, 2)))
    x = solve(m, rhs)
    assert x is not None
    assert [[v % p for v in row] for row in _int_product(m.to_list(), x.to_list())] == rhs.to_list()
    inv = invert(m)
    assert inv is not None
    assert [[v % p for v in row] for row in _int_product(m.to_list(), inv.to_list())] == Mat.identity(p, 6).to_list()


def test_modulus_at_or_above_the_bound_is_rejected():
    Mat(MODULUS_BOUND - 1, [[1]])
    for p in (MODULUS_BOUND, NEXT_PRIME, 2**31 - 1):
        with pytest.raises(FieldError, match="MODULUS_BOUND"):
            Mat(p, [[1]])
