import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from derlab import field
from derlab.field import (
    MODULUS_BOUND,
    FieldError,
    Mat,
    block,
    block_diag,
    column_space_basis,
    hstack,
    in_column_span,
    invert,
    is_prime,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    vstack,
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
    assert rank(hstack([s, v])) == rank(s)


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


def test_non_integer_moduli_are_refused_not_truncated():
    # Mat(2.5, [[1, 2]]) was once read as a matrix over F_2, [[1, 0]]
    builders = (
        lambda p: Mat(p, [[1, 2]]),
        lambda p: Mat.zeros(p, 1, 2),
        lambda p: Mat.identity(p, 2),
        lambda p: block_diag(p, []),
    )
    for make in builders:
        for p in (2.5, 3.0, np.float64(3.0), "3", b"3", True, np.bool_(True), None):
            with pytest.raises(FieldError, match="modulus must be an integer"):
                make(p)
    for p in (3, np.int64(3), np.int32(3), np.uint16(3)):
        m = Mat(p, [[4, 5]])
        assert type(m.p) is int and m == Mat(3, [[1, 2]])
        assert type(Mat.zeros(p, 1, 1).p) is int and type(Mat.identity(p, 1).p) is int


def test_identities_are_shared_read_only_and_bounded():
    eye = Mat.identity(3, 4)
    assert Mat.identity(3, 4) is eye and Mat.identity(np.int64(3), np.int64(4)) is eye
    assert Mat.identity(5, 4) is not eye and Mat.identity(3, 5) is not eye
    assert eye.a.tolist() == np.identity(4, dtype=np.int64).tolist() and not eye.a.flags.writeable
    big = field.IDENTITY_MAX_CACHED + 1
    assert Mat.identity(3, big) is not Mat.identity(3, big) and Mat.identity(3, big) == Mat.identity(3, big)
    assert field._identity.cache_info().maxsize == 256


def test_a_float_modulus_or_size_is_refused_after_the_identity_is_cached():
    # 2.0 == 2 and hash(2.0) == hash(2): a cache read before the check would
    # hand out the F_2 identity for a float modulus
    Mat.identity(2, 3)
    Mat.identity(3, 2)
    for p in (2.0, np.float64(2.0), True):
        with pytest.raises(FieldError, match="modulus must be an integer"):
            Mat.identity(p, 3)
    for n in (2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            Mat.identity(3, n)


# -- the memoized kernel against a plain reference ---------------------------


def _reference_rref(a, p):
    """Leftmost-pivot Gauss-Jordan elimination on a fresh copy, with no memo:
    the loop field.rref ran before eliminations were shared."""
    a = np.array(a, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
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
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


def _reference_solve(a, b, p):
    aug, r, pivots = _reference_rref(np.hstack([a, b]), p)
    if any(c >= a.shape[1] for c in pivots):
        return None
    x = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, a.shape[1] :]
    return x


def _reference_kernel(a, p):
    red, r, pivots = _reference_rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    out = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = (-red[i, fc]) % p
    return out


def _oracle_inputs():
    """(p, matrix) pairs: every 2x2 matrix over F_3 and 2x3 matrix over F_2,
    then seeded random matrices over F_2, F_3 and F_5 of full and low rank,
    zero-sized, all-zero, and of more than MEMO_MAX_CELLS cells."""
    for p, (rows, cols) in ((3, (2, 2)), (2, (2, 3))):
        for k in range(p ** (rows * cols)):
            digits = [(k // p**i) % p for i in range(rows * cols)]
            yield p, np.array(digits, dtype=np.int64).reshape(rows, cols)
    rng = np.random.default_rng(20250)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (16, 16), (17, 16), (12, 30), (40, 9)]
    for p in (2, 3, 5):
        for rows, cols in shapes:
            yield p, np.zeros((rows, cols), dtype=np.int64)
            yield p, rng.integers(0, p, size=(rows, cols))
            k = int(rng.integers(0, max(1, min(rows, cols)) + 1))
            yield p, (rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))) % p
        for _ in range(40):
            rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
            yield p, rng.integers(0, p, size=(rows, cols))


def test_elimination_matches_the_reference_also_on_memo_hits():
    rng = np.random.default_rng(7)
    checked = 0
    for p, a in _oracle_inputs():
        m = Mat(p, a)
        want_red, want_rank, want_piv = _reference_rref(a, p)
        want_kernel = _reference_kernel(a, p)
        b_consistent = (a @ rng.integers(0, p, size=(a.shape[1], 2))) % p
        b_random = rng.integers(0, p, size=(a.shape[0], 1))
        for _ in range(2):  # the second call may be answered by the memo
            red, r, piv = rref(m)
            assert red.a.tolist() == want_red.tolist() and r == want_rank and piv == want_piv
            assert rank(m) == want_rank
            assert kernel_basis(m).a.tolist() == want_kernel.tolist()
            assert column_space_basis(m).a.tolist() == _reference_rref(a.T, p)[0][:want_rank].T.tolist()
            for b in (b_consistent, b_random):
                x, want_x = solve(m, Mat(p, b)), _reference_solve(a, b, p)
                assert (x is None) == (want_x is None)
                if x is not None:
                    assert x.a.tolist() == want_x.tolist()
        checked += 1
    assert checked > 200


def test_eliminations_hand_out_fresh_pivots_and_read_only_arrays():
    m = Mat(3, [[0, 1, 2], [0, 2, 1], [1, 0, 0]])
    red, r, piv = rref(m)
    piv.append(5)
    piv[0] = 9
    assert rref(m)[2] == [0, 1]
    results = [red.a, rref(m)[0].a, kernel_basis(m).a, column_space_basis(m).a, solve(m, Mat(3, [[1], [2], [0]])).a]
    for arr in results:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    assert rref(m)[0] == red


def test_elimination_memo_is_bounded():
    field._memo.clear()
    big = Mat(2, np.ones((17, 16), dtype=np.int64))
    assert big.a.size > field.MEMO_MAX_CELLS
    rref(big)
    assert len(field._memo) == 0
    rank(Mat.zeros(2, 0, 3))
    assert len(field._memo) == 0
    for k in range(5000):
        digits = [(k // 5**i) % 5 for i in range(6)]
        rank(Mat(5, [digits]))
        assert len(field._memo) <= field.MEMO_MAX_ENTRIES
    assert len(field._memo) == field.MEMO_MAX_ENTRIES


def test_trusted_results_equal_checked_construction():
    rng = np.random.default_rng(3)
    p = 5
    a, b = Mat(p, rng.integers(0, p, size=(3, 4))), Mat(p, rng.integers(0, p, size=(3, 4)))
    assert a + b == Mat(p, a.a + b.a)
    assert a - b == Mat(p, a.a - b.a)
    assert -a == Mat(p, -a.a)
    assert a.scale(-2) == Mat(p, -2 * a.a)
    assert a @ b.T == Mat(p, a.a @ b.a.T)
    assert kron(a, b) == Mat(p, np.kron(a.a, b.a))
    assert hstack([a, b]) == Mat(p, np.hstack([a.a, b.a]))
    assert a[1:3, :] == Mat(p, a.a[1:3, :]) and a[:, 2:3] == a.col(2)
    assert a.reshape(-1, 1) == Mat(p, a.a.reshape(-1, 1))
    with pytest.raises(FieldError):
        a[0]


def test_stacking_mixed_moduli_is_refused():
    two, three = Mat(2, [[1]]), Mat(3, [[2]])
    with pytest.raises(FieldError, match="mixed moduli"):
        hstack([two, three])
    with pytest.raises(FieldError, match="mixed moduli"):
        vstack([two, three])
    with pytest.raises(FieldError, match="mixed moduli"):
        block_diag(2, [three])
    with pytest.raises(FieldError, match="mixed moduli"):
        block(2, [[None, three]], [1], [1, 1])
    for op in (lambda a, b: a @ b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(FieldError, match="mixed moduli 2 and 3"):
            op(two, three)
    with pytest.raises(FieldError, match="cannot multiply 1x2 by 1x1"):
        Mat(2, [[1, 0]]) @ two
    for stack in (hstack, vstack):
        with pytest.raises(FieldError, match="of nothing"):
            stack([])
    assert hstack(m for m in [two, two]) == Mat(2, [[1, 1]])


def test_constructor_refuses_non_integer_entries():
    for data in ([[1.5, 2.7]], np.array([[1.9]]), [[1.0]], [[True, False]], np.array([[1 + 0j]])):
        with pytest.raises(FieldError, match="integers"):
            Mat(3, data)
    # strings and bytes are not parsed, object entries not truncated
    for data in ([["1", "2"]], [[b"1"]], np.array([[1.5]], dtype=object), np.array([[1, True]], dtype=object), [[1, None]]):
        with pytest.raises(FieldError, match="integers"):
            Mat(3, data)
    # 2**64 - 1 is 0 mod 3; read as int64 it would wrap to -1
    with pytest.raises(FieldError, match="int64"):
        Mat(3, np.array([[2**64 - 1]], dtype=np.uint64))
    assert Mat(3, np.array([[4, 2**63 - 1]], dtype=np.uint64)) == Mat(3, [[1, (2**63 - 1) % 3]])
    assert Mat(3, np.array([[4, 5]], dtype=np.uint8)) == Mat(3, [[1, 2]])
    assert Mat(3, np.array([[4, -1]], dtype=object)) == Mat(3, [[1, 2]])
    for empty in (np.zeros((0, 3)), np.zeros((2, 0), dtype=bool), [[]], np.zeros((0, 2), dtype="U3"), np.zeros((1, 0), dtype=object)):
        assert Mat(3, empty).a.dtype == np.int64
    with pytest.raises(OverflowError):
        Mat(3, [[2**70]])


def test_mat_attributes_cannot_be_reassigned():
    a = Mat(3, [[1, 2], [0, 1]])
    results = [Mat._of(3, np.zeros((1, 1), dtype=np.int64)), a.T, a @ a, a + a, hstack([a, a]), Mat.identity(3, 2)]
    for m in results:
        with pytest.raises(AttributeError):
            m.p = 5
        with pytest.raises(AttributeError):
            m.a = np.zeros((1, 1), dtype=np.int64)
        assert m.p == 3 and not m.a.flags.writeable


def test_identity_matches_numpy_eye_in_bytes():
    for n in range(6):
        ident = Mat.identity(3, n).a
        eye = np.eye(n, dtype=np.int64)
        assert ident.dtype == eye.dtype and ident.shape == eye.shape and ident.tobytes() == eye.tobytes()


def test_equality_needs_modulus_shape_and_entries():
    assert Mat(2, [[1, 0]]) != Mat(3, [[1, 0]])
    row, col = Mat.zeros(3, 1, 2), Mat.zeros(3, 2, 1)
    assert row.a.tobytes() == col.a.tobytes() and row != col
    assert (Mat(3, [[1, 2]]) == Mat(3, [[1, 2]])) is True


# -- the packed GF(2) kernel against the same reference -----------------------


def _seeded_module(alg, mods, dim, rng):
    """A direct sum of seeded members of mods with total dimension dim."""
    from derlab.modules import direct_sum

    parts, left = [], dim
    while left:
        m = mods[int(rng.integers(len(mods)))]
        if 0 < m.dim <= left:
            parts.append(m)
            left -= m.dim
    return direct_sum(parts)[0]


def _hom_space_systems():
    """The p = 2 kron systems modules.hom_space eliminates for seeded
    modules over the dual numbers, up to 480 x 480 (the equations of the
    unit, which acts as the identity, are left out)."""
    from derlab.algebra import dual_numbers
    from derlab.modules import hom_space
    from derlab.samples import all_modules

    alg = dual_numbers(2)
    mods = all_modules(alg, 4)
    rng = np.random.default_rng(12)
    seen = []
    original = field._rref_inplace

    def record(a, p):
        seen.append(a.copy())
        return original(a, p)

    field._rref_inplace = record
    try:
        for s, t in ((3, 5), (8, 12), (12, 20), (20, 24)):
            hom_space(_seeded_module(alg, mods, s, rng), _seeded_module(alg, mods, t, rng))
    finally:
        field._rref_inplace = original
    return seen


def _gf2_inputs():
    """Matrices over F_2 whose rows cross the packing boundaries, with zero
    rows, duplicate rows and low rank, then real hom_space systems."""
    rng = np.random.default_rng(2)
    for cols in (*range(7, 10), *range(61, 67), *range(123, 130), 130, 131, 190, 257):
        for rows in (1, 5, 40):
            a = rng.integers(0, 2, size=(rows, cols))
            yield a
            low = (rng.integers(0, 2, size=(rows, 3)) @ rng.integers(0, 2, size=(3, cols))) % 2
            low[::4] = 0
            yield low
            yield np.concatenate([a[: rows // 2 + 1], a[: rows // 2 + 1], np.zeros((2, cols), dtype=np.int64)])
    yield np.ones((9, 70), dtype=np.int64)
    yield np.eye(70, dtype=np.int64)[::-1]
    for a in _hom_space_systems():
        if a.size:
            yield a
            # with the unit's zero rows stacked on, as hom_space once built it
            yield np.concatenate([np.zeros_like(a), a])


def test_gf2_kernel_matches_the_reference_also_on_memo_hits():
    rng = np.random.default_rng(22)
    shapes = set()
    for a in _gf2_inputs():
        m = Mat(2, a)
        want_red, want_rank, want_piv = _reference_rref(a, 2)
        want_kernel = _reference_kernel(a, 2)
        want_cols = _reference_rref(a.T, 2)[0][:want_rank].T
        b_consistent = (a @ rng.integers(0, 2, size=(a.shape[1], 2))) % 2
        b_random = rng.integers(0, 2, size=(a.shape[0], 1))
        want_x = [_reference_solve(a, b, 2) for b in (b_consistent, b_random)]
        for _ in range(2):  # the second call may be answered by the memo
            red, r, piv = rref(m)
            assert r == want_rank and piv == want_piv
            assert np.array_equal(red.a, want_red)
            assert rank(m) == want_rank
            assert np.array_equal(kernel_basis(m).a, want_kernel)
            assert np.array_equal(column_space_basis(m).a, want_cols)
            for b, want in zip((b_consistent, b_random), want_x):
                x = solve(m, Mat(2, b))
                assert (x is None) == (want is None)
                if x is not None:
                    assert np.array_equal(x.a, want)
        shapes.add(a.shape)
    assert {(480, 480), (960, 480)} <= shapes and max(c for _, c in shapes) > 130


def test_odd_primes_never_enter_the_gf2_kernel(monkeypatch):
    def refuse(a):
        raise AssertionError("odd p reached the GF(2) kernel")

    monkeypatch.setattr(field, "_rref_gf2_inplace", refuse)
    monkeypatch.setattr(field, "_memo", {})
    with pytest.raises(AssertionError, match="GF\\(2\\) kernel"):
        rank(Mat(2, [[1, 1]]))  # p = 2 does go there
    checked = 0
    for p, a in _oracle_inputs():
        if p == 2:
            continue
        m = Mat(p, a)
        want_red, want_rank, want_piv = _reference_rref(a, p)
        red, r, piv = rref(m)
        assert red.a.tolist() == want_red.tolist() and r == want_rank and piv == want_piv
        assert kernel_basis(m).a.tolist() == _reference_kernel(a, p).tolist()
        assert column_space_basis(m).a.tolist() == _reference_rref(a.T, p)[0][:want_rank].T.tolist()
        checked += 1
    assert checked > 100


# -- the small odd-p list kernel against the same reference ---------------------


def _small_odd_inputs():
    """(p, matrix) pairs over F_3, F_5, F_7 and the largest allowed prime, on
    both sides of SMALL_ODD_MAX_CELLS: random, low-rank, duplicate-row, tall
    and wide, and entries next to p - 1."""
    limit = field.SMALL_ODD_MAX_CELLS
    shapes = [(1, 1), (2, 9), (9, 2), (16, 16), (40, 51), (32, limit // 32), (limit // 32 + 1, 32), (45, 46), (300, 4), (4, 600)]
    rng = np.random.default_rng(35)
    for p in (3, 5, 7, LARGEST_ALLOWED_PRIME):
        for rows, cols in shapes:
            yield p, rng.integers(0, p, size=(rows, cols))
            k = int(rng.integers(1, min(rows, cols) + 1))
            yield p, (rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))) % p
            half = rng.integers(0, p, size=((rows + 1) // 2, cols))
            yield p, np.concatenate([half, half])[:rows]
        yield p, rng.integers(max(0, p - 4), p, size=(12, 20))


def test_small_odd_kernel_matches_the_reference_also_on_memo_hits():
    rng = np.random.default_rng(36)
    sizes = set()
    for p, a in _small_odd_inputs():
        m = Mat(p, a)
        want_red, want_rank, want_piv = _reference_rref(a, p)
        want_kernel = _reference_kernel(a, p)
        want_cols = _reference_rref(a.T, p)[0][:want_rank].T
        b_consistent = (a @ rng.integers(0, p, size=(a.shape[1], 2))) % p
        b_random = rng.integers(0, p, size=(a.shape[0], 1))
        want_x = [_reference_solve(a, b, p) for b in (b_consistent, b_random)]
        for _ in range(2):  # the second call may be answered by the memo
            red, r, piv = rref(m)
            assert r == want_rank and piv == want_piv
            assert np.array_equal(red.a, want_red)
            assert rank(m) == want_rank
            assert np.array_equal(kernel_basis(m).a, want_kernel)
            assert np.array_equal(column_space_basis(m).a, want_cols)
            for b, want in zip((b_consistent, b_random), want_x):
                x = solve(m, Mat(p, b))
                assert (x is None) == (want is None)
                if x is not None:
                    assert np.array_equal(x.a, want)
        sizes.add(a.size <= field.SMALL_ODD_MAX_CELLS)
    assert sizes == {True, False}


def test_small_odd_kernel_takes_only_small_odd_inputs(monkeypatch):
    """p = 2 never reaches the list kernel, and odd-p matrices above
    SMALL_ODD_MAX_CELLS still run the numpy loop."""

    def refuse(*args):
        raise AssertionError("the small odd-p kernel was reached")

    monkeypatch.setattr(field, "_rref_small_inplace", refuse)
    monkeypatch.setattr(field, "_memo", {})
    with pytest.raises(AssertionError, match="small odd-p kernel"):
        rank(Mat(3, [[1, 2]]))  # small odd p does go there
    rng = np.random.default_rng(37)
    for rows, cols in ((1, 1), (16, 16), (45, 46), (300, 30)):
        a = rng.integers(0, 2, size=(rows, cols))
        assert rref(Mat(2, a))[0].a.tolist() == _reference_rref(a, 2)[0].tolist()
    monkeypatch.setattr(field, "_rref_gf2_inplace", refuse)
    checked = 0
    for p, a in _small_odd_inputs():
        if a.size <= field.SMALL_ODD_MAX_CELLS:
            continue
        want_red, want_rank, want_piv = _reference_rref(a, p)
        red, r, piv = rref(Mat(p, a))
        assert np.array_equal(red.a, want_red) and r == want_rank and piv == want_piv
        checked += 1
    assert checked >= 30
