import numpy as np
import pytest

from derlab.algebra import dual_numbers, group_algebra_c2, upper_triangular_2x2
from derlab.field import Mat, hstack, in_column_span, kernel_basis, rank
from derlab.modules import (
    Conflation,
    ModuleError,
    class_reps,
    Module,
    ModuleMap,
    compose,
    cosyzygy,
    direct_sum,
    dual_module,
    free_cover,
    hom_space,
    identity_map,
    injective_embed,
    is_injective,
    is_projective,
    is_stable_iso,
    is_stable_iso_map,
    pullback,
    pushout,
    quotient_module,
    regular_module,
    split_section,
    stable_hom,
    submodule,
    syzygy,
    zero_map,
    zero_module,
)


def socle_embedding(dn, simple, reg):
    """k -> Lambda hitting the socle x*Lambda."""
    return ModuleMap(simple, reg, Mat(2, [[0], [1]])).validate()


def test_hom_space_dims(dn, simple, reg):
    assert len(hom_space(reg, reg)) == 2  # End(Lambda) = Lambda
    assert len(hom_space(simple, simple)) == 1
    assert len(hom_space(simple, reg)) == 1  # socle embedding only
    assert len(hom_space(reg, simple)) == 1


def test_hom_space_members_are_maps(dn, simple, reg):
    for f in hom_space(reg, reg):
        f.validate()


def kernel_image_cokernel(f):
    """ker f, im f and coker f, by submodule and quotient_module."""
    return submodule(f.src, kernel_basis(f.mat))[0], submodule(f.tgt, f.mat)[0], quotient_module(f.tgt, f.mat)[0]


def test_factorize_zero_and_identity(dn, simple, reg):
    ker, _, coker = kernel_image_cokernel(zero_map(reg, simple))
    assert (ker.dim, coker.dim) == (reg.dim, simple.dim)
    ker, _, coker = kernel_image_cokernel(identity_map(reg))
    assert (ker.dim, coker.dim) == (0, 0)


def test_factorize_projection(dn, simple, reg):
    # Lambda ->> k, kernel is the socle, isomorphic to k itself
    proj = ModuleMap(reg, simple, Mat(2, [[1, 0]])).validate()
    ker, image, coker = kernel_image_cokernel(proj)
    assert (ker.dim, image.dim, coker.dim) == (1, 1, 0)
    assert ker.action[1].is_zero()  # x acts by zero on the socle


def test_conflation_arithmetic(dn, simple, reg):
    proj = ModuleMap(reg, simple, Mat(2, [[1, 0]])).validate()
    ker, _, coker = kernel_image_cokernel(proj)
    assert ker.dim + rank(proj.mat) == reg.dim
    assert rank(proj.mat) + coker.dim == simple.dim


def test_pushout_along_zero(dn, simple, reg):
    f = socle_embedding(dn, simple, reg)
    g = zero_map(simple, reg)
    po, ix, iy = pushout(f, g)
    # coker(f) + Lambda = 1 + 2
    assert po.dim == 3


def test_pushout_of_iso(dn, simple, reg):
    f = identity_map(simple)
    g = socle_embedding(dn, simple, reg)
    po, ix, iy = pushout(f, g)
    assert po.dim == reg.dim
    assert rank(iy.mat) == reg.dim  # the induced leg is an isomorphism


def test_pushout_sum_example(dn, simple, reg):
    f = socle_embedding(dn, simple, reg)
    po, ix, iy = pushout(f, f)
    assert po.dim == 3  # 2 + 2 - 1
    # universal property: both legs agree after f
    assert compose(ix, f).mat == compose(iy, f).mat


def test_pullback_duality(dn, simple, reg):
    # pullback here = dual of pushout over the opposite algebra
    f = ModuleMap(reg, simple, Mat(2, [[1, 0]])).validate()
    pb, px, py = pullback(f, f)
    df = ModuleMap(dual_module(f.tgt), dual_module(f.src), f.mat.T).validate()
    dpo, dix, diy = pushout(df, df)
    assert pb.dim == dpo.dim


def test_free_cover_of_regular_minimal(dn, reg):
    c = free_cover(reg)
    c.validate()
    assert c.middle.dim == reg.dim  # minimal: one generator
    assert c.sub.dim == 0


def test_free_cover_of_simple(dn, simple, reg):
    c = free_cover(simple)
    c.validate()
    assert c.middle.dim == 2
    assert c.sub.dim == 1
    assert c.sub.action[1].is_zero()  # syzygy(k) = k


def test_free_cover_zero(dn, zero):
    c = free_cover(zero)
    assert c.middle.dim == 0


def test_injective_embed(dn, simple, reg):
    c = injective_embed(simple)
    c.validate()
    assert c.middle.dim == 2
    assert c.quot.dim == 1  # cosyzygy(k) = k
    ce = injective_embed(reg)
    ce.validate()
    assert ce.quot.dim == 0  # Lambda is injective


def test_injective_embed_zero(dn, zero):
    c = injective_embed(zero)
    assert c.middle.dim == 0


def test_is_projective(dn, simple, reg, zero):
    assert is_projective(reg)
    assert is_projective(direct_sum([reg, reg])[0])
    assert not is_projective(simple)
    assert is_projective(zero)
    assert is_injective(reg)
    assert not is_injective(simple)


def test_direct_sum_refuses_two_algebra_instances(dn):
    with pytest.raises(ModuleError, match="shared algebra instance"):
        direct_sum([regular_module(dn), regular_module(group_algebra_c2(2))])


def test_stable_hom_examples(dn, simple, reg):
    assert stable_hom(simple, simple).quotient_dim == 1
    assert stable_hom(reg, simple).quotient_dim == 0
    assert stable_hom(reg, reg).quotient_dim == 0
    assert stable_hom(simple, reg).quotient_dim == 0


def test_stable_hom_invariant_under_projective_summands(dn, simple, reg):
    ks = direct_sum([simple, reg])[0]
    assert stable_hom(simple, simple).quotient_dim == stable_hom(ks, simple).quotient_dim
    assert stable_hom(simple, ks).quotient_dim == stable_hom(simple, simple).quotient_dim


def test_is_stable_iso_self(dn, simple):
    v = is_stable_iso(simple, simple)
    assert v.is_true
    f, g = v.witness
    ok, _ = is_stable_iso_map(f)
    assert ok


def test_is_stable_iso_add_projective(dn, simple, reg):
    ks = direct_sum([simple, reg])[0]
    v = is_stable_iso(simple, ks)
    assert v.is_true


def test_is_stable_iso_false_certificate(dn, simple, reg):
    v = is_stable_iso(simple, reg)
    assert v.is_false
    assert v.reason


def test_projective_stably_zero(dn, reg, zero):
    assert is_stable_iso(reg, zero).is_true
    assert is_stable_iso(zero, zero).is_true


def test_syzygy_cosyzygy(dn, simple, reg):
    s = syzygy(simple)
    assert s.dim == 1 and s.action[1].is_zero()
    c = cosyzygy(simple)
    assert c.dim == 1 and c.action[1].is_zero()
    assert syzygy(reg).dim == 0  # minimal mode


def test_syzygy_cosyzygy_stable_inverse(dn, simple):
    # on the non-projective sample k: cosyzygy(syzygy(k)) ~ k stably
    s = syzygy(simple)
    cs = cosyzygy(s)
    assert is_stable_iso(cs, simple).is_true


def test_is_projective_iff_stably_zero(dn, simple, reg, zero):
    for m in (simple, reg, zero, direct_sum([simple, reg])[0]):
        assert is_projective(m) == is_stable_iso(m, zero).is_true


def test_full_basis_covers_without_radical():
    alg = dual_numbers(2)
    stripped = dual_numbers(2)
    stripped.radical = None
    reg = regular_module(stripped)
    c = free_cover(reg)
    c.validate()
    assert c.middle.dim == 4  # full-basis cover: one generator per basis vector
    assert is_projective(reg)


def test_upper_triangular_modules():
    # sanity outside the self-injective world: the algebra's own modules work
    alg = upper_triangular_2x2(2)
    reg = regular_module(alg).validate()
    c = free_cover(reg)
    c.validate()
    assert is_projective(reg)
    d = dual_module(reg).validate()
    assert not is_projective(d)  # this is exactly the self-injectivity failure


def _all_modules_by_validate(alg, max_dim):
    """The reference enumeration: every action tuple in itertools.product
    order (the unit's matrix forced to the identity when the unit is a
    basis vector), kept when Module.validate accepts it."""
    import itertools

    from derlab.field import DerlabError

    out = [zero_module(alg)]
    unit = [k for k in range(alg.dim) if alg.unit[k]]
    fixed = unit[0] if len(unit) == 1 and alg.unit[unit[0]] == 1 else None
    free = [k for k in range(alg.dim) if k != fixed]
    for d in range(1, max_dim + 1):
        mats = [Mat(alg.p, np.array(c).reshape(d, d)) for c in itertools.product(range(alg.p), repeat=d * d)]
        for combo in itertools.product(mats, repeat=len(free)):
            action = [Mat.identity(alg.p, d)] * alg.dim
            for k, a in zip(free, combo):
                action[k] = a
            try:
                out.append(Module(alg, action).validate())
            except DerlabError:
                pass
    return out


def test_all_modules_matches_validate_loop():
    """The chunked enumeration keeps exactly the action tuples, in the same
    order, that Module.validate accepts one at a time."""
    from derlab.samples import all_modules

    for alg, max_dim in ((dual_numbers(2), 3), (dual_numbers(3), 2), (group_algebra_c2(3), 2), (upper_triangular_2x2(2), 2)):
        got = all_modules(alg, max_dim)
        want = _all_modules_by_validate(alg, max_dim)
        assert [[a.a.tolist() for a in m.action] for m in got] == [[a.a.tolist() for a in m.action] for m in want]


def _split_solve_projective(m):
    """The oracle: does the free cover of m split?"""
    return split_section(free_cover(m).right) is not None


def test_is_projective_matches_split_solve_oracle():
    """Over the local algebras the Nakayama count decides projectivity; it
    agrees with splitting the free cover on every module of dim <= 4 over
    F_2[x]/(x^2) and of dim <= 3 over F_3[x]/(x^2) and F_2 C_2."""
    from derlab.samples import all_modules

    checked = 0
    for alg, max_dim in ((dual_numbers(2), 4), (dual_numbers(3), 3), (group_algebra_c2(2), 3)):
        assert alg.is_local()
        outcomes = set()
        for m in all_modules(alg, max_dim):
            expected = _split_solve_projective(m)
            assert is_projective(m) == expected
            outcomes.add(expected)
            checked += 1
        assert outcomes == {True, False}
    assert checked == 344 + 116 + 28


@pytest.fixture
def split_solves(monkeypatch):
    """Counts the split solves is_projective falls back to."""
    import derlab.modules as modules

    calls = []
    real = modules.split_section

    def counted(defl):
        calls.append(defl)
        return real(defl)

    monkeypatch.setattr(modules, "split_section", counted)
    return calls


def test_is_projective_falls_back_on_the_triangular_algebra(split_solves):
    """Upper-triangular 2x2 matrices are not local (a radical of
    codimension 2): the split solve decides.  P_1 = e11 Lambda and
    P_2 = e22 Lambda are projective, the simple S_2 is P_2 and the simple
    S_1 = P_1 / rad P_1 is not."""
    alg = upper_triangular_2x2(2)  # basis e11, e22, e12
    assert not alg.is_local()
    reg = regular_module(alg)
    p1, _ = submodule(reg, Mat(2, [[1, 0], [0, 0], [0, 1]]))
    p2, _ = submodule(reg, Mat(2, [[0], [1], [0]]))
    s1, _ = quotient_module(p1, Mat(2, [[0], [1]]))
    assert (p1.dim, p2.dim, s1.dim) == (2, 1, 1)
    assert is_projective(reg) and is_projective(p1) and is_projective(p2)
    assert not is_projective(s1)
    assert len(split_solves) == 4
    from derlab.samples import all_modules

    mods = all_modules(alg, 2)
    assert {is_projective(m) for m in mods} == {True, False}
    assert all(is_projective(m) == _split_solve_projective(m) for m in mods)


def test_is_projective_falls_back_without_a_radical(split_solves):
    """F_3 C_2 is semisimple and declares no radical: every module is
    projective, decided by the split solve."""
    from derlab.samples import all_modules

    alg = group_algebra_c2(3)
    assert alg.radical is None and not alg.is_local()
    mods = all_modules(alg, 2)
    assert all(is_projective(m) for m in mods)
    assert len(split_solves) == len(mods)


def test_is_stable_iso_unknown_under_budget(dn, simple, reg):
    ks = direct_sum([simple, reg])[0]
    v = is_stable_iso(simple, ks, budget=0)
    assert v.is_unknown
    assert "budget" in v.reason


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_factorize_dimension_formulas(seed):
    import random as _random

    from derlab.samples import random_module

    alg = dual_numbers(2)
    rng = _random.Random(seed)
    m = random_module(alg, 3, rng)
    n = random_module(alg, 3, rng)
    basis = hom_space(m, n)
    f = zero_map(m, n)
    for b in basis:
        c = rng.randrange(2)
        if c:
            f = f + b
    ker, ker_incl = submodule(m, kernel_basis(f.mat))
    image, _ = submodule(n, f.mat)
    coker, _ = quotient_module(n, f.mat)
    r = rank(f.mat)
    assert ker.dim + r == m.dim
    assert r + coker.dim == n.dim
    assert image.dim == r
    # the kernel inclusion composed with f vanishes
    assert (f.mat @ ker_incl.mat).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_cover_and_envelope_are_exact(seed):
    import random as _random

    from derlab.samples import random_module

    alg = dual_numbers(2)
    rng = _random.Random(seed)
    m = random_module(alg, 3, rng)
    free_cover(m).validate()
    injective_embed(m).validate()


def test_solve_in_basis_edge_cases(dn, simple, reg, zero):
    from derlab.modules import ModuleError, solve_in_basis, split_retraction

    z = zero_map(simple, simple)
    # empty basis: a zero rhs gives the zero map, a nonzero one gives None
    assert solve_in_basis([], [], Mat.zeros(2, 1, 1), z) is z
    assert solve_in_basis([], [], Mat(2, [[1]]), z) is None
    # zero-dimensional target: the only map is zero, and it solves
    to_zero = solve_in_basis(hom_space(simple, zero), [], Mat.zeros(2, 0, 1), zero_map(simple, zero))
    assert to_zero is not None and (to_zero.mat.rows, to_zero.mat.cols) == (0, 1)
    r = split_retraction(zero_map(zero, reg))
    assert r is not None and (r.mat.rows, r.mat.cols) == (0, 2)
    # extra columns take part in the solve but not in the combination:
    # the matrix unit e_00 is no endomorphism of Lambda, but lies in extra
    basis = hom_space(reg, reg)
    images = [Mat(2, b.mat.a.reshape(-1, 1)) for b in basis]
    rhs = Mat(2, [[1], [0], [0], [0]])
    assert solve_in_basis(basis, images, rhs, zero_map(reg, reg)) is None
    assert solve_in_basis(basis, images, rhs, zero_map(reg, reg), extra=rhs).is_zero()
    # images must pair with basis maps one to one
    with pytest.raises(ModuleError):
        solve_in_basis(basis, images[:1], rhs, zero_map(reg, reg), extra=rhs)


def _reference_is_stable_iso(m, n, budget=4096, seed=0):
    """is_stable_iso as a plain loop in which every candidate goes through
    is_stable_iso_map(f) alone, so each check builds its own per-pair data.
    Returns (status, reason, witness)."""
    from derlab.modules import candidate_maps, class_reps

    end_m, end_n = stable_hom(m, m), stable_hom(n, n)
    if end_m.quotient_dim != end_n.quotient_dim:
        return "false", f"stable endomorphism dimensions differ ({end_m.quotient_dim} vs {end_n.quotient_dim})", None
    fwd, bwd = stable_hom(m, n), stable_hom(n, m)
    if fwd.quotient_dim == 0 and (end_m.quotient_dim or end_n.quotient_dim):
        return "false", "stable Hom(m, n) = 0 but stable endomorphisms are nonzero", None
    if bwd.quotient_dim == 0 and (end_m.quotient_dim or end_n.quotient_dim):
        return "false", "stable Hom(n, m) = 0 but stable endomorphisms are nonzero", None
    reps = class_reps(fwd.basis, fwd.vec, fwd.proj_subspace)
    total = m.alg.p ** len(reps)
    exhaustive, candidates = candidate_maps(reps, zero_map(m, n), budget, seed)
    for f in candidates:
        ok, g = is_stable_iso_map(f)
        if ok:
            how = "exhaustive class search" if exhaustive else "randomized search"
            return "true", f"witness found by {how}", (f, g)
    if exhaustive:
        return "false", f"exhausted all {total} stable classes of Hom(m, n)", None
    return "unknown", f"budget {budget} exhausted over {total} stable classes", None


def _one_module_per_type(alg, max_dim):
    """The first enumerated module of each isomorphism type (dim, rank of x)."""
    from derlab.samples import all_modules

    firsts = {}
    for m in all_modules(alg, max_dim):
        firsts.setdefault((m.dim, rank(m.action[1])), m)
    return [firsts[k] for k in sorted(firsts)]


def test_iso_search_matches_per_candidate_reference(dn):
    types = _one_module_per_type(dn, 4)
    assert len(types) == 9
    statuses = set()
    for i, m in enumerate(types):
        other = types[(i + 1) % len(types)]
        for n, budget, seed in ((syzygy(m), 4096, 0), (other, 4096, 0), (syzygy(m), 3, i)):
            got = is_stable_iso(m, n, budget=budget, seed=seed)
            status, reason, witness = _reference_is_stable_iso(m, n, budget, seed)
            assert (got.status, got.reason) == (status, reason)
            if witness is None:
                assert got.witness is None
            else:
                assert [h.mat for h in got.witness] == [h.mat for h in witness]
            statuses.add(status)
    assert statuses == {"true", "false", "unknown"}


def test_iso_search_builds_per_pair_data_once(dn, simple, monkeypatch):
    """The hom spaces and stable homs a search builds do not grow with the
    number of candidates it checks."""
    from collections import Counter

    import derlab.modules as modules
    from derlab.algebra import clear_memos
    from derlab.homotopy import loop_via_square

    res = loop_via_square(direct_sum([simple] * 3)[0])
    counts = Counter()
    for name in ("stable_hom", "hom_space", "is_stable_iso_map"):
        def counting(*args, _name=name, _original=getattr(modules, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(modules, name, counting)

    def search(budget):
        counts.clear()
        clear_memos()  # on warm memos both searches would build nothing
        verdict = is_stable_iso(res.module, res.syzygy, budget=budget)
        return verdict, dict(counts)

    full, full_counts = search(4096)
    _, single_counts = search(1)
    assert full.is_true and full_counts["is_stable_iso_map"] > 1
    assert single_counts["is_stable_iso_map"] == 1
    for name in ("stable_hom", "hom_space"):
        assert full_counts[name] == single_counts[name], name


def test_stable_iso_map_rejects_another_pairs_data(dn, simple, reg):
    from derlab.modules import ModuleError, StableIsoPair

    f = identity_map(simple)
    pair = StableIsoPair(simple, simple, hom_space(simple, simple), stable_hom(simple, simple), stable_hom(simple, simple))
    (ok, g), (ok_alone, g_alone) = is_stable_iso_map(f, pair), is_stable_iso_map(f)
    assert ok and ok_alone and g.mat == g_alone.mat
    ks = direct_sum([simple, reg])[0]
    other = StableIsoPair(ks, simple, hom_space(simple, ks), stable_hom(ks, ks), stable_hom(simple, simple))
    with pytest.raises(ModuleError, match="per-pair data"):
        is_stable_iso_map(f, other)


def _quotient_by_selector_products(amb, span_cols):
    """The earlier quotient_module formula: subtract one pivot selector
    product per pivot, then act through proj @ A_k @ sect."""
    from derlab.field import rref

    p = amb.alg.p
    red, r, pivots = rref(span_cols.T)
    nonpiv = [c for c in range(amb.dim) if c not in set(pivots)]
    redmat = np.eye(amb.dim, dtype=np.int64)
    for t, pc in enumerate(pivots):
        sel = np.zeros((1, amb.dim), dtype=np.int64)
        sel[0, pc] = 1
        redmat = redmat - red.a[t].reshape(-1, 1) @ sel
    proj = Mat(p, redmat[nonpiv, :] if nonpiv else np.zeros((0, amb.dim), dtype=np.int64))
    sect = np.zeros((amb.dim, len(nonpiv)), dtype=np.int64)
    for j, c in enumerate(nonpiv):
        sect[c, j] = 1
    sect = Mat(p, sect)
    return proj, [proj @ a @ sect for a in amb.action]


def test_quotient_module_matches_the_selector_formula():
    """Projection and actions are byte-identical to the earlier formula on
    seeded modules over three algebras, quotiented by submodules: zero,
    proper and the whole module all occur."""
    import random

    from derlab.field import hstack
    from derlab.samples import all_modules

    rng = random.Random(14)
    ranks = set()
    for alg in (dual_numbers(2), dual_numbers(3), group_algebra_c2(2)):
        mods = all_modules(alg, 3)
        for _ in range(40):
            m = rng.choice(mods)
            k = rng.randrange(3)
            vecs = Mat(alg.p, np.array([rng.randrange(alg.p) for _ in range(m.dim * k)], dtype=np.int64).reshape(m.dim, k))
            # the submodule the vectors generate, or (the algebras being
            # commutative) the image of one basis element's action
            span = hstack([a @ vecs for a in m.action]) if k else rng.choice(m.action)
            quot, proj = quotient_module(m, span)
            old_proj, old_action = _quotient_by_selector_products(m, span)
            assert proj.mat.a.tobytes() == old_proj.a.tobytes() and proj.mat.a.shape == old_proj.a.shape
            assert [a.a.tobytes() for a in quot.action] == [a.a.tobytes() for a in old_action]
            assert all(a.a.shape == b.a.shape for a, b in zip(quot.action, old_action))
            quot.validate()
            ranks.add((rank(span) == 0, rank(span) == m.dim))
    assert ranks >= {(True, False), (False, False), (False, True)}


def _greedy_class_reps(basis, vec, sub):
    """class_reps as one in_column_span test per basis vector: the loop
    class_reps replaces, kept as its reference."""
    reps, current = [], sub
    for b in basis:
        v = vec(b)
        if not in_column_span(current, v):
            reps.append(b)
            current = hstack([current, v])
    return reps


def test_class_reps_equals_the_greedy_loop():
    """One elimination of [sub | vec(b_1) ... vec(b_n)] picks the same basis
    vectors as the greedy span test, on seeded inputs over F_2, F_3 and F_5
    of full and low rank, with repeated vectors, an empty sub and an empty
    basis among them."""
    rng = np.random.default_rng(41)
    cases = 0
    for p in (2, 3, 5):
        for _ in range(60):
            d = int(rng.integers(0, 7))
            n, k = (int(x) for x in rng.integers(0, 8, size=2))
            low = int(rng.integers(0, d + 1))
            vecs = [Mat(p, rng.integers(0, p, size=(d, 1))) for _ in range(n)]
            if n and low < d:
                mix = rng.integers(0, p, size=(d, low)) @ rng.integers(0, p, size=(low, n))
                vecs = [Mat(p, mix[:, [c]]) for c in range(n)]
            vecs += vecs[: int(rng.integers(0, n + 1))]
            sub = Mat(p, rng.integers(0, p, size=(d, k)))
            for s in (sub, Mat.zeros(p, d, 0)):
                assert class_reps(range(len(vecs)), lambda i: vecs[i], s) == _greedy_class_reps(range(len(vecs)), lambda i: vecs[i], s)
                assert class_reps([], lambda i: vecs[i], s) == []
                cases += 1
    assert cases == 360
