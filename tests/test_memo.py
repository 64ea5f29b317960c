"""Projective covers, embeddings, Gorenstein Kan extensions, stable Homs,
quotients, submodules, generator legs and projectivity are kept per
algebra, keyed by content.

A hit must give the bytes a cold build gives, wrap the caller's own
objects, stay within the memo's bounds and never cross algebra instances.
The autouse `cold_memos` fixture (conftest.py) empties the memos before
every test.
"""

import random
from collections import Counter

import pytest

import derlab.algebra as algebra
import derlab.diagrams as diagrams
import derlab.gorenstein as gorenstein
import derlab.modules as modules
from derlab.algebra import clear_memos, dual_numbers
from derlab.cats import arrow_category, cospan_category, square_category
from derlab.diagrams import Diagram, constant_diagram, diagram_key, identity_diagram_map, projective_cover_diagram, pushout_diagrams
from derlab.field import Mat, rank, remember
from derlab.gorenstein import approx_gproj, embed_gproj_into_proj, hull_ginj, is_gproj
from derlab.homotopy import loop_via_square
from derlab.modules import (
    Module,
    ModuleError,
    direct_sum,
    free_module,
    generator_legs,
    hom_space,
    is_projective,
    module_key,
    quotient_module,
    stable_hom,
    submodule,
)
from derlab.samples import all_modules

# One loop_via_square pass over the 344 modules of dim <= 4 over
# F_2[x]/(x^2) builds at most this many embeddings and Kan extensions (16
# and 17 when this was written, for 343 and 344 calls).
LOOP_BUILDS = 20
MODULE_MEMOS = ("quotient_module", "submodule", "generator_legs", "is_projective")


def _one_of_each_type(alg):
    """One module of each isomorphism type (dim, rank of x) of dim <= 4."""
    firsts = {}
    for m in all_modules(alg, 4):
        firsts.setdefault((m.dim, rank(m.action[1]) if m.dim else 0), m)
    return [firsts[t] for t in sorted(firsts)]


def _seeded_f3_diagrams():
    """Two functorial, not Gorenstein-projective diagrams over each of the
    arrow, cospan and square, of nonzero F_3[x]/(x^2)-modules of dim <= 2
    and random maps."""
    alg = dual_numbers(3)
    mods = [m for m in all_modules(alg, 2) if m.dim]
    out = []
    for seed in (1, 2):
        rng = random.Random(seed)
        for shape in (arrow_category(), cospan_category(), square_category()):
            while True:
                at = {o: rng.choice(mods) for o in shape.objects}
                mats = {}
                for f in shape.nonidentity_morphisms():
                    src, tgt = at[shape.src(f)], at[shape.tgt(f)]
                    mats[f] = sum((h.mat.scale(rng.randrange(3)) for h in hom_space(src, tgt)), Mat.zeros(3, tgt.dim, src.dim))
                x = Diagram(shape, alg, at, mats)
                if x.is_functorial() and not is_gproj(x):
                    out.append(x)
                    break
    return out


def _diagram_bytes(x):
    return [module_key(x.at(o)) for o in x.shape.objects] + [x.mats[f].a.tobytes() for f in x.shape.nonidentity_morphisms()]


def _triple_bytes(tr):
    c = tr.conflation
    maps = [c.left.comps[o].a.tobytes() for o in c.sub.shape.objects] + [c.right.comps[o].a.tobytes() for o in c.sub.shape.objects]
    return (tr.kind, sorted(tr.tags.items()), _diagram_bytes(c.sub), _diagram_bytes(c.middle), _diagram_bytes(c.quot), maps)


def _loop_bytes(m):
    res = loop_via_square(m)
    witness = [h.mat.a.tobytes() for h in res.versus_syzygy.witness or ()]
    return res.versus_syzygy.status, module_key(res.module), module_key(res.syzygy), witness


def _approx_bytes(x):
    return _triple_bytes(approx_gproj(x)), _triple_bytes(hull_ginj(x))


def _record_builds(monkeypatch):
    """The input of every construction built from now on, by builder name:
    the diagram of a cover, embedding or Kan extension, the module of a
    quotient, submodule, set of generator legs or projectivity test."""
    builders = {"_cover": diagrams, "_embedding": gorenstein, "gproj_left_kan_data": gorenstein}
    builders.update({"_" + name: modules for name in MODULE_MEMOS})
    built = {name: [] for name in builders}
    for name, inputs in built.items():
        owner = builders[name]

        def recording(*args, _inputs=inputs, _original=getattr(owner, name), _at=0 if owner is modules else -1):
            _inputs.append(args[_at])
            return _original(*args)

        monkeypatch.setattr(owner, name, recording)
    return built


def _size(x):
    """What Algebra.kept compares with MEMO_MAX_TOTAL_DIM."""
    return x.dim if isinstance(x, Module) else x.total_dim()


@pytest.mark.parametrize("case", ["stability-types", "f3-diagrams"])
def test_warm_memos_give_the_bytes_of_cold_ones(dn, monkeypatch, case):
    inputs, digest = (_one_of_each_type(dn), _loop_bytes) if case == "stability-types" else (_seeded_f3_diagrams(), _approx_bytes)
    assert len(inputs) == (9 if case == "stability-types" else 6)
    cold = []
    for x in inputs:
        clear_memos()
        cold.append(digest(x))
    filling_builds = _record_builds(monkeypatch)
    filling = [digest(x) for x in inputs]  # later inputs hit what earlier ones kept
    alg = inputs[0].alg
    assert sum(len(memo) for a in (alg, alg.opposite()) for memo in a._memos.values()) > 0
    keepable = lambda xs: [x for x in xs if _size(x) <= algebra.MEMO_MAX_TOTAL_DIM]
    filled = {name: len(keepable(xs)) for name, xs in filling_builds.items()}
    built = _record_builds(monkeypatch)
    warm = [digest(x) for x in inputs]
    assert filling == cold and warm == cold
    # the warm pass built only what is too large to be kept, but for the
    # quotients of stability-types: its iso searches try 108 distinct cones
    # (85 for k^3 alone), once each, more than MEMO_MAX_ENTRIES, so that memo
    # has evicted each cone before the next pass asks for it
    for name, xs in built.items():
        if case == "stability-types" and name == "_quotient_module":
            assert 0 < len(keepable(xs)) <= filled[name]
        else:
            assert not keepable(xs)


def test_a_hit_wraps_the_callers_diagram(dn, simple, reg, monkeypatch):
    arrow = arrow_category()
    g = Diagram(arrow, dn, {"0": reg, "1": direct_sum([simple, reg])[0]}, {"e0": Mat(2, [[0, 0], [1, 0], [0, 1]])}).validate()
    copy = lambda m: Module(dn, [Mat(2, a.a.copy()) for a in m.action])
    g2 = Diagram(arrow, dn, {o: copy(g.at(o)) for o in arrow.objects}, {f: Mat(2, a.a.copy()) for f, a in g.mats.items()})
    assert g2 is not g and diagram_key(g2) == diagram_key(g)
    built = _record_builds(monkeypatch)
    first, second = embed_gproj_into_proj(g), embed_gproj_into_proj(g2)
    assert built["_embedding"] == [g]
    assert first.left.src is g and second.left.src is g2
    assert second.middle is first.middle and second.right is first.right
    assert all(second.left.comps[o] == first.left.comps[o] for o in arrow.objects)
    # the shared-source check of a pushout holds for the caller's g2
    pushout_diagrams(second.left, identity_diagram_map(g2))
    second.validate()


def test_a_cover_hit_deflates_onto_the_callers_diagram(dn, simple, reg, monkeypatch):
    arrow = arrow_category()
    x = Diagram(arrow, dn, {"0": reg, "1": simple}, {"e0": Mat(2, [[1, 0]])}).validate()
    copy = lambda m: Module(dn, [Mat(2, a.a.copy()) for a in m.action])
    x2 = Diagram(arrow, dn, {o: copy(x.at(o)) for o in arrow.objects}, {f: Mat(2, a.a.copy()) for f, a in x.mats.items()})
    assert x2 is not x and diagram_key(x2) == diagram_key(x)
    built = _record_builds(monkeypatch)
    first, second = projective_cover_diagram(x), projective_cover_diagram(x2)
    assert built["_cover"] == [x]
    assert first.right.tgt is x and second.right.tgt is x2
    assert second.middle is first.middle and second.sub is first.sub
    assert all(second.right.comps[o] == first.right.comps[o] for o in arrow.objects)
    second.validate()


def test_a_stable_hom_hit_is_over_the_callers_modules(dn, simple, reg):
    m, n = direct_sum([simple, reg])[0], direct_sum([simple, simple])[0]
    m2, n2 = Module(dn, list(m.action)), Module(dn, list(n.action))
    cold, warm = stable_hom(m, n), stable_hom(m2, n2)
    assert warm.quotient_dim == cold.quotient_dim and warm.proj_subspace == cold.proj_subspace
    assert [f.mat for f in warm.basis] == [f.mat for f in cold.basis]
    assert all(f.src is m2 and f.tgt is n2 for f in warm.basis)


def test_a_module_construction_hit_wraps_the_callers_module(dn, simple, reg, monkeypatch):
    m = direct_sum([simple, reg])[0]
    c = Module(dn, [Mat(2, a.a.copy()) for a in m.action])
    span = m.action[1]  # m . x, an invariant span
    assert c is not m and module_key(c) == module_key(m)
    built = _record_builds(monkeypatch)
    (q, proj), (q2, proj2) = quotient_module(m, span), quotient_module(c, span)
    (s, incl), (s2, incl2) = submodule(m, span), submodule(c, span)
    assert proj.src is m and proj2.src is c and q2 is q and proj2.mat == proj.mat
    assert incl.tgt is m and incl2.tgt is c and s2 is s and incl2.mat == incl.mat
    proj2.validate()
    incl2.validate()
    legs, legs2 = generator_legs(m), generator_legs(c)
    assert legs2 == legs and legs2 is not legs  # each call gets its own list
    assert is_projective(m) is is_projective(c) is False
    assert all(built["_" + name] == [m] for name in MODULE_MEMOS)  # the copy c hit every memo


def test_a_span_that_is_not_invariant_is_refused_and_not_kept(dn, reg, monkeypatch):
    built = _record_builds(monkeypatch)
    unit = Mat(2, [[1], [0]])  # the span of 1 in Lambda is not a right ideal
    for _ in range(2):
        with pytest.raises(ModuleError, match="not action-invariant"):
            submodule(reg, unit)
    assert built["_submodule"] == [reg, reg]
    assert not dn._memos.get("submodule")


def test_remember_evicts_the_oldest_first():
    memo = {}
    for k in range(10):
        assert remember(memo, k, str(k), 4) == str(k)
        assert len(memo) <= 4
    assert list(memo) == [6, 7, 8, 9]


def test_memos_stay_within_their_bounds(dn, monkeypatch):
    mods = all_modules(dn, 3)
    pairs = [(m, n) for m in mods for n in mods][: algebra.MEMO_MAX_ENTRIES + 20]
    for m, n in pairs:
        stable_hom(m, n)
        assert len(dn._memos["stable_hom"]) <= algebra.MEMO_MAX_ENTRIES
    memo = dn._memos["stable_hom"]
    assert len(memo) == algebra.MEMO_MAX_ENTRIES
    assert (module_key(pairs[0][0]), module_key(pairs[0][1])) not in memo  # the oldest went first
    # a pair above the dim bound is not kept
    clear_memos()
    big = direct_sum(mods[-1:] * 6)[0]
    assert 2 * big.dim > algebra.MEMO_MAX_TOTAL_DIM
    stable_hom(big, big)
    assert dn._memos.get("stable_hom", {}) == {}
    # nor is a module above it
    clear_memos()
    huge = free_module(dn, 17)
    assert huge.dim > algebra.MEMO_MAX_TOTAL_DIM
    quotient_module(huge, huge.action[1])
    submodule(huge, huge.action[1])
    generator_legs(huge)
    is_projective(huge)
    assert not any(dn._memos.get(name) for name in MODULE_MEMOS)

    monkeypatch.setattr(algebra, "MEMO_MAX_ENTRIES", 3)
    built = _record_builds(monkeypatch)
    for x in _seeded_f3_diagrams():
        approx_gproj(x)
        hull_ginj(x)
        for alg in (x.alg, x.alg.opposite()):
            for name in ("embed_gproj_into_proj", "projective_cover_diagram") + MODULE_MEMOS:
                assert len(alg._memos.get(name, {})) <= 3
    assert len(built["_cover"]) > 6  # both cover memos were full
    assert all(len(built["_" + name]) > 6 for name in MODULE_MEMOS)  # and so were the module memos
    # a diagram above the size cap is neither looked up nor kept
    big_x = constant_diagram(arrow_category(), dn, free_module(dn, 9))
    assert big_x.total_dim() > algebra.MEMO_MAX_TOTAL_DIM
    embed_gproj_into_proj(big_x)
    projective_cover_diagram(big_x)
    assert dn._memos.get("embed_gproj_into_proj", {}) == {} and dn._memos.get("projective_cover_diagram", {}) == {}


def _record_stable_hom_builds(monkeypatch):
    """The (module_key, module_key) pair of every stable Hom of modules
    built from now on."""
    built = []

    def recording(ops, a, b, _original=modules.stable_hom_in):
        if ops is modules._MODULES:
            built.append((module_key(a), module_key(b)))
        return _original(ops, a, b)

    monkeypatch.setattr(modules, "stable_hom_in", recording)
    return built


def test_a_stable_hom_of_many_cells_is_built_once(dn, monkeypatch):
    # an entry of more than 4096 cells, key included, within the dim bound
    big = direct_sum(all_modules(dn, 3)[-1:] * 3)[0]
    assert 2 * big.dim <= algebra.MEMO_MAX_TOTAL_DIM
    built = _record_stable_hom_builds(monkeypatch)
    first, second = stable_hom(big, big), stable_hom(big, big)
    cells = dn.dim * 2 * big.dim**2 + (len(first.basis) + first.proj_subspace.cols) * big.dim**2
    assert cells > 4096
    assert len(built) == 1
    assert [f.mat for f in second.basis] == [f.mat for f in first.basis]
    assert second.proj_subspace == first.proj_subspace and second.quotient_dim == first.quotient_dim


def test_a_stable_hom_across_instances_is_refused_and_not_kept(dn, simple):
    other = dual_numbers(2)
    simple2 = Module(other, list(simple.action))
    assert other is not dn and module_key(simple2) == module_key(simple)
    for m, n in ((simple, simple2), (simple2, simple)):
        with pytest.raises(ModuleError):
            stable_hom(m, n)
    assert not dn._memos and not other._memos


def test_a_fresh_algebra_starts_with_empty_memos(dn, simple):
    m = direct_sum([simple, simple])[0]
    stable_hom(m, m)
    loop_via_square(simple)
    zero = Module(dn, [Mat.zeros(2, 0, 0)] * 2)
    old_cover = projective_cover_diagram(Diagram(arrow_category(), dn, {"0": simple, "1": zero}, {"e0": Mat.zeros(2, 0, 1)}))
    assert dn._memos.get("stable_hom") and dn.opposite()._memos.get("gproj_left_kan") and dn._memos.get("projective_cover_diagram")
    fresh = dual_numbers(2)
    assert fresh is not dn and not fresh._memos and not fresh.opposite()._memos
    simple2 = Module(fresh, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    m2 = direct_sum([simple2, simple2])[0]
    rep = stable_hom(m2, m2)
    assert all(f.src.alg is fresh and f.tgt.alg is fresh for f in rep.basis)
    res = loop_via_square(simple2)
    assert res.module.alg is fresh and res.syzygy.alg is fresh
    assert res.versus_syzygy.is_true
    stalk = Diagram(arrow_category(), fresh, {"0": simple2, "1": Module(fresh, [Mat.zeros(2, 0, 0)] * 2)}, {"e0": Mat.zeros(2, 0, 1)})
    for c in (projective_cover_diagram(stalk), approx_gproj(stalk).conflation, hull_ginj(stalk).conflation):
        assert all(d.alg is fresh for d in (c.sub, c.middle, c.quot))
    assert projective_cover_diagram(stalk).middle is not old_cover.middle


def test_one_loop_pass_builds_few_embeddings_and_kan_extensions(dn, monkeypatch):
    mods = all_modules(dn, 4)
    assert len(mods) == 344
    built = _record_builds(monkeypatch)
    stable_built = _record_stable_hom_builds(monkeypatch)
    calls = Counter()
    for name in ("embed_gproj_into_proj", "gproj_left_kan"):
        def counting(*args, _name=name, _original=getattr(gorenstein, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gorenstein, name, counting)
    for m in mods:
        assert loop_via_square(m).versus_syzygy.is_true
    assert calls["embed_gproj_into_proj"] >= 300 and calls["gproj_left_kan"] == 344
    assert len(built["_embedding"]) <= LOOP_BUILDS
    assert len(built["gproj_left_kan_data"]) <= LOOP_BUILDS
    # every stable Hom of the pass is kept: each distinct pair is built once
    assert stable_built and set(Counter(stable_built).values()) == {1}
