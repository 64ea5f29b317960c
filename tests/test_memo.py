"""Projective covers, embeddings, Gorenstein Kan extensions, the deepest
walk-back step of approx_gproj, stable Homs, stable-iso verdicts,
quotients, submodules, generator legs, projectivity and injective
envelopes are kept per algebra, keyed by content; free diagrams are kept
by their name (free_name).  Minimal resolutions of weights and the
latching data of free diagrams are built on every call.

A hit must give the bytes a cold build gives, wrap the caller's own
objects, stay within the memo's bounds and never cross algebra instances.
The autouse `cold_memos` fixture (conftest.py) empties the memos before
every test.
"""

import json
import random
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import derlab.algebra as algebra
import derlab.dgkan as dgkan
import derlab.diagrams as diagrams
import derlab.gorenstein as gorenstein
import derlab.homotopy as homotopy
import derlab.modules as modules
from derlab import cli
from derlab.algebra import clear_memos, dual_numbers
from derlab.cats import arrow_category, cospan_category, identity_functor, opposite_functor, square_category
from derlab.diagrams import Diagram, constant_diagram, diagram_key, free_diagram, free_name, identity_diagram_map, projective_cover_diagram, pushout_diagrams, stalk_diagram
from derlab.field import Mat, rank, remember
from derlab.gorenstein import approx_gproj, embed_gproj_into_proj, hull_ginj, is_gproj
from derlab.homotopy import _corner_in_square, loop_via_square
from derlab.modules import (
    Module,
    ModuleError,
    direct_sum,
    free_module,
    generator_legs,
    hom_space,
    injective_embed,
    is_projective,
    is_stable_iso,
    module_key,
    quotient_module,
    stable_hom,
    submodule,
)
from derlab.samples import all_modules

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# One loop_via_square pass over the 344 modules of dim <= 4 over
# F_2[x]/(x^2) builds at most this many embeddings, Kan extensions, deepest
# walk-back steps and stable-iso searches (16, 17, 16 and 17 when this was
# written, for 16, 344, 343 and 344 calls).
LOOP_BUILDS = 20
MODULE_MEMOS = ("quotient_module", "submodule", "generator_legs", "is_projective", "injective_embed")
# the memo each recorded builder fills
BUILDER_MEMOS = {
    "_cover": "projective_cover_diagram",
    "_embedding": "embed_gproj_into_proj",
    "gproj_left_kan_data": "gproj_left_kan",
    "_free_diagram": "free_diagram",
    "_first_walk_back": "approx_walk_back",
    "_is_stable_iso": "is_stable_iso",
    **{"_" + name: name for name in MODULE_MEMOS},
}


def _one_of_each_type(alg):
    """One module of each isomorphism type (dim, rank of x) of dim <= 4."""
    firsts = {}
    for m in all_modules(alg, 4):
        firsts.setdefault((m.dim, rank(m.action[1]) if m.dim else 0), m)
    return [firsts[t] for t in sorted(firsts)]


def _seeded_f3_diagrams(seeds=(1, 2)):
    """One functorial, not Gorenstein-projective diagram per seed over each
    of the arrow, cospan and square, of nonzero F_3[x]/(x^2)-modules of dim
    <= 2 and random maps."""
    alg = dual_numbers(3)
    mods = [m for m in all_modules(alg, 2) if m.dim]
    out = []
    for seed in seeds:
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
    the diagram of a cover, embedding or Kan extension, the parts of a free
    diagram, the module of a quotient, submodule, set of generator legs,
    projectivity test or injective envelope, the inflation of a deepest
    walk-back step and the first module of a stable-iso search."""
    builders = {"_cover": diagrams, "_free_diagram": diagrams, "_embedding": gorenstein, "gproj_left_kan_data": gorenstein, "_first_walk_back": gorenstein}
    builders.update({"_" + name: modules for name in MODULE_MEMOS + ("is_stable_iso",)})
    built = {name: [] for name in builders}
    for name, inputs in built.items():
        owner = builders[name]

        def recording(*args, _inputs=inputs, _original=getattr(owner, name), _at=0 if owner is modules else -1):
            _inputs.append(args[_at])
            return _original(*args)

        monkeypatch.setattr(owner, name, recording)
    return built


def _counts_since(before):
    """memo_counts() minus the counts before, by memo name."""
    zero = dict.fromkeys(("lookups", "hits", "builds", "not_kept"), 0)
    return {name: {k: v - before.get(name, zero)[k] for k, v in c.items()} for name, c in algebra.memo_counts().items()}


@pytest.mark.parametrize("case", ["stability-types", "f3-diagrams"])
def test_warm_memos_give_the_bytes_of_cold_ones(dn, monkeypatch, case):
    inputs, digest = (_one_of_each_type(dn), _loop_bytes) if case == "stability-types" else (_seeded_f3_diagrams(), _approx_bytes)
    assert len(inputs) == (9 if case == "stability-types" else 6)
    cold = []
    for x in inputs:
        clear_memos()
        cold.append(digest(x))
    filling = [digest(x) for x in inputs]  # later inputs hit what earlier ones kept
    alg = inputs[0].alg
    assert sum(len(memo) for a in (alg, alg.opposite()) for memo in a._memos.values()) > 0
    before = algebra.memo_counts()
    built = _record_builds(monkeypatch)
    warm = [digest(x) for x in inputs]
    assert filling == cold and warm == cold
    counts = _counts_since(before)
    assert {"free_diagram", "embed_gproj_into_proj", "injective_embed"} <= set(counts)
    # the warm pass built only what is too large to be kept: the iso
    # searches of stability-types, whose 108 distinct cones evict each other
    # from the quotient memo, are kept whole and not run again
    assert "approx_walk_back" in counts and ("is_stable_iso" in counts) == (case == "stability-types")
    for name, c in counts.items():
        assert c["lookups"] == c["hits"] + c["builds"]
        assert c["builds"] == 0
    # every recorded build is a miss or an input too large to keep
    none = {"builds": 0, "not_kept": 0}
    for builder, name in BUILDER_MEMOS.items():
        assert len(built[builder]) == counts.get(name, none)["builds"] + counts.get(name, none)["not_kept"]


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
    # an envelope is built from the dual module, whose constructions are
    # recorded too: so it comes last
    env, env2 = injective_embed(m), injective_embed(c)
    assert env.left.src is m and env2.left.src is c and env2.middle is env.middle and env2.right is env.right
    assert env2.left.mat == env.left.mat
    env2.validate()
    assert all(built["_" + name][:1] == [m] for name in MODULE_MEMOS)
    assert all(x.alg is not dn for name in MODULE_MEMOS for x in built["_" + name][1:])  # the copy c hit every memo


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
    injective_embed(huge)
    assert not any(dn._memos.get(name) for name in MODULE_MEMOS)

    monkeypatch.setattr(algebra, "MEMO_MAX_ENTRIES", 3)
    built = _record_builds(monkeypatch)
    for x in _seeded_f3_diagrams():
        approx_gproj(x)
        hull_ginj(x)
        for alg in (x.alg, x.alg.opposite()):
            for name in ("embed_gproj_into_proj", "projective_cover_diagram", "free_diagram") + MODULE_MEMOS:
                assert len(alg._memos.get(name, {})) <= 3
    assert len(built["_cover"]) > 6  # both cover memos were full
    assert len(built["_free_diagram"]) > 6  # and so was the free one
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


def test_a_stable_iso_hit_is_rechecked_over_the_callers_modules(dn, simple):
    m = direct_sum([simple, simple])[0]  # not projective: its stable End is not 0
    m2 = Module(dn, [Mat(2, a.a.copy()) for a in m.action])
    cold = is_stable_iso(m, m)
    warm = is_stable_iso(m2, m2)
    assert cold.is_true and (warm.status, warm.reason) == (cold.status, cold.reason)
    assert [h.mat for h in warm.witness] == [h.mat for h in cold.witness]
    assert all(h.src is m2 and h.tgt is m2 for h in warm.witness)
    assert algebra.memo_counts()["is_stable_iso"] == {"lookups": 2, "hits": 1, "builds": 1, "not_kept": 0}
    # a kept witness that is no longer a stable inverse pair is refused on
    # the next hit, whichever of its two maps went wrong
    memo = dn._memos["is_stable_iso"]
    (key, (status, reason, (f, g))), = memo.items()
    zero = Mat.zeros(2, m.dim, m.dim)
    for bad in ((zero, g), (f, zero)):
        memo[key] = (status, reason, bad)
        with pytest.raises(ModuleError, match="not a stable inverse pair"):
            is_stable_iso(m2, m2)
    # a forged "yes" for k and k (+) k, whose g o f is the identity but whose
    # f o g is not, even modulo projectives
    assert is_stable_iso(simple, m).is_false
    memo[(module_key(simple), module_key(m), 4096, 0)] = ("true", "forged", (Mat(2, [[1], [0]]), Mat(2, [[1, 0]])))
    with pytest.raises(ModuleError, match="not a stable inverse pair"):
        is_stable_iso(simple, m)


def test_a_stable_iso_across_instances_is_refused_before_any_lookup(dn, simple):
    other = dual_numbers(2)
    simple2 = Module(other, list(simple.action))
    for m, n in ((simple, simple2), (simple2, simple)):
        with pytest.raises(ModuleError, match="shared algebra instance"):
            is_stable_iso(m, n)
    assert not dn._memos and not other._memos and "is_stable_iso" not in algebra.memo_counts()


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
    # the deepest walk-back step and the iso search are kept, and each hits
    # for at least 0.9 of its lookups; the embeddings are asked only by the
    # steps that miss
    counts = algebra.memo_counts()
    for name in ("approx_walk_back", "is_stable_iso"):
        assert counts[name]["lookups"] >= 300 and counts[name]["hits"] >= 0.9 * counts[name]["lookups"]
    assert calls["embed_gproj_into_proj"] <= LOOP_BUILDS and calls["gproj_left_kan"] == 344
    assert len(built["_embedding"]) <= LOOP_BUILDS
    assert len(built["gproj_left_kan_data"]) <= LOOP_BUILDS
    assert len(built["_first_walk_back"]) <= LOOP_BUILDS and len(built["_is_stable_iso"]) <= LOOP_BUILDS
    # every stable Hom of the pass is kept: each distinct pair is built once
    assert stable_built and set(Counter(stable_built).values()) == {1}


def test_a_walk_back_hit_wraps_the_callers_cover(dn, simple, monkeypatch):
    seen = []
    monkeypatch.setattr(gorenstein, "_deepest_step", lambda infl, _original=gorenstein._deepest_step: seen.append(infl) or _original(infl))
    hull_ginj(stalk_diagram(homotopy._corner_in_square().dom, dn, "z", simple))
    (infl,) = seen
    alg = infl.src.alg
    copy = lambda x: Diagram(x.shape, alg, {o: Module(alg, [Mat(2, a.a.copy()) for a in x.at(o).action]) for o in x.shape.objects}, {f: Mat(2, a.a.copy()) for f, a in x.mats.items()})
    infl2 = diagrams.DiagramMap(copy(infl.src), copy(infl.tgt), {o: Mat(2, c.a.copy()) for o, c in infl.comps.items()})
    built = _record_builds(monkeypatch)
    (from_H, from_P), (from_H2, from_P2) = gorenstein._deepest_step(infl), gorenstein._deepest_step(infl2)
    assert built["_first_walk_back"] == []  # the hull kept it
    assert from_H2 is from_H and from_P.src is infl.tgt and from_P2.src is infl2.tgt and from_P2.tgt is from_H.tgt
    for o in infl.src.shape.objects:
        assert from_P2.comps[o] == from_P.comps[o] and np.array_equal(from_P2.sections[o], from_P.sections[o])
    from_P2.validate()


def test_each_class_of_cover_inflation_gives_cold_bytes_from_a_warm_walk_back(dn, monkeypatch):
    """The deepest walk-back step is kept by the content of the inflation
    K >-> P of the hull's last cover.  Over the 344 modules these fall into
    17 classes (one of them: no walk-back, as the stalk of 0 is already
    Gorenstein projective); for each, the last module of the class, run
    after its first module filled the memos, gives the bytes it gives
    cold."""
    classes = {}
    seen = []

    def recording(infl, _original=gorenstein._deepest_step):
        seen.append((diagram_key(infl.src), diagram_key(infl.tgt), b"".join([c.a.tobytes() for c in infl.comps.values()])))
        return _original(infl)

    monkeypatch.setattr(gorenstein, "_deepest_step", recording)
    for m in all_modules(dn, 4):
        seen.clear()
        loop_via_square(m)
        assert len(seen) <= 1
        classes.setdefault(seen[0] if seen else None, []).append(m)
    assert len(classes) == 17

    def digest(m):
        stalk = stalk_diagram(homotopy._corner_in_square().dom, dn, "z", m)
        return _loop_bytes(m), _triple_bytes(hull_ginj(stalk))

    for key, members in classes.items():
        first, last = members[0], members[-1]
        clear_memos()
        cold = digest(last)
        clear_memos()
        digest(first)
        before = algebra.memo_counts()
        assert digest(last) == cold
        # a kept class is looked up twice by the warm digest, and hits both times
        kept = key is not None and sum(d for d, _ in key[0][1] + key[1][1]) <= algebra.MEMO_MAX_TOTAL_DIM
        assert _counts_since(before).get("approx_walk_back", {}).get("hits", 0) == (2 if kept else 0)


def test_a_free_diagram_is_kept_by_its_name_and_sized_by_its_parts(dn, simple, reg, monkeypatch):
    square = square_category()
    parts = [("(0,0)", direct_sum([reg] * 5)[0]), ("(1,1)", simple)]
    q = free_diagram(square, dn, parts)
    assert q.total_dim() > algebra.MEMO_MAX_TOTAL_DIM >= free_name(square, parts)[1] == 11
    copies = [(j, Module(dn, [Mat(2, a.a.copy()) for a in m.action])) for j, m in parts]
    built = _record_builds(monkeypatch)
    assert free_diagram(square, dn, copies) is q and built["_free_diagram"] == []
    # a name over the opposite algebra is kept by the opposite, never handed to dn
    op = dn.opposite()
    op_parts = [(j, Module(op, list(m.action))) for j, m in parts]
    assert free_name(square, op_parts) == free_name(square, parts)
    q_op = free_diagram(square, op, op_parts)
    assert q_op is not q and q_op.alg is op and all(q_op.at(o).alg is op for o in square.objects)
    assert free_diagram(square, dn, parts) is q and free_diagram(square, op, op_parts) is q_op
    # parts above the dim bound are built on every call and not kept
    big = [("(0,0)", free_module(dn, 17))]
    assert free_name(square, big)[1] > algebra.MEMO_MAX_TOTAL_DIM
    assert free_diagram(square, dn, big) is not free_diagram(square, dn, big)
    assert len(built["_free_diagram"]) == 3 and list(dn._memos["free_diagram"]) == [free_name(square, parts)[0]]
    assert algebra.memo_counts()["free_diagram"]["not_kept"] == 2


def test_each_free_diagram_is_built_only_on_a_memo_miss(monkeypatch):
    # the standard shapes are shared, so names recur across the 30 diagrams
    # and hit the memo; a name is built again only once the 64-entry memo
    # has evicted it, and never more often than when each call built its
    # own shape and no name recurred (111 builds)
    xs = _seeded_f3_diagrams(range(1, 11))
    assert len(xs) == 30
    names = []

    def recording(shape, alg, parts, _original=diagrams._free_diagram):
        names.append((alg, free_name(shape, parts)[0]))
        return _original(shape, alg, parts)

    monkeypatch.setattr(diagrams, "_free_diagram", recording)
    for x in xs:
        approx_gproj(x)
        hull_ginj(x)
    counts = algebra.memo_counts()["free_diagram"]
    assert 30 < len(names) <= 111 and counts["hits"] > 0
    assert counts["builds"] + counts["not_kept"] == len(names) and counts["lookups"] == counts["hits"] + counts["builds"]


def test_memo_counts_count_lookups_hits_builds_and_inputs_not_kept(dn, simple):
    assert algebra.memo_counts() == {}
    m = direct_sum([simple, simple])[0]
    for _ in range(3):
        is_projective(m)
    is_projective(free_module(dn, 17))
    assert algebra.memo_counts()["is_projective"] == {"lookups": 3, "hits": 2, "builds": 1, "not_kept": 1}
    clear_memos()
    assert algebra.memo_counts() == {}
    # a scenario run counts, and its report carries none of it
    report, code = cli.run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0 and algebra.memo_counts()
    assert not re.search(r"lookups|not_kept|memo", json.dumps(report))


def test_a_second_regression_run_reuses_the_first_and_builds_nothing(monkeypatch):
    sessions = []
    load = cli.Session.load

    def recording(self):
        load(self)
        sessions.append(self)

    monkeypatch.setattr(cli.Session, "load", recording)
    first, code = cli.run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0
    before = algebra.memo_counts()
    second, code = cli.run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0
    assert {k: v for k, v in second.items() if k != "meta"} == {k: v for k, v in first.items() if k != "meta"}
    # the second session gets the first one's algebra, shapes and functors
    # back, and reads its diagrams and complexes anew
    old, new = sessions
    assert new.alg is old.alg
    assert all(new.categories[n] is c for n, c in old.categories.items()) and all(new.functors[n] is u for n, u in old.functors.items())
    assert not any(new.diagrams[n] is d for n, d in old.diagrams.items())
    counts = _counts_since(before)
    assert {"projective_cover_diagram", "free_diagram", "gproj_left_kan"} <= set(counts)
    for name, c in counts.items():
        assert c["builds"] == 0 and c["lookups"] == c["hits"], name


def test_a_second_regression_run_builds_only_the_sod_subshapes(monkeypatch):
    # the standard shapes, their opposites and punctured slices, [1] x I of
    # the arrow lifts and the discrete shapes of the termwise contractions
    # are built once; a second run builds only the full subcategory that
    # each sod split over the arrow recurses on
    import derlab.cats as cats

    assert cli.run_scenario(str(SCENARIOS / "regression.json"))[1] == 0
    built = []
    init = cats.DirectCategory.__init__

    def recording(self, *args, **kwargs):
        built.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cats.DirectCategory, "__init__", recording)
    assert cli.run_scenario(str(SCENARIOS / "regression.json"))[1] == 0
    assert built == [("full_subcategory", "_sod_recurse")] * 2


def test_memo_counts_lose_no_update_under_threads(dn, simple):
    m = direct_sum([simple, simple])[0]
    is_projective(m)
    calls = 2000

    def work():
        for _ in range(calls):
            is_projective(m)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert algebra.memo_counts()["is_projective"] == {"lookups": 1 + 4 * calls, "hits": 4 * calls, "builds": 1, "not_kept": 0}


def _resolution_bytes(cx):
    return cx.blocks, sorted(cx.coeffs.items()), [(a, m.a.tobytes()) for a, m in sorted(cx.aug.items())]


def test_minimal_resolutions_give_the_same_bytes_on_every_call():
    # the restriction weights of the dg route over the square at p = 2, 3,
    # including the non-free ones along the corner inclusion; resolutions
    # are not kept, so each call builds its own complex
    corner = _corner_in_square()
    functors = [identity_functor(square_category()), corner, opposite_functor(corner)]
    weights = [dgkan.restriction_weight_right(u, j, p) for p in (2, 3) for u in functors for j in u.cod.objects]
    cold = []
    for w in weights:
        clear_memos()
        cold.append(_resolution_bytes(dgkan.minimal_resolution(w)))
    warm = [dgkan.minimal_resolution(w) for w in weights]
    assert [_resolution_bytes(cx) for cx in warm] == cold
    assert "minimal_resolution" not in algebra.memo_counts()
    warm[0].blocks.clear(), warm[0].coeffs.clear(), warm[0].aug.clear()
    assert _resolution_bytes(dgkan.minimal_resolution(weights[0])) == cold[0]
