"""A module map is decided by its cone: f: m -> n is a stable isomorphism
iff coker([f; iota]: m -> n (+) I(m)) is projective, and the inverse solve
runs only to build and certify a "yes"."""

import itertools
from pathlib import Path

import pytest

import derlab.modules as modules
from derlab.algebra import dual_numbers, group_algebra_c2
from derlab.cli import run_scenario
from derlab.field import Mat
from derlab.modules import (
    ModuleError,
    ModuleMap,
    StableIsoPair,
    candidate_maps,
    direct_sum,
    hom_space,
    identity_map,
    is_stable_iso,
    is_stable_iso_map,
    stable_hom,
    stable_iso_map_in,
    zero_map,
)
from derlab.samples import all_modules

OPS = modules._MODULES
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _cokernel_of_f_alone(m, n):
    """A broken cone that drops iota: it tests coker(f) for projectivity."""
    return Mat.zeros(m.alg.p, 0, m.dim), n


def _disagreements(alg, max_dim, maps_per_pair, cone_data):
    """Over every pair of nonzero modules of dim <= max_dim, the maps on
    which deciding by the cone of cone_data differs from the solve alone,
    with a raise counted as a difference; and the set of verdicts seen.
    Each pair tries every map when there are at most maps_per_pair, and
    that many seeded draws otherwise."""
    mods = [m for m in all_modules(alg, max_dim) if m.dim]
    bad, seen = 0, set()
    for (i, m), n in itertools.product(enumerate(mods), mods):
        plain = StableIsoPair(m, n, hom_space(n, m), stable_hom(m, m), stable_hom(n, n))  # no cone data
        coned = StableIsoPair(m, n, plain.back, plain.end_src, plain.end_tgt, *cone_data(m, n))
        _, maps = candidate_maps(hom_space(m, n), zero_map(m, n), maps_per_pair, i)
        for f in maps:
            want, g_want = stable_iso_map_in(OPS, f, plain)
            try:
                got, g_got = stable_iso_map_in(OPS, f, coned)
            except ModuleError:
                bad += 1
                continue
            bad += got != want or (got and g_got.mat != g_want.mat)
            seen.add(want)
    return bad, seen


ORACLE_SETS = [
    pytest.param(dual_numbers(2), 3, 4, id="F2[x]/x2-dim3"),
    pytest.param(dual_numbers(3), 2, 81, id="F3[x]/x2-dim2"),
    pytest.param(group_algebra_c2(3), 2, 3, id="F3C2-dim2"),
]


@pytest.mark.parametrize("alg, max_dim, maps_per_pair", ORACLE_SETS)
def test_cone_agrees_with_the_solve_on_every_map(alg, max_dim, maps_per_pair):
    bad, seen = _disagreements(alg, max_dim, maps_per_pair, OPS.cone)
    assert bad == 0
    # F3C2 is semisimple: every module is projective, every map a stable iso
    assert seen == ({True} if not alg.is_local() else {True, False})


def test_a_cone_without_the_inflation_fails_the_oracle():
    bad, _ = _disagreements(dual_numbers(2), 2, 8, _cokernel_of_f_alone)
    assert bad > 0


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    original = modules.solve_in_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(modules, "solve_in_basis", counting)
    return calls


def test_a_cone_no_runs_no_solve(dn, simple, reg, solve_calls):
    socle = ModuleMap(simple, reg, Mat(2, [[0], [1]])).validate()
    for f, verdict, solves in (
        (zero_map(simple, simple), False, 0),
        (socle, False, 0),
        (identity_map(simple), True, 1),
        # End(reg) is stably 0: no cone, the solve decides
        (identity_map(reg), True, 1),
    ):
        pair = modules.stable_iso_pair_in(OPS, f.src, f.tgt)
        assert (pair.cone_sum is None) == (f.src is reg)
        solve_calls.clear()
        ok, g = is_stable_iso_map(f, pair)
        assert (ok, g is not None, len(solve_calls)) == (verdict, verdict, solves)


def test_a_seeded_search_solves_only_for_its_witness(dn, simple, solve_calls, monkeypatch):
    k3 = direct_sum([simple] * 3)[0]
    candidates = []
    original = modules.is_stable_iso_map

    def counting(f, pair=None):
        candidates.append(f)
        return original(f, pair)

    monkeypatch.setattr(modules, "is_stable_iso_map", counting)
    verdict = is_stable_iso(k3, k3, budget=64, seed=5)
    assert verdict.is_true and verdict.reason == "witness found by randomized search"
    assert len(candidates) > 1 and len(solve_calls) == 1


def test_a_cone_yes_the_solve_cannot_certify_raises(dn, simple, monkeypatch):
    monkeypatch.setattr(modules, "is_projective", lambda m: True)
    with pytest.raises(ModuleError, match="cone"):
        is_stable_iso_map(zero_map(simple, simple))


def test_budget_zero_still_reports_unknown_exit_three(solve_calls):
    report, code = run_scenario(str(SCENARIOS / "budget_zero.json"))
    assert code == 3
    assert [it["verdict"] for it in report["items"]] == ["unknown"]
    # a zero budget tries no candidate, so no map is checked
    assert solve_calls == []


def test_a_pair_of_one_object_has_one_stable_end(dn, simple):
    """Checking maps a -> a (der2's identity and zero maps) needs stable
    End(a) once: the pair's two End reports are one, and its basis of
    Hom(a, a) is the End report's, for modules and for diagrams alike."""
    from derlab import homotopy
    from derlab.cats import arrow_category
    from derlab.diagrams import constant_diagram

    for ops, a in ((OPS, simple), (homotopy._DIAGRAMS, constant_diagram(arrow_category(), dn, simple))):
        pair = modules.stable_iso_pair_in(ops, a, a)
        assert pair.end_tgt is pair.end_src and pair.back is pair.end_src.basis
        assert [ops.vec(h).a.tobytes() for h in pair.back] == [ops.vec(h).a.tobytes() for h in ops.hom(a, a)]
        ok, g = ops.is_stable_iso_map(ops.identity(a), pair)
        assert ok and g is not None
