"""The projective subspace of a stable Hom, computed from one free block per
free object (Hom(a, Lambda) and Hom(x, j_!Lambda) composed with the
generator legs), against the route through the whole projective cover:
Hom(a, P(b)) composed with the cover deflation P(b) ->> b."""

import itertools
import random
import sys

import pytest

import derlab.diagrams
import derlab.modules
from derlab.algebra import dual_numbers, group_algebra_c2
from derlab.cats import arrow_category, cospan_category, square_category
from derlab.diagrams import compose_diagram_maps, hom_space_diagrams, projective_cover_diagram, vec_diagram_map
from derlab.field import Mat, column_space_basis, hstack
from derlab.homotopy import is_stable_iso_diagrams, stable_hom_diagrams
from derlab.modules import compose, free_cover, hom_space, is_stable_iso, stable_hom, vec_module_map
from derlab.samples import all_diagrams, all_modules, random_gproj


def _through_cover(cover, homs, vec, comp, zero_rows, p):
    """The canonical basis of the span of cover o h over the given homs."""
    cols = [vec(comp(cover, h)) for h in homs]
    return column_space_basis(hstack(cols)) if cols else Mat.zeros(p, zero_rows, 0)


def _module_oracle(m, n, cover=None):
    """(proj_subspace, quotient_dim) of stable Hom(m, n) through P(n)."""
    cover = cover or free_cover(n).right
    sub = _through_cover(cover, hom_space(m, cover.src), vec_module_map, compose, m.dim * n.dim, m.alg.p)
    return sub, len(hom_space(m, n)) - sub.cols


def _diagram_oracle(x, y):
    cover = projective_cover_diagram(y).right
    rows = sum(x.at(o).dim * y.at(o).dim for o in x.shape.objects)
    sub = _through_cover(cover, hom_space_diagrams(x, cover.src), vec_diagram_map, compose_diagram_maps, rows, x.alg.p)
    return sub, len(hom_space_diagrams(x, y)) - sub.cols


def _agrees(report, want):
    sub, qdim = want
    return report.proj_subspace == sub and report.quotient_dim == qdim


@pytest.mark.parametrize("alg", [dual_numbers(2), dual_numbers(3), group_algebra_c2(2)], ids=["F2[x]/x2", "F3[x]/x2", "F2C2"])
def test_module_blocks_match_the_cover_route_on_every_pair(alg):
    mods = all_modules(alg, 3)
    covers = [free_cover(n).right for n in mods]
    pairs = 0
    for m, (n, cover) in itertools.product(mods, zip(mods, covers)):
        assert _agrees(stable_hom(m, n), _module_oracle(m, n, cover)), (m.dim, n.dim)
        pairs += 1
    assert pairs == len(mods) ** 2 and pairs > 100


@pytest.mark.parametrize("shape_fn", [arrow_category, cospan_category], ids=["arrow", "cospan"])
def test_diagram_blocks_match_the_cover_route_on_all_diagrams(shape_fn):
    alg = dual_numbers(2)
    shape = shape_fn()
    mods = [m for m in all_modules(alg, 2) if m.dim]
    diagrams = list(itertools.islice(all_diagrams(shape, alg, 2, modules=mods), 24))
    for x, y in itertools.product(diagrams, repeat=2):
        assert _agrees(stable_hom_diagrams(x, y), _diagram_oracle(x, y))


def test_diagram_blocks_match_the_cover_route_on_gproj_squares():
    square = square_category()
    for p in (2, 3):
        alg = dual_numbers(p)
        rng = random.Random(17 + p)
        squares = [random_gproj(square, alg, 2, rng) for _ in range(3)]
        for x, y in itertools.product(squares, repeat=2):
            assert _agrees(stable_hom_diagrams(x, y), _diagram_oracle(x, y))


def test_stable_hom_builds_no_projective_cover(monkeypatch, dn, simple, reg):
    x = random_gproj(arrow_category(), dn, 2, random.Random(3))

    def refuse(*args, **kwargs):
        raise AssertionError("stable Hom built a projective cover")

    for name, mod in list(sys.modules.items()):
        if name.startswith("derlab"):
            for attr, value in list(vars(mod).items()):
                if value is derlab.modules.free_cover or value is derlab.diagrams.projective_cover_diagram:
                    monkeypatch.setattr(mod, attr, refuse)
    assert stable_hom(simple, simple).quotient_dim == 1
    assert stable_hom(reg, simple).quotient_dim == 0
    assert is_stable_iso(simple, simple).is_true
    assert stable_hom_diagrams(x, x).quotient_dim >= 0
    assert is_stable_iso_diagrams(x, x).is_true
