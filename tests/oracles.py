"""Reference answers that only the tests use.

Each oracle decides by a different route what the library decides by
ranks or by a certified construction, and the tests compare the two:

- contraction_on_window: one joint linear solve over the hom spaces,
  against complexes.is_contractible_on and the termwise contractions;
- split_section_diagrams: splitting a deflation by a linear solve, against
  gorenstein.is_projective_diagram on projective covers;
- is_projective_inflation and is_deflation: read off the built latching
  and matching data, against the rank predicates;
- triangle_composites_vanish_stably: the three composites of a triangle
  from a conflation vanish in the stable category, by the stable hom
  spaces;
- ext1_by_kernel: Ext^1 with the image of Hom(P, y) from the kernel of
  its equations, against diagrams.ext1, which takes it from the
  adjunction;
- factor_by_solve and coordinates_by_solve: maps out of a quotient and
  into a submodule by a solve, the routes diagrams.factor_by_section and
  field.solve_by_pivots replaced.  They take the same arguments, so a
  test can put them in their place and rebuild every construction.

The library must not call them: the tests assert that it has no
contraction_on_window and no split_section_diagrams.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from derlab.complexes import LazyComplex
from derlab.diagrams import (
    Diagram,
    DiagramError,
    DiagramMap,
    compose_diagram_maps,
    hom_space_diagrams,
    identity_diagram_map,
    projective_cover_diagram,
    solve_in_hom,
    vec_diagram_map,
    zero_diagram_map,
)
from derlab.field import Mat, column_space_basis, hstack, rank, solve
from derlab.gorenstein import LatchingDatum, MatchingDatum
from derlab.homotopy import Triangle, stable_hom_diagrams, suspension_on_map
from derlab.modules import class_reps, is_projective, quotient_module


def contraction_on_window(c: LazyComplex, lo: int, hi: int) -> Optional[Dict[int, DiagramMap]]:
    """Degree -1 maps h with d h + h d = id at the inner degrees, or None.

    One joint linear solve over the hom spaces Hom(C^k, C^{k-1}).
    """
    p = c.alg.p
    degrees = list(range(lo + 1, hi + 1))   # h^k: C^k -> C^{k-1}
    inner = list(range(lo + 1, hi))         # equations at these degrees
    bases = {k: hom_space_diagrams(c.term(k), c.term(k - 1)) for k in degrees}
    cols = []
    col_meta = []
    for k in degrees:
        for idx, b in enumerate(bases[k]):
            parts = []
            for m in inner:
                contrib = None
                if m == k:
                    contrib = compose_diagram_maps(c.diff(m - 1), b)
                elif m == k - 1:
                    contrib = compose_diagram_maps(b, c.diff(m))
                if contrib is None:
                    contrib = zero_diagram_map(c.term(m), c.term(m))
                parts.append(vec_diagram_map(contrib).a.reshape(-1))
            cols.append(np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64))
            col_meta.append((k, idx))
    target_parts = [vec_diagram_map(identity_diagram_map(c.term(m))).a.reshape(-1) for m in inner]
    target = np.concatenate(target_parts) if target_parts else np.zeros(0, dtype=np.int64)
    if not cols:
        return {} if not target.any() else None
    sol = solve(Mat(p, np.stack(cols, axis=1)), Mat(p, target.reshape(-1, 1)))
    if sol is None:
        return None
    out: Dict[int, DiagramMap] = {k: zero_diagram_map(c.term(k), c.term(k - 1)) for k in degrees}
    for pos_idx, (k, idx) in enumerate(col_meta):
        coeff = int(sol.a[pos_idx, 0])
        if coeff:
            out[k] = out[k] + bases[k][idx].scale(coeff)
    return out


def split_section_diagrams(defl: DiagramMap) -> Optional[DiagramMap]:
    """A section s with defl o s = id, or None."""
    x = defl.tgt
    return solve_in_hom(x, defl.src, [(identity_diagram_map(x), defl, identity_diagram_map(x))])


def is_projective_inflation(lat: LatchingDatum) -> bool:
    """An inflation with a projective cokernel, read off the built L_j; the
    tests compare is_projective_diagram's ranks with it."""
    return lat.is_inflation and is_projective(quotient_module(lat.map.tgt, lat.map.mat)[0])


def is_deflation(mat: MatchingDatum) -> bool:
    return rank(mat.map.mat) == mat.module.dim


def triangle_composites_vanish_stably(tri: Triangle) -> bool:
    one = compose_diagram_maps(tri.g, tri.f)
    if not one.is_zero():
        return False
    two = compose_diagram_maps(tri.delta, tri.g)
    rep = stable_hom_diagrams(tri.g.src, tri.delta.tgt)
    if not rep.in_proj_subspace(two):
        return False
    sus_f = suspension_on_map(tri.f)
    three = compose_diagram_maps(sus_f, tri.delta)
    rep3 = stable_hom_diagrams(tri.delta.src, sus_f.tgt)
    return rep3.in_proj_subspace(three)


def ext1_by_kernel(x: Diagram, y: Diagram) -> Tuple[int, Mat, List[DiagramMap]]:
    """(dim, image of Hom(P, y) in Hom(K, y), class representatives) of
    Ext^1(x, y) over the cover K >-> P ->> x, with Hom(P, y) solved for
    as a kernel and composed with the inclusion."""
    cover = projective_cover_diagram(x)
    incl = cover.left
    from_p = hom_space_diagrams(cover.middle, y)
    from_k = hom_space_diagrams(cover.sub, y)
    if not from_k:
        return 0, Mat.zeros(x.alg.p, 0, 0), []
    img = [vec_diagram_map(compose_diagram_maps(h, incl)) for h in from_p]
    sub = column_space_basis(hstack(img)) if img else Mat.zeros(x.alg.p, vec_diagram_map(from_k[0]).rows, 0)
    return len(from_k) - sub.cols, sub, class_reps(from_k, vec_diagram_map, sub)


def factor_by_solve(t: Mat, sigma: Mat, section=None) -> Mat:
    """phi with phi @ sigma = t by a solve; the section is not read.  The
    canonical solution, checked by a product; a t that does not factor
    raises the DiagramError of diagrams.factor_by_section."""
    phi_t = solve(sigma.T, t.T)
    if phi_t is None:
        raise DiagramError("map does not factor through the surjection")
    assert phi_t.T @ sigma == t
    return phi_t.T


def coordinates_by_solve(a: Mat, pivots, b: Mat) -> Optional[Mat]:
    """x with a @ x = b by a solve, or None; the pivots are not read."""
    x = solve(a, b)
    assert x is None or a @ x == b
    return x
