"""The stable layer over diagram categories: stable homs, weak equivalences,
suspension/loop, triangles from conflations, the loop-functor pipeline
through the square shape, and arrow-diagram lifts.

A map between Gorenstein-projective diagrams is invertible in the stable
quotient iff it is a degreewise stable isomorphism.  For a *given* map both
sides are decided exactly, with no search budget: each component, a module
map, by its cone (a "no" needs nothing more, a "yes" is certified by one
solve for its stable inverse), the diagram map by one such solve
(modules.stable_iso_map_in).  Budgets enter only when asking whether two
diagrams are stably isomorphic with no map in hand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .cats import (
    CatFunctor,
    arrow_category,
    cospan_category,
    product_category,
    square_category,
)
from .field import Mat, rank, vstack
from .modules import (
    Module,
    StableHomReport,
    StableIsoPair,
    generator_legs,
    is_stable_iso_map,
    regular_module,
    stable_hom_in,
    stable_iso_map_in,
    stable_iso_pair_in,
    stable_iso_search,
    syzygy,
)
from .modules import is_stable_iso as is_stable_iso_modules
from .diagrams import (
    Diagram,
    DiagramConflation,
    DiagramMap,
    compose_diagram_maps,
    direct_sum_diagrams,
    free_legs_at,
    hom_space_diagrams,
    identity_diagram_map,
    left_kan_from_point,
    projective_cover_diagram,
    solve_in_hom,
    stalk_diagram,
    vec_diagram_map,
    zero_diagram_map,
)
from .gorenstein import (
    PreconditionError,
    VerificationError,
    embed_gproj_into_proj,
    ginj_right_kan,
    hull_ginj,
    is_gproj,
)
from .verdict import FALSE, TRUE, Verdict


# -- stable homs of diagrams ---------------------------------------------------


class _DiagramOps:
    """Diagrams as an exact category for the stable layer in modules.py."""

    error = VerificationError
    hom_label = "Hom(x, y)"

    def hom(self, a: Diagram, b: Diagram) -> List[DiagramMap]:
        return hom_space_diagrams(a, b)

    def vec(self, f: DiagramMap) -> Mat:
        return vec_diagram_map(f)

    def compose(self, g: DiagramMap, f: DiagramMap) -> DiagramMap:
        return compose_diagram_maps(g, f)

    def identity(self, a: Diagram) -> DiagramMap:
        return identity_diagram_map(a)

    def zero(self, a: Diagram, b: Diagram) -> DiagramMap:
        return zero_diagram_map(a, b)

    def free_blocks(self, x: Diagram) -> List[Tuple[Diagram, List[DiagramMap]]]:
        """j_!(Lambda) for each object j where x has generators, with one leg
        per generator g of x_j: at o, the copy of Lambda for f: j -> o goes
        to x_o by x(f) o (1 |-> g)."""
        shape, alg = x.shape, x.alg
        blocks = []
        for j in shape.objects:
            legs = generator_legs(x.at(j))
            if not legs:
                continue
            free = left_kan_from_point(shape, alg, j, regular_module(alg))
            maps = [DiagramMap(free, x, {o: free_legs_at(x, j, [leg], o) for o in shape.objects}) for leg in legs]
            blocks.append((free, maps))
        return blocks

    def cone(self, a: Diagram, b: Diagram) -> Tuple[None, None]:
        """No cone data: diagrams over Lambda are not a Frobenius category,
        and an inflation into a projective exists only for Gorenstein
        projective sources, so every map goes to the solve."""
        return None, None

    def stable_hom(self, a: Diagram, b: Diagram) -> StableHomReport:
        return stable_hom_diagrams(a, b)

    def is_stable_iso_map(self, f: DiagramMap, pair: StableIsoPair) -> Tuple[bool, Optional[DiagramMap]]:
        return is_stable_iso_map_diagrams(f, pair)


_DIAGRAMS = _DiagramOps()


def stable_hom_diagrams(x: Diagram, y: Diagram) -> StableHomReport:
    """Hom(x, y) modulo maps factoring through a projective diagram; the
    subspace is spanned by the maps x -> j_!(Lambda) composed with the
    generator legs j_!(Lambda) -> y."""
    return stable_hom_in(_DIAGRAMS, x, y)


def stable_iso_pair_diagrams(x: Diagram, y: Diagram) -> StableIsoPair:
    """The pair data of is_stable_iso_map_diagrams, for several maps x -> y."""
    return stable_iso_pair_in(_DIAGRAMS, x, y)


def is_stable_iso_map_diagrams(
    f: DiagramMap, pair: Optional[StableIsoPair] = None
) -> Tuple[bool, Optional[DiagramMap]]:
    """Exact two-sided stable invertibility of a given map (one solve);
    pair as for modules.is_stable_iso_map."""
    return stable_iso_map_in(_DIAGRAMS, f, pair or stable_iso_pair_in(_DIAGRAMS, f.src, f.tgt))


def is_stable_iso_diagrams(x: Diagram, y: Diagram, budget: int = 4096, seed: int = 0) -> Verdict:
    """Budgeted search for a stable isomorphism of diagrams.

    Componentwise obstructions certify "false" cheaply; candidates then run
    over stable classes of Hom(x, y), each checked exactly."""
    for o in x.shape.objects:
        comp = is_stable_iso_modules(x.at(o), y.at(o), budget=budget, seed=seed)
        if comp.is_false:
            return Verdict(FALSE, reason=f"components at {o} are not stably isomorphic ({comp.reason})")
    return stable_iso_search(_DIAGRAMS, x, y, stable_hom_diagrams(x, y), budget, seed)


# -- weak equivalences ------------------------------------------------------------


def is_weak_equivalence(f: DiagramMap) -> Verdict:
    """Degreewise stable isomorphism, decided exactly componentwise."""
    for o in f.src.shape.objects:
        ok, _ = is_stable_iso_map(f.at(o))
        if not ok:
            return Verdict(FALSE, reason=f"component at {o} is not a stable isomorphism")
    return Verdict(TRUE, reason="all components are stable isomorphisms")


def der2_witness(f: DiagramMap, pair: Optional[StableIsoPair] = None) -> Dict[str, object]:
    """Both directions of the pointwise-detection axiom for one map; pair as for is_stable_iso_map_diagrams."""
    componentwise = is_weak_equivalence(f)
    global_ok, inv = is_stable_iso_map_diagrams(f, pair)
    return {
        "componentwise": componentwise.status,
        "stable_inverse_exists": global_ok,
        "agree": (componentwise.is_true == global_ok),
    }


# -- suspension and loop --------------------------------------------------------------


def suspension(x: Diagram) -> Diagram:
    """Cokernel of the embedding into a projective diagram; Gorenstein
    projective by the embedding's postcondition."""
    return embed_gproj_into_proj(x).quot


def loop(x: Diagram) -> Diagram:
    """Kernel of the projective cover; the first syzygy diagram."""
    out = projective_cover_diagram(x).sub
    if not is_gproj(out):
        raise VerificationError("loop output failed the latching check")
    return out


def suspension_on_map(f: DiagramMap) -> DiagramMap:
    """Induced map on suspensions, through an extension across the embeddings."""
    emb_x = embed_gproj_into_proj(f.src)
    emb_y = embed_gproj_into_proj(f.tgt)
    return _induced_on_quotients(emb_x, emb_y, compose_diagram_maps(emb_y.left, f), "suspension extension failed")


def _induced_on_quotients(src: DiagramConflation, tgt: DiagramConflation, f: DiagramMap, failure: str) -> DiagramMap:
    """The map src.quot -> tgt.quot induced by f: src.sub -> tgt.middle:
    extend f along the inflation src.left to phi: src.middle -> tgt.middle,
    then psi with psi o src.right = tgt.right o phi, unique because
    src.right is onto."""
    phi = solve_in_hom(src.middle, tgt.middle, [(src.left, identity_diagram_map(tgt.middle), f)])
    if phi is None:
        raise VerificationError(failure)
    psi = solve_in_hom(src.quot, tgt.quot, [(src.right, identity_diagram_map(tgt.quot), compose_diagram_maps(tgt.right, phi))])
    if psi is None:
        raise VerificationError(failure)
    return psi


# -- triangles --------------------------------------------------------------------------


@dataclass
class Triangle:
    base: DiagramConflation
    f: DiagramMap            # a -> b
    g: DiagramMap            # b -> c
    delta: DiagramMap        # c -> suspension(a) = delta.tgt


def triangle_from_conflation(confl: DiagramConflation) -> Triangle:
    """The connecting map through an embedding of the subobject."""
    emb = embed_gproj_into_proj(confl.sub)
    delta = _induced_on_quotients(confl, emb, emb.left, "triangle construction: extension failed")
    return Triangle(confl, confl.left, confl.right, delta)


# -- the loop functor through the square --------------------------------------------------


@dataclass
class LoopViaSquareResult:
    module: Module
    versus_syzygy: Verdict
    syzygy: Module


@lru_cache(maxsize=None)
def _corner_in_square() -> CatFunctor:
    """The corner x -> z <- y (z terminal) included in the square.  Built
    once, so that the hom-set, punctured-slice and opposite caches of both
    shapes serve every call; no construction mutates a category."""
    return CatFunctor(
        cospan_category(),
        square_category(),
        {"x": "(0,1)", "y": "(1,0)", "z": "(1,1)"},
        {"f": "(e0,1_1)", "g": "(1_1,e0)"},
    )


def loop_via_square(m: Module, budget: int = 4096, seed: int = 0) -> LoopViaSquareResult:
    """Extend by zero to the corner shape, replace by a Gorenstein-injective
    diagram, right-Kan along the corner inclusion into the square, evaluate
    at the initial vertex; compared against the syzygy."""
    incl = _corner_in_square()
    x = stalk_diagram(incl.dom, m.alg, "z", m)
    if not is_gproj(x):
        raise VerificationError("corner stalk failed the latching check")
    hull = hull_ginj(x)
    y = hull.conflation.middle
    w = ginj_right_kan(incl, y)
    result = w.at("(0,0)")
    sz = syzygy(m)
    verdict = is_stable_iso_modules(result, sz, budget=budget, seed=seed)
    return LoopViaSquareResult(result, verdict, sz)


# -- arrow-diagram lifts (strongness witnesses) ---------------------------------------------


def lift_to_arrow_diagram(f: DiagramMap) -> Diagram:
    """A Gorenstein-projective diagram over [1] x I whose edge represents the
    stable class of f: the edge (f, eta): f.src -> f.tgt (+) Q, with
    eta: f.src >-> Q the embedding into a projective diagram
    (embed_gproj_into_proj).  That edge is an inflation with a
    Gorenstein-projective cokernel, so the arrow diagram is Gorenstein
    projective; the edge's rank and the latching check are re-verified."""
    if not (is_gproj(f.src) and is_gproj(f.tgt)):
        raise PreconditionError("arrow lifts are built between Gorenstein projectives")
    I = f.src.shape
    arrow = arrow_category()
    if f.src is f.tgt and all(f.comps[o].is_identity() for o in I.objects):
        y2, edge = f.tgt, f
    else:
        pad = embed_gproj_into_proj(f.src)
        y2 = direct_sum_diagrams([f.tgt, pad.middle])[0]
        edge = DiagramMap(f.src, y2, {o: vstack([f.comps[o], pad.left.comps[o]]) for o in I.objects})
        for o in I.objects:
            if rank(edge.comps[o]) != f.src.at(o).dim:
                raise VerificationError("padded edge is not an inflation")
    modules = {f"({a},{o})": end.at(o) for a, end in (("0", f.src), ("1", y2)) for o in I.objects}
    mats = {}
    for am, im in itertools.product(arrow.morphisms, I.morphisms):
        if am == "e0":  # the edge block composed with the structure map
            mats[f"({am},{im})"] = y2.mat(im) @ edge.comps[I.src(im)]
        elif not I.is_identity(im):
            mats[f"({am},{im})"] = (f.src if am == "1_0" else y2).mat(im)
    z = Diagram(product_category(arrow, I), f.src.alg, modules, mats)
    if not is_gproj(z):
        raise VerificationError("arrow lift failed the latching check")
    return z
