"""Gorenstein structure of diagram categories over a self-injective algebra:
latching/matching data, recognition predicates, pushout-inductive colimits,
partial Kan extensions, cotorsion approximations and the stable equivalence
between the Gorenstein-projective and Gorenstein-injective sides.

Every construction here re-verifies its own postconditions (rank checks on
inflations/deflations, recognition predicates on outputs); a failed check is
a VerificationError, never a silent wrong answer.  The injective side is
obtained by linear duality over the opposite algebra and opposite shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import Algebra, require_self_injective
from .cats import (
    CatFunctor,
    DirectCategory,
    SlicePresentation,
    opposite_category,
    opposite_functor,
    punctured_slice,
)
from .field import DerlabError, Mat, block, hstack, product_defect, rank
from .modules import (
    Module,
    ModuleMap,
    compose,
    dual_module,
    hom_space,
    injective_embed,
    is_projective,
    joint_section,
    pushout,
    quotient_module,
    section_shares,
    solve_in_basis,
    vec_module_map,
    zero_map,
    zero_module,
)
from .diagrams import (
    Diagram,
    DiagramConflation,
    DiagramMap,
    by_content,
    cokernel_diagram,
    colimit_of_diagram,
    compose_diagram_maps,
    diagram_key,
    dual_conflation,
    dual_diagram,
    free_diagram,
    free_legs_at,
    from_colimit,
    identity_diagram_map,
    kernel_diagram,
    left_kan_by_slices,
    left_kan_from_point,
    projective_cover_diagram,
    pushout_diagrams,
    restrict,
    slice_object,
    solve_in_hom,
    stalk_diagram,
    zero_diagram,
    zero_diagram_map,
)


class VerificationError(DerlabError, RuntimeError):
    """A runtime postcondition of a Gorenstein construction failed."""


class PreconditionError(DerlabError, ValueError):
    """An input violates a stated precondition (e.g. a latching map is not
    an inflation where Gorenstein projectivity is required)."""


# -- latching and matching ---------------------------------------------------


@dataclass
class LatchingDatum:
    module: Module                      # L_j(X)
    map: ModuleMap                      # lambda_j(X): L_j(X) -> X_j
    pres: SlicePresentation             # boundary (I/j)
    cocone: Dict[str, ModuleMap]        # slice object -> leg into L_j(X)

    @property
    def is_inflation(self) -> bool:
        return rank(self.map.mat) == self.module.dim


@dataclass
class MatchingDatum:
    module: Module                      # M_j(Y)
    map: ModuleMap                      # mu_j(Y): Y_j -> M_j(Y)


def latching(x: Diagram, j: str) -> LatchingDatum:
    """Colimit over the punctured slice below j, with the canonical map to x_j."""
    pres = punctured_slice(x.shape, j, "under")
    L, cocone = colimit_of_diagram(restrict(pres.projection, x))
    lam = from_colimit(L, cocone, {o: x.mat(f) for o, (_, f) in pres.pairs.items()}, x.at(j).dim)
    return LatchingDatum(L, ModuleMap(L, x.at(j), lam), pres, cocone)


def matching(y: Diagram, j: str) -> MatchingDatum:
    """Limit over the punctured slice above j, with the canonical map from
    y_j: the dual of the latching datum of D(y) over the opposite shape."""
    lat = latching(dual_diagram(y), j)
    M = dual_module(lat.module)
    return MatchingDatum(M, ModuleMap(y.at(j), M, lat.map.mat.T))


def _latching_ranks(x: Diagram, j: str) -> Tuple[int, int, Mat]:
    """(dim L_j(x), rank lambda_j, T) without building L_j(x).

    T = [x(f)]: (+) x_i -> x_j has one block per object (i, f) of the
    punctured slice under j; R has one column block inj_b x(g) - inj_a per
    non-identity slice morphism g: a -> b, the relations colimit_of_diagram
    quotients by.  So L_j = coker R, and T = lambda_j sigma with sigma onto
    L_j: dim L_j = n - rank R for n = sum dim x_i, and im lambda_j = im T.
    Both rest on T R = 0, x's functoriality on the slice, which is checked
    on every call: a failure is a VerificationError, never an answer.  A
    discrete slice (at every object of the arrow, cospan and span, and at
    three of the square's four) has no relations: R has no columns, so
    rank R = 0 and T R = 0 hold vacuously, and neither is formed."""
    pres = punctured_slice(x.shape, j, "under")
    p, objs = x.alg.p, pres.cat.objects
    if not objs:
        return 0, 0, Mat.zeros(p, x.at(j).dim, 0)
    t = hstack([x.mat(pres.pairs[o][1]) for o in objs])
    dims = [x.at(pres.pairs[o][0]).dim for o in objs]
    gens = pres.cat.nonidentity_morphisms()
    if not gens:
        return sum(dims), rank(t), t
    at = {o: k for k, o in enumerate(objs)}
    grid = [[None] * len(gens) for _ in objs]
    for c, g in enumerate(gens):
        a, b = at[pres.cat.src(g)], at[pres.cat.tgt(g)]
        grid[b][c] = x.mat(pres.projection.on_mor(g))
        grid[a][c] = -Mat.identity(p, dims[a])
    r = block(p, grid, dims, [dims[at[pres.cat.src(g)]] for g in gens])
    if product_defect(p, (t.a, r.a)):
        raise VerificationError(f"latching relations at {j} do not commute: x is not functorial")
    return sum(dims) - rank(r), rank(t), t


def is_projective_diagram(x: Diagram) -> bool:
    """Is x projective in the diagram category?  Over a finite direct
    category, iff every latching map L_j(x) -> x_j is an inflation with a
    projective cokernel: the Reedy description of cofibrant objects (Hovey,
    Model Categories, 5.1-5.2), of which the latching recognition of
    Gorenstein projectives is the relaxation.  The cokernel is x_j / im T
    (_latching_ranks).  Splitting the projective cover by a linear solve
    decides the same; the tests keep that as the oracle (tests/oracles.py).
    Every object's T R = 0 check runs before the answer, so a
    non-functorial x is refused, never answered."""
    ranks = [(j, *_latching_ranks(x, j)) for j in x.shape.objects]
    return all(rk == dim and is_projective(quotient_module(x.at(j), t)[0]) for j, dim, rk, t in ranks)


def is_injective_diagram(x: Diagram) -> bool:
    return is_projective_diagram(dual_diagram(x))


# -- stalk presentations -------------------------------------------------------


def stalk_presentation(shape: DirectCategory, alg: Algebra, j: str, p_mod: Module) -> DiagramConflation:
    """Degreewise split conflation  K >--> j_!(P) -->> stalk_j(P)  where K
    vanishes at j and agrees with j_!(P) elsewhere."""
    stalk = stalk_diagram(shape, alg, j, p_mod)
    eye = [Mat.identity(alg.p, p_mod.dim)]  # the deflation is adjunct to 1_P
    defl = DiagramMap(left_kan_from_point(shape, alg, j, p_mod), stalk, {o: free_legs_at(stalk, j, eye, o) for o in shape.objects})
    return DiagramConflation(kernel_diagram(defl)[1], defl)


def co_stalk_presentation(shape: DirectCategory, alg: Algebra, j: str, q_mod: Module) -> DiagramConflation:
    """Dual presentation  stalk_j(Q) >--> j_*(Q) -->> M: the dual of the stalk
    presentation of D(Q) over the opposite shape."""
    return dual_conflation(stalk_presentation(opposite_category(shape), alg.opposite(), j, dual_module(q_mod)))


# -- recognition ----------------------------------------------------------------


def is_gproj(x: Diagram) -> bool:
    """All latching maps are inflations, decided by ranks (_latching_ranks)
    after the T R = 0 check at every object.  Raises AlgebraError over an
    algebra that is not self-injective."""
    require_self_injective(x.alg)
    ranks = [_latching_ranks(x, j) for j in x.shape.objects]
    return all(rk == dim for dim, rk, _ in ranks)


def is_ginj(y: Diagram) -> bool:
    """All matching maps are deflations, i.e. D(y) is Gorenstein projective."""
    return is_gproj(dual_diagram(y))


def is_wtriv(x: Diagram) -> bool:
    """Every component is projective (= finite homological dimension here)."""
    return all(is_projective(x.at(o)) for o in x.shape.objects)


def gproj_witness_report(x: Diagram) -> Dict[str, dict]:
    """Per-object latching/matching ranks, for reports and explanations."""
    dual = dual_diagram(x)
    out = {}
    for j in x.shape.objects:
        lat_dim, lat_rank, _ = _latching_ranks(x, j)
        # mu_j(x) is the transpose of lambda_j(D x)
        mat_dim, mat_rank, _ = _latching_ranks(dual, j)
        out[j] = {
            "latching_dim": lat_dim,
            "latching_rank": lat_rank,
            "latching_inflation": lat_rank == lat_dim,
            "matching_dim": mat_dim,
            "matching_rank": mat_rank,
            "matching_deflation": mat_rank == mat_dim,
            "component_projective": is_projective(x.at(j)),
        }
    return out


# -- colimits by pushout induction -----------------------------------------------


def colim_gproj_data(x: Diagram) -> Tuple[Module, Dict[str, ModuleMap]]:
    """Colimit of a Gorenstein-projective diagram by pushout induction on
    x's own shape, in degree order: each object's latching map is pushed
    out against the colimit of the objects before it, which are all the
    objects that map to it (Hovey, Model Categories, 5.1-5.2).  The cocone
    lists the newest object first.  Legs carry their shares of the
    cocone's section, in its order (from_colimit): the old cocone's read
    at the share of the pushout leg it goes through."""
    alg = x.alg
    order = x.shape.objects_by_degree()
    if not order:
        return zero_module(alg), {}
    first = x.at(order[0])
    C, cocone = first, {order[0]: ModuleMap(first, first, Mat.identity(alg.p, first.dim), np.arange(first.dim))}
    for j in order[1:]:
        lat = latching(x, j)
        if not lat.is_inflation:
            raise PreconditionError(f"latching map at {j} is not an inflation")
        legs = {o: cocone[i].mat for o, (i, _) in lat.pres.pairs.items()}
        r = ModuleMap(lat.module, C, from_colimit(lat.module, lat.cocone, legs, C.dim))
        C, leg_j, leg_old = pushout(lat.map, r)
        old = list(cocone.values())
        shares = section_shares(joint_section(old)[leg_old.section], [leg.src.dim for leg in old])
        cocone = {j: leg_j} | {o: ModuleMap(leg.src, C, leg_old.mat @ leg.mat, share) for (o, leg), share in zip(cocone.items(), shares)}
    return C, cocone


def colim_gproj(x: Diagram) -> Module:
    """The pushout-inductive colimit, certified against the plain pointwise
    colimit by an explicit isomorphism."""
    C, cocone = colim_gproj_data(x)
    C2, cocone2 = colimit_of_diagram(x)
    objs = x.shape.objects
    total = sum(x.at(o).dim for o in objs)
    if total == 0:
        if C.dim or C2.dim:
            raise VerificationError("zero diagram with nonzero colimit")
        return C
    sigma1 = hstack([cocone[o].mat for o in objs])
    sigma2 = hstack([cocone2[o].mat for o in objs])
    if rank(sigma1) != C.dim or rank(sigma2) != C2.dim:
        raise VerificationError("colimit cocone is not jointly surjective")
    phi = from_colimit(C, cocone, {o: cocone2[o].mat for o in objs}, C2.dim)
    psi = from_colimit(C2, cocone2, {o: cocone[o].mat for o in objs}, C.dim)
    if any(product_defect(x.alg.p, (a.a, b.a), c=np.identity(a.rows, dtype=np.int64)) for a, b in ((phi, psi), (psi, phi))):
        raise VerificationError("pushout-inductive colimit disagrees with the pointwise colimit")
    return C


def colim_gproj_on_map(
    phi: DiagramMap,
    src_data: Tuple[Module, Dict[str, ModuleMap]],
    tgt_data: Tuple[Module, Dict[str, ModuleMap]],
) -> ModuleMap:
    """The induced map between pushout-inductive colimits."""
    src_colim, src_cocone = src_data
    tgt_colim, tgt_cocone = tgt_data
    legs = {o: tgt_cocone[o].mat @ phi.comps[o] for o in phi.src.shape.objects}
    return ModuleMap(src_colim, tgt_colim, from_colimit(src_colim, src_cocone, legs, tgt_colim.dim))


# -- partial Kan extensions --------------------------------------------------------


@dataclass
class GprojKan:
    diagram: Diagram
    unit: DiagramMap                     # x -> u^*(u_! x)


def gproj_left_kan_data(u: CatFunctor, x: Diagram) -> GprojKan:
    """u_! x by left_kan_by_slices with the pushout-inductive colimit over
    each slice u/j, on which x must stay Gorenstein projective."""
    if not is_gproj(x):
        raise PreconditionError("left Kan extension requires a Gorenstein-projective diagram")

    def colimit(rest: Diagram) -> Tuple[Module, Dict[str, ModuleMap]]:
        if not is_gproj(rest):
            raise VerificationError("restriction to a slice lost Gorenstein projectivity")
        return colim_gproj_data(rest)

    out, slices, cocones = left_kan_by_slices(u, x, colimit)
    if not is_gproj(out):
        raise VerificationError("left Kan extension output failed the latching check")
    J = u.cod
    unit_comps = {}
    for i in u.dom.objects:
        j = u.on_obj(i)
        unit_comps[i] = cocones[j][slice_object(slices[j], i, J.id_of(j))].mat
    return GprojKan(out, DiagramMap(x, restrict(u, out), unit_comps))


def gproj_left_kan(u: CatFunctor, x: Diagram) -> Diagram:
    """The output diagram of gproj_left_kan_data, built once per (u, content
    of x) and algebra (by_content)."""
    return by_content("gproj_left_kan", x, lambda: gproj_left_kan_data(u, x).diagram, u)


def ginj_right_kan(u: CatFunctor, y: Diagram) -> Diagram:
    """Right Kan extension on Gorenstein injectives, by duality."""
    if not is_ginj(y):
        raise PreconditionError("right Kan extension requires a Gorenstein-injective diagram")
    lkan = gproj_left_kan(opposite_functor(u), dual_diagram(y))
    return dual_diagram(lkan)


# -- embedding into a projective diagram ---------------------------------------------


def embed_gproj_into_proj(g: Diagram) -> DiagramConflation:
    """Conflation  g >--> Q -->> g'  with Q projective in the diagram
    category and g' Gorenstein projective.

    Q = (+)_j j_!(Q_j) with Q_j the injective (= projective) envelope of
    coker(latching_j); the inflation is built object by object in increasing
    degree, extending the induced latching map along the latching inflation
    (a linear solve against an injective target) and embedding the fresh
    cokernel part in the identity slot.  Each postcondition that fails is a
    VerificationError.

    Built once per content of g and algebra (by_content): the memo keeps
    Q, the components of the inflation and Q ->> g', and each call wraps
    the components as a map from its own g.
    """
    hit = by_content("embed_gproj_into_proj", g, lambda: _embedding(g))
    if hit is None:  # g is projective
        z = zero_diagram(g.shape, g.alg)
        return DiagramConflation(identity_diagram_map(g), zero_diagram_map(g, z))
    Q, comps, proj = hit
    return DiagramConflation(DiagramMap(g, Q, comps), proj)


def _embedding(g: Diagram) -> Optional[Tuple[Diagram, Dict[str, Mat], DiagramMap]]:
    """(Q, the components of g >--> Q, Q ->> g') for embed_gproj_into_proj,
    all postconditions checked; None if g is projective."""
    shape, alg = g.shape, g.alg
    p = alg.p
    if is_projective_diagram(g):
        return None
    lats = {j: latching(g, j) for j in shape.objects}
    for j, lat in lats.items():
        if not lat.is_inflation:
            raise PreconditionError(f"latching map at {j} is not an inflation")

    fresh_maps: Dict[str, ModuleMap] = {}
    for j in shape.objects:
        cok, proj = quotient_module(g.at(j), lats[j].map.mat)
        fresh_maps[j] = compose(injective_embed(cok).left, proj)

    parts = [(j, fresh_maps[j].tgt) for j in shape.objects]
    Q = free_diagram(shape, alg, parts)
    eta_comps: Dict[str, Mat] = {}
    for i in shape.objects_by_degree():
        latg, latq = lats[i], latching(Q, i)
        if rank(latq.map.mat) != latq.module.dim:
            raise VerificationError(f"latching map of Q at {i} is not an inflation")
        # induced map on latching objects from the lower-degree components
        legs = {o: latq.cocone[o].mat @ eta_comps[j] for o, (j, _) in latg.pres.pairs.items()}
        l_eta = from_colimit(latg.module, latg.cocone, legs, latq.module.dim)
        # extend along the latching inflation into the injective lower part
        basis = hom_space(g.at(i), latq.module)
        ext = solve_in_basis(
            basis,
            [vec_module_map(compose(b, latg.map)) for b in basis],
            vec_module_map(ModuleMap(latg.module, latq.module, l_eta)),
            zero_map(g.at(i), latq.module),
        )
        if ext is None:
            raise VerificationError(f"latching extension failed at {i}")
        # fresh_i goes to the one copy of Q_i's own part (for 1_i), which
        # follows the copies of the parts before i in shape.objects
        off = sum(len(shape.hom(j, i)) * fresh_maps[j].tgt.dim for j in shape.objects[: shape.objects.index(i)])
        d = fresh_maps[i].tgt.dim
        fresh = block(p, [[None], [fresh_maps[i].mat], [None]], [off, d, Q.at(i).dim - off - d], [g.at(i).dim])
        eta_comps[i] = latq.map.mat @ ext.mat + fresh
    eta = DiagramMap(g, Q, eta_comps).validate()
    for i in shape.objects:
        if rank(eta.comps[i]) != g.at(i).dim:
            raise VerificationError(f"embedding is not an inflation at {i}")
    gq, proj = cokernel_diagram(eta)
    if not is_gproj(gq):
        raise VerificationError("cokernel of the embedding is not Gorenstein projective")
    for j in shape.objects:
        if not is_projective(fresh_maps[j].tgt):
            raise VerificationError("a fresh part is not projective")
    return Q, eta.comps, proj


# -- cotorsion approximations ----------------------------------------------------


@dataclass
class ApproximationTriple:
    """A verified conflation with class tags on the outer terms.

    kind "gproj-cover": 0 -> W -> G -> z -> 0 with W weakly trivial, G
    Gorenstein projective; kind "ginj-hull": 0 -> z -> Y -> W -> 0 with Y
    Gorenstein injective, W weakly trivial.
    """

    conflation: DiagramConflation
    kind: str
    tags: Dict[str, bool]


def approx_gproj(z: Diagram) -> ApproximationTriple:
    """Cover 0 -> W -> G -> z -> 0 by the syzygy walk-back."""
    shape, alg = z.shape, z.alg
    if is_gproj(z):
        zd = zero_diagram(shape, alg)
        confl = DiagramConflation(zero_diagram_map(zd, z), identity_diagram_map(z))
        return ApproximationTriple(confl, "gproj-cover", {"wtriv": True, "gproj": True})
    covers: List[DiagramConflation] = [projective_cover_diagram(z)]
    current = covers[0].sub
    for _ in range(shape.max_degree() + 1):
        if is_gproj(current):
            break
        c = projective_cover_diagram(current)
        covers.append(c)
        current = c.sub
    else:
        raise VerificationError("syzygy iteration exceeded the Gorenstein bound")
    # the deepest step pushes out along pi = 1 on the last syzygy, so it
    # depends only on that cover's inflation and is kept (_deepest_step)
    pi: Optional[DiagramMap] = None
    for c in reversed(covers):
        # c: 0 -> Z' >-iota-> P -rho->> Z -> 0 with Z' the current target of pi
        from_H, from_P = _deepest_step(c.left) if pi is None else _walk_back(G, pi, c.left)
        U, H = from_H.tgt, from_H.src
        # the map out of the pushout U that is 0 on H and c.right on P
        new_pi_comps = {
            o: from_colimit(
                U.at(o),
                {"H": from_H.at(o), "P": from_P.at(o)},
                {"H": Mat.zeros(alg.p, c.quot.at(o).dim, H.at(o).dim), "P": c.right.comps[o]},
                c.quot.at(o).dim,
            )
            for o in shape.objects
        }
        pi = DiagramMap(U, c.quot, new_pi_comps)
        w_incl = from_H
        G = U
    confl = DiagramConflation(w_incl, pi).validate()
    tags = {"wtriv": is_wtriv(confl.sub), "gproj": is_gproj(confl.middle)}
    if not (tags["wtriv"] and tags["gproj"]):
        raise VerificationError("approximation tags failed verification")
    return ApproximationTriple(confl, "gproj-cover", tags)


def _walk_back(G: Diagram, pi: DiagramMap, infl: DiagramMap) -> Tuple[DiagramMap, DiagramMap]:
    """One step of the walk-back: given pi: G ->> Z' and a cover
    Z' >-infl-> P ->> Z, the legs H >-> U <- P of U = H (+)_{Z'} P, where
    H = Q (+)_G Z' pushes pi out along the embedding G >-> Q."""
    emb = embed_gproj_into_proj(G)
    _, _, h_infl = pushout_diagrams(emb.left, pi)
    for o in G.shape.objects:
        if rank(h_infl.comps[o]) != pi.tgt.at(o).dim:
            raise VerificationError("hull inflation failed a rank check")
    _, from_H, from_P = pushout_diagrams(h_infl, infl)
    return from_H, from_P


def _deepest_step(infl: DiagramMap) -> Tuple[DiagramMap, DiagramMap]:
    """_walk_back for pi = 1_K on K = infl.src: it depends only on the
    content of infl: K >-> P.  Kept per algebra under the diagram keys of K
    and P and the bytes of infl, sized by their total dim: the memo keeps
    from_H whole and the components of from_P with their sections, wrapped
    on every call around the caller's P."""
    K, P = infl.src, infl.tgt
    key = (diagram_key(K), diagram_key(P), b"".join([infl.comps[o].a.tobytes() for o in K.shape.objects]))
    from_H, comps, sections = K.alg.kept("approx_walk_back", key, K.total_dim() + P.total_dim(), lambda: _first_walk_back(infl))
    return from_H, DiagramMap(P, from_H.tgt, comps, sections)


def _first_walk_back(infl: DiagramMap) -> Tuple[DiagramMap, Dict[str, Mat], Optional[Dict[str, np.ndarray]]]:
    """(from_H, the components of from_P, their sections) for _deepest_step."""
    from_H, from_P = _walk_back(infl.src, identity_diagram_map(infl.src), infl)
    return from_H, from_P.comps, from_P.sections


def hull_ginj(z: Diagram) -> ApproximationTriple:
    """Hull 0 -> z -> Y -> W -> 0 with Y Gorenstein injective, by duality."""
    out = dual_conflation(approx_gproj(dual_diagram(z)).conflation, z).validate()
    tags = {"ginj": is_ginj(out.middle), "wtriv": is_wtriv(out.quot)}
    if not (tags["ginj"] and tags["wtriv"]):
        raise VerificationError("hull tags failed verification")
    return ApproximationTriple(out, "ginj-hull", tags)


# -- the stable equivalence GProj ~ GInj -------------------------------------------


def stable_ginj_replacement(g: Diagram) -> ApproximationTriple:
    """The Gorenstein-injective hull g >-> F(g) ->> W: its conflation's left
    leg is the unit g -> F(g), an inflation with weakly trivial cokernel,
    and its middle is F(g)."""
    if not is_gproj(g):
        raise PreconditionError("the equivalence is defined on Gorenstein projectives")
    return hull_ginj(g)


def stable_equiv_on_map(src: ApproximationTriple, tgt: ApproximationTriple, f: DiagramMap) -> DiagramMap:
    """F on morphisms: any solution of F(f) o unit_src = unit_tgt o f."""
    s, t = src.conflation, tgt.conflation
    phi = solve_in_hom(s.middle, t.middle, [(s.left, identity_diagram_map(t.middle), compose_diagram_maps(t.left, f))])
    if phi is None:
        raise VerificationError("morphism extension across the hulls failed")
    return phi


def stable_roundtrip_witness(g: Diagram) -> Tuple[DiagramMap, ApproximationTriple]:
    """A map g -> F^{-1}(F(g)) lifting the hull unit through the counit
    G ->> F(g) of the Gorenstein-projective cover; it is a degreewise stable
    isomorphism whenever the theory says it must be."""
    hull = stable_ginj_replacement(g)
    counit = approx_gproj(hull.conflation.middle).conflation.right
    psi = solve_in_hom(g, counit.src, [(identity_diagram_map(g), counit, hull.conflation.left)])
    if psi is None:
        raise VerificationError("round-trip lift failed")
    return psi, hull
