"""The dg-model route to homotopy Kan extensions: weights as diagrams over
k = ground_field(p), their minimal free resolutions, weighted homotopy
(co)limits by the free-summand collapse, the slice-square comparison
check, and the cross-check against the direct Gorenstein-model Kan
extensions.

Weights are always carried together with explicit finite free resolutions,
so every Hom/tensor totalization collapses degreewise to finite sums of
shifted evaluations of the input complex (the corepresentable collapse) and
never needs infinite resolutions.  Any free resolution serves, since a
cofibrant weight needs no further replacement (Shulman, arXiv:math/0610194);
maps between the collapses come from chain maps of resolutions lifted by
the comparison theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import ground_field
from .cats import CatFunctor, DirectCategory, arrow_category, opposite_category, opposite_functor, product_category, slice_category, terminal_category
from .field import Mat, block, hstack, kernel_basis, kron, product_defect, rank, solve, vstack
from .modules import Module, free_module, regular_module, submodule, sum_module, zero_module
from .diagrams import (
    Diagram,
    DiagramMap,
    constant_diagram,
    dual_diagram,
    free_diagram,
    free_generators,
    free_legs_at,
    kernel_diagram,
    left_kan_from_point,
    limit_of_diagram,
    relabelling,
    restrict,
)
from .complexes import (
    LazyComplex,
    complete_resolution,
    dual_complex,
    restrict_complex,
    z0,
)
from .gorenstein import PreconditionError, VerificationError, gproj_left_kan, is_gproj, is_ginj
from .homotopy import is_stable_iso_diagrams
from .verdict import FALSE, Verdict


def restriction_weight(u: CatFunctor, j: str, p: int) -> Diagram:
    """The weight i |-> k.J(j, u(i)), maps by postcomposition: u^* of the
    free diagram on k at j, a diagram over k = ground_field(p)."""
    k = ground_field(p)
    return restrict(u, left_kan_from_point(u.cod, k, j, regular_module(k)))


def restriction_weight_right(u: CatFunctor, j: str, p: int) -> Diagram:
    """The right module i |-> k.J(u(i), j) as a left module over the opposite."""
    return restriction_weight(opposite_functor(u), j, p)


# -- free complexes ------------------------------------------------------------


@dataclass
class FreeComplex:
    """A finite complex of sums of corepresentables h^obj, one per block.

    blocks lists (q, obj, label) in ascending degree q, in the order given:
    the collapsed totalizations keep it, and the indices in coeffs point
    into it.  label is (q, key, coefficient label), with key the summand
    the block belongs to.  coeffs[(t, s, arrow)] is the coefficient mod p
    from block s of degree q to block t of degree q+1 along arrow: obj_t ->
    obj_s (maps of corepresentables are contravariant in the object).  A
    chain map of free complexes has a table of the same form, from its
    source's blocks to its target's.  A resolution keeps its augmentation
    W^0(a) -> w(a) at every object a in aug."""

    cat: DirectCategory
    p: int
    blocks: List[tuple]
    coeffs: Dict[Tuple[int, int, str], int]
    aug: Dict[str, Mat] = field(default_factory=dict)

    def degrees(self) -> List[int]:
        return sorted({q for q, _, _ in self.blocks})

    def value_basis(self, q: int, a: str) -> List[tuple]:
        """(block, phi: obj -> a) for every block of degree q."""
        return [(b, phi) for b, (qb, obj, _) in enumerate(self.blocks) if qb == q for phi in self.cat.hom(obj, a)]

    def diff_matrix_at(self, q: int, a: str) -> Mat:
        """The materialized differential W^q(a) -> W^{q+1}(a)."""
        return _matrix_at(self.cat, self.p, self.coeffs, self.value_basis(q, a), self.value_basis(q + 1, a))


def _matrix_at(cat: DirectCategory, p: int, coeffs: Dict[Tuple[int, int, str], int], src_basis: List[tuple], tgt_basis: List[tuple]) -> Mat:
    """At one object, the matrix of coeffs from the value basis src_basis to
    tgt_basis: the copy phi of block s goes to the copy phi o arrow of t."""
    tgt_pos = {lab: r for r, lab in enumerate(tgt_basis)}
    cols: Dict[int, List[Tuple[int, str]]] = {}
    for col, (s, phi) in enumerate(src_basis):
        cols.setdefault(s, []).append((col, phi))
    m = np.zeros((len(tgt_basis), len(src_basis)), dtype=np.int64)
    for (t, s, arrow), c in coeffs.items():
        for col, phi in cols.get(s, ()):
            m[tgt_pos[(t, cat.compose(phi, arrow))], col] += c
    return Mat(p, m)


def minimal_resolution(w: Diagram) -> FreeComplex:
    """A minimal free resolution of w, a diagram over k = ground_field(p),
    checked exact by ranks.

    Degree 0 covers w and each degree below covers the kernel x of the one
    above: at each object j, one block (q, j, (q, (j,), i)) for each i of
    diagrams.free_generators(x, j), the e_i of x_j outside the latching
    image (over k the radical layer is zero).  Over a finite direct
    category the kernels vanish after at most the longest chain of arrows
    (Riehl, Categorical Homotopy Theory, ch. 11)."""
    cat, k, p = w.shape, w.alg, w.alg.p
    levels: List[List[tuple]] = []  # per degree 0, -1, ...: (j, i, the image of e_i one degree up)
    x, into, aug = w, None, None
    while True:
        gens = [(j, i) for j in cat.objects for i in free_generators(x, j)]
        legs = {o: [free_legs_at(x, j, [Mat.identity(p, x.at(j).dim).col(i)], o) for j, i in gens] for o in cat.objects}
        cover = {o: hstack([Mat.zeros(p, x.at(o).dim, 0)] + legs[o]) for o in cat.objects}
        aug = aug or cover
        levels.append([(j, i, None if into is None else into[j].a[:, i]) for j, i in gens])
        if all(c.rows == c.cols for c in cover.values()):  # onto and square: nothing left to cover
            break
        x, incl = kernel_diagram(DiagramMap(free_diagram(cat, k, [(j, regular_module(k)) for j, _ in gens]), x, cover))
        into = incl.comps
    flat = [(-n, j, i, v) for n in reversed(range(len(levels))) for j, i, v in levels[n]]
    cx = FreeComplex(cat, p, [(q, j, (q, (j,), i)) for q, j, i, _ in flat], {}, aug)
    for s, (q, j, _, v) in enumerate(flat):
        if q < 0:
            cx.coeffs.update({(t, s, arrow): int(c) for (t, arrow), c in zip(cx.value_basis(q + 1, j), v) if c})
    return _check_resolution(cx, w)


def _check_resolution(cx: FreeComplex, w: Diagram) -> FreeComplex:
    """cx, certified a resolution of w by its augmentation: at every object
    a, 0 -> W^lo(a) -> ... -> W^0(a) -> w(a) -> 0 is a complex and exact,
    by ranks; otherwise a VerificationError."""
    lo = min(cx.degrees(), default=0)
    for a in cx.cat.objects:
        mats = [cx.diff_matrix_at(q, a) for q in range(lo, 0)] + [cx.aug[a]]
        if any(product_defect(cx.p, (second.a, first.a)) for first, second in zip(mats, mats[1:])):
            raise VerificationError(f"augmented complex is not a complex at {a}")
        ranks = [rank(m) for m in mats]
        if [m.cols - r for m, r in zip(mats, ranks)] != [0] + ranks[:-1] or ranks[-1] != w.at(a).dim:
            raise VerificationError(f"augmented complex is not exact at {a}")
    return cx


def _lift(src: FreeComplex, tgt: FreeComplex, base: Dict[str, Mat]) -> Optional[Dict[Tuple[int, int, str], int]]:
    """The comparison theorem: the table of a chain map src -> tgt over
    base: w' -> w, for src free with each block (0, a, (0, key, i)) sent to
    e_i in w'_a and tgt a resolution of w.  From degree 0 down, the images
    of the blocks h^a of one degree solve one system at a: tgt.aug phi =
    base e_i in degree 0, d phi = phi d below.  None when a system has no
    solution, which cannot happen when tgt is exact."""
    cat, p = src.cat, src.p
    phi: Dict[Tuple[int, int, str], int] = {}
    for q in reversed(src.degrees()):
        for a in cat.objects:
            gens = [(s, cat.id_of(a)) for s, (qs, obj, _) in enumerate(src.blocks) if qs == q and obj == a]
            if not gens:
                continue
            if q == 0:
                lhs, rhs = tgt.aug[a], Mat(p, base[a].a[:, [src.blocks[s][2][2] for s, _ in gens]])
            else:
                up_src, up_tgt = src.value_basis(q + 1, a), tgt.value_basis(q + 1, a)
                lhs = tgt.diff_matrix_at(q, a)
                rhs = _matrix_at(cat, p, phi, up_src, up_tgt) @ _matrix_at(cat, p, src.coeffs, gens, up_src)
            sol = solve(lhs, rhs)
            if sol is None:
                return None
            for (t, arrow), row in zip(tgt.value_basis(q, a), sol.a):
                phi.update({(t, s, arrow): int(c) for (s, _), c in zip(gens, row) if c})
    return phi


# -- weights ---------------------------------------------------------------------


def _unit_block(q: int, obj: str) -> tuple:
    """One block h^obj (x) k in degree q, its own summand."""
    return (q, obj, (q, (obj,), ((), 0)))


def representable_weight(cat: DirectCategory, p: int, i: str) -> FreeComplex:
    """The representable weight on i, a free complex in degree 0."""
    return FreeComplex(cat, p, [_unit_block(0, i)], {})


def shift_weight(p: int, n: int) -> FreeComplex:
    """One free block on the point, in degree n: its weighted holim is
    the shift of the complex by n."""
    return FreeComplex(terminal_category(), p, [_unit_block(n, "*")], {})


def cone_weight(p: int) -> FreeComplex:
    """Over [1]: h^1 in degree -1 mapping to h^0 in degree 0 along e0; the
    weighted holim computes cone(f)[-1] up to the sign isomorphism, exactly
    at p = 2."""
    return FreeComplex(arrow_category(), p, [_unit_block(-1, "1"), _unit_block(0, "0")], {(1, 0, "e0"): 1})


# -- collapsed Hom and tensor totalizations ------------------------------------------


def weighted_hocolim(wc: FreeComplex, f: LazyComplex) -> LazyComplex:
    """Tensor of the weight wc (a complex of free right modules, presented
    over the opposite category) with the complex of diagrams."""
    alg = f.alg
    p = alg.p
    e = terminal_category()
    blocks = wc.blocks

    def term_fn(n: int) -> Diagram:
        mods = [f.term(n - q).at(obj) for q, obj, _ in blocks]
        total = sum_module(mods) if mods else zero_module(alg)
        return Diagram(e, alg, {"*": total}, {})

    def diff_fn(n: int) -> Dict[str, Mat]:
        src_off = list(itertools.accumulate((f.term(n - q).at(obj).dim for q, obj, _ in blocks), initial=0))
        tgt_off = list(itertools.accumulate((f.term(n + 1 - q).at(obj).dim for q, obj, _ in blocks), initial=0))
        out = np.zeros((tgt_off[-1], src_off[-1]), dtype=np.int64)
        for b, (q, obj, _) in enumerate(blocks):
            # (-1)^q id (x) d_F (source and target share the block order)
            d = f.diff(n - q).comps[obj].a
            out[tgt_off[b] : tgt_off[b + 1], src_off[b] : src_off[b + 1]] = d if q % 2 == 0 else -d
        for (t, s, arrow), c in wc.coeffs.items():
            # d_W (x) id: arrow is obj_t -> obj_s in the opposite category,
            # i.e. obj_s -> obj_t in the base category of f
            out[tgt_off[t] : tgt_off[t + 1], src_off[s] : src_off[s + 1]] += c * f.term(n - blocks[s][0]).mat(arrow).a
        return {"*": Mat(p, out)}

    return LazyComplex(e, alg, term_fn, diff_fn)


def _signed_dual(c: LazyComplex, wcs: Dict[str, FreeComplex], f: LazyComplex) -> LazyComplex:
    """The collapsed Hom totalization of f from c, the collapsed tensor
    totalization of D f over the same blocks: the terms of dual_complex(c),
    with the transposed differential of c at each object j conjugated by the
    diagonal sign sigma_n, which is (-1)^(n q + q(q+1)/2) on the block
    (q, obj, label) of wcs[j], the block holding f^{q+n}(obj).  That drops
    the (-1)^q of the d_F part and puts (-1)^(n+1) on the d_W part."""
    p = f.alg.p
    sigmas: Dict[Tuple[str, int], np.ndarray] = {}

    def sigma(j: str, n: int) -> np.ndarray:
        if (j, n) not in sigmas:
            q = np.array([qb for qb, _, _ in wcs[j].blocks], dtype=np.int64)
            dims = [f.term(qb + n).at(obj).dim for qb, obj, _ in wcs[j].blocks]
            sigmas[(j, n)] = np.repeat(1 - 2 * ((n * q + q * (q + 1) // 2) % 2), dims)
        return sigmas[(j, n)]

    def term_fn(n: int) -> Diagram:
        return dual_diagram(c.term(-n))

    def diff_fn(n: int) -> Dict[str, Mat]:
        d = c.diff(-n - 1).comps
        return {j: Mat(p, sigma(j, n + 1)[:, None] * d[j].a.T * sigma(j, n)) for j in wcs}

    return LazyComplex(opposite_category(c.shape), c.alg.opposite(), term_fn, diff_fn)


def weighted_holim(wc: FreeComplex, f: LazyComplex) -> LazyComplex:
    """Hom over the free category from the weight wc into the complex of
    diagrams, output over the point: by freeness each term collapses to
    finite sums of shifted evaluations.  Computed as the signed dual of
    weighted_hocolim(wc, D f), whose blocks come in the same order."""
    return _signed_dual(weighted_hocolim(wc, dual_complex(f)), {"*": wc}, f)


# -- homotopy Kan extensions over J ---------------------------------------------------


def ho_right_kan(u: CatFunctor, t: LazyComplex) -> LazyComplex:
    """Pointwise weighted homotopy limits over resolutions of the
    restriction weights, assembled into a complex of J-diagrams: the
    signed dual of ho_left_kan(u^op, D t), whose weight at j resolves the
    same restriction_weight(u, j).  The structure maps join blocks of equal
    degree only, so the signs leave them alone."""
    wcs, maps = _kan_weights(opposite_functor(u), t.alg.p)
    return _signed_dual(_ho_left_kan(opposite_functor(u), dual_complex(t), wcs, maps), wcs, t)


def ho_left_kan(u: CatFunctor, t: LazyComplex) -> LazyComplex:
    """Pointwise weighted homotopy colimits (tensor collapse) over
    resolutions of the contravariant restriction weights (_kan_weights)."""
    return _ho_left_kan(u, t, *_kan_weights(u, t.alg.p))


def _kan_weights(u: CatFunctor, p: int) -> Tuple[Dict[str, FreeComplex], Dict[str, Dict[Tuple[int, int, str], int]]]:
    """Resolutions W_j of restriction_weight_right(u, j), j in J, with chain
    maps along the arrows of J that compose as J does.  These are the
    minimal resolutions, with maps lifted from f |-> alpha o f (_lift),
    unless J has composites and some weight is not free.  Lifts are unique
    only up to homotopy, and unique outright when every weight is free (its
    own resolution); otherwise minimal resolutions may admit no strictly
    functorial maps at all (the right Kan extension along the square's
    corner inclusion), and _two_sided_weights serves."""
    J = u.cod
    wcs = {j: minimal_resolution(restriction_weight_right(u, j, p)) for j in J.objects}
    if J.composites and any(wc.degrees() not in ([], [0]) for wc in wcs.values()):
        return _two_sided_weights(u, p)
    maps = {}
    for alpha in J.nonidentity_morphisms():
        j, j2 = J.src(alpha), J.tgt(alpha)
        homs = {i: (J.hom(u.on_obj(i), j), J.hom(u.on_obj(i), j2)) for i in u.dom.objects}
        base = {i: relabelling(p, a, [1] * len(a), b, [1] * len(b), lambda f: J.compose(alpha, f)) for i, (a, b) in homs.items()}
        maps[alpha] = _lift(wcs[j], wcs[j2], base)
        if maps[alpha] is None:
            raise VerificationError(f"the weight map along {alpha} does not lift to the resolutions")
    return wcs, maps


def _two_sided_weights(u: CatFunctor, p: int) -> Tuple[Dict[str, FreeComplex], Dict[str, Dict[Tuple[int, int, str], int]]]:
    """The weights and maps of _kan_weights, from one minimal resolution R
    of the two-sided weight (j, i) |-> k.J(u(i), j) over J x I^op, whose
    map along (alpha, g) is f |-> alpha o f o u(g).  At j, a block
    h^(j0, i0) of R gives one block h^i0 per phi: j0 -> j, and alpha:
    j -> j2 sends the copy phi to the copy alpha o phi, so the maps compose
    as J does."""
    J, I = u.cod, opposite_category(u.dom)
    prod, k = product_category(J, I), ground_field(p)
    objs = {f"({j},{i})": (j, i) for j in J.objects for i in I.objects}
    mors = {f"({a},{g})": (a, g) for a in J.morphisms for g in I.morphisms}
    homs = {o: J.hom(u.on_obj(i), j) for o, (j, i) in objs.items()}
    mats = {}
    for h in prod.nonidentity_morphisms():
        (a, b), (alpha, g) = prod.morphisms[h], mors[h]
        mats[h] = relabelling(p, homs[a], [1] * len(homs[a]), homs[b], [1] * len(homs[b]), lambda f: J.compose(J.compose(alpha, f), u.on_mor(g)))
    res = minimal_resolution(Diagram(prod, k, {o: free_module(k, len(hom)) for o, hom in homs.items()}, mats))
    wcs, index = {}, {}
    for j in J.objects:
        copies = [(b, phi) for b, (_, o, _) in enumerate(res.blocks) for phi in J.hom(objs[o][0], j)]
        index[j] = {c: n for n, c in enumerate(copies)}
        blocks = [(res.blocks[b][0], objs[res.blocks[b][1]][1], (res.blocks[b][0], (b,), phi)) for b, phi in copies]
        coeffs = {
            (index[j][(t, J.compose(phi, mors[a][0]))], index[j][(s, phi)], mors[a][1]): c
            for (t, s, a), c in res.coeffs.items()
            for phi in J.hom(objs[res.blocks[s][1]][0], j)
        }
        wcs[j] = FreeComplex(I, p, blocks, coeffs)
    maps = {
        alpha: {(index[J.tgt(alpha)][(b, J.compose(alpha, phi))], n, I.id_of(wcs[J.src(alpha)].blocks[n][1])): 1 for (b, phi), n in index[J.src(alpha)].items()}
        for alpha in J.nonidentity_morphisms()
    }
    return wcs, maps


def _ho_left_kan(u: CatFunctor, t: LazyComplex, wcs: Dict[str, FreeComplex], maps: Dict[str, Dict[Tuple[int, int, str], int]]) -> LazyComplex:
    """ho_left_kan over the weights and maps of _kan_weights: the structure
    map along alpha is the collapse of maps[alpha] (_induced)."""
    J = u.cod
    hoc = {j: weighted_hocolim(wcs[j], t) for j in J.objects}

    def term_fn(n: int) -> Diagram:
        mats = {alpha: _induced(wcs[J.src(alpha)], wcs[J.tgt(alpha)], phi, t, n) for alpha, phi in maps.items()}
        return Diagram(J, t.alg, {j: hoc[j].term(n).at("*") for j in J.objects}, mats)

    def diff_fn(n: int) -> Dict[str, Mat]:
        return {j: hoc[j].diff(n).comps["*"] for j in J.objects}

    return LazyComplex(J, t.alg, term_fn, diff_fn)


def _induced(src: FreeComplex, tgt: FreeComplex, phi: Dict[Tuple[int, int, str], int], f: LazyComplex, n: int) -> Mat:
    """The map of collapses of the chain map of weights phi (degree 0):
    weighted_hocolim(src, f)^n -> weighted_hocolim(tgt, f)^n, block s to
    block t by c f(arrow), as its d_W part."""
    src_off, tgt_off = (list(itertools.accumulate((f.term(n - q).at(obj).dim for q, obj, _ in w.blocks), initial=0)) for w in (src, tgt))
    out = np.zeros((tgt_off[-1], src_off[-1]), dtype=np.int64)
    for (t, s, arrow), c in phi.items():
        out[tgt_off[t] : tgt_off[t + 1], src_off[s] : src_off[s + 1]] += c * f.term(n - src.blocks[s][0]).mat(arrow).a
    return Mat(f.alg.p, out)


# -- the slice-square comparison ---------------------------------------------------------


def hom_module_from_weight(m: Diagram, d: Diagram) -> Tuple[Module, Mat]:
    """Hom over the free category from the weight into a diagram, as a module:
    the naturality subspace of (+)_i Hom_k(M_i, D_i), M_i-indexed copies of
    D_i (copy-major), with its inclusion.  phi_b o M(h) = D(h) o phi_a is
    the block row kron(M(h)^T, I) at b, -kron(I, D(h)) at a."""
    cat = m.shape
    alg = d.alg
    p = alg.p
    copies = [d.at(i) for i in cat.objects for _ in range(m.at(i).dim)]
    amb = sum_module(copies) if copies else zero_module(alg)
    grid, row_dims = [], []
    for h in cat.nonidentity_morphisms():
        a, b = cat.src(h), cat.tgt(h)
        row = {b: kron(m.mat(h).T, Mat.identity(p, d.at(b).dim)), a: -kron(Mat.identity(p, m.at(a).dim), d.mat(h))}
        grid.append([row.get(i) for i in cat.objects])
        row_dims.append(m.at(a).dim * d.at(b).dim)
    system = block(p, grid, row_dims, [m.at(i).dim * d.at(i).dim for i in cat.objects])
    sub, incl = submodule(amb, kernel_basis(system))
    return sub, incl.mat


@dataclass
class Der4Report:
    underived_ok: bool
    derived_ok: bool
    window: Tuple[int, int]
    details: Dict[str, object]

    @property
    def ok(self) -> bool:
        return self.underived_ok and self.derived_ok


def der4_check(u: CatFunctor, j: str, t: LazyComplex, lo: int = -2, hi: int = 2) -> Der4Report:
    """Both halves of the slice-square comparison at j: the underived Hom
    identity as an exact module isomorphism degreewise, and the derived
    comparison as an explicit chain isomorphism on the window between the
    two collapsed totalizations (built by independent pipelines)."""
    J = u.cod
    alg = t.alg
    p = alg.p
    m = restriction_weight(u, j, p)
    pres = slice_category(u, j, "over")

    underived_ok = True
    details: Dict[str, object] = {}
    for k in range(lo, hi + 1):
        d = t.term(k)
        rhs, rhs_incl = hom_module_from_weight(m, d)
        lhs, legs = limit_of_diagram(restrict(pres.projection, d))
        if rhs.dim != lhs.dim:
            underived_ok = False
            details[f"underived_dim_mismatch_deg{k}"] = (rhs.dim, lhs.dim)
            continue
        if rhs.dim == 0:  # an empty slice has a zero limit, so it stops here
            continue
        # the limit ambient is (+)_{(i,f)} D_i in slice object order, which
        # matches the copy-major weight ambient by construction
        sol = solve(vstack([legs[o].mat for o in pres.cat.objects]), rhs_incl)
        if sol is None or rank(sol) != rhs.dim:
            underived_ok = False
            details[f"underived_not_iso_deg{k}"] = True
        elif k == 0:
            details["underived_iso_deg0"] = sol.to_list()
            details["underived_dims_deg0"] = (rhs.dim, lhs.dim)
    details["underived_degrees"] = list(range(lo, hi + 1))

    # derived half: the minimal resolutions of m over I and of k over the
    # slice, the latter pushed forward along the projection (h^(i, f) to
    # h^i, its generator to f in m_i), so that its collapse is the slice
    # side term for term.  One chain map lifts proj_!(k) = m; both are
    # minimal (the projection sends no non-identity arrow to an identity),
    # so its collapse theta must be a chain isomorphism on the window
    res_i = minimal_resolution(m)
    res_s = minimal_resolution(constant_diagram(pres.cat, m.alg, regular_module(m.alg)))
    dt = dual_complex(t)
    r_side = _signed_dual(weighted_hocolim(res_i, dt), {"*": res_i}, t)  # weighted_holim(res_i, t), sharing D t with theta
    l_side = weighted_holim(res_s, restrict_complex(pres.projection, t))
    at = {o: (i, J.hom(j, u.on_obj(i)).index(f)) for o, (i, f) in pres.pairs.items()}  # (i, index of f in m_i)
    blocks = [(q, at[o][0], (q, (at[o][0],), at[o][1]) if q == 0 else label) for q, o, label in res_s.blocks]
    pushed = FreeComplex(u.dom, p, blocks, {(a, b, pres.projection.mor_map[g]): c for (a, b, g), c in res_s.coeffs.items()})
    phi = _lift(pushed, res_i, {i: Mat.identity(p, m.at(i).dim) for i in u.dom.objects})
    if phi is None:
        return Der4Report(underived_ok, False, (lo, hi), {**details, "derived_lift_fails": True})
    # r_side is the signed dual of weighted_hocolim over D t, and phi joins
    # blocks of equal degree, so the signs cancel in theta
    thetas = {n: _induced(pushed, res_i, phi, dt, -n).T for n in range(lo, hi + 2)}
    derived_ok = True
    for n in range(lo, hi + 1):
        if product_defect(p, (l_side.diff(n).comps["*"].a, thetas[n].a), c=thetas[n + 1].a @ r_side.diff(n).comps["*"].a):
            derived_ok = False
            details[f"derived_square_fails_deg{n}"] = True
    for n, theta in thetas.items():
        if theta.rows != theta.cols or rank(theta) != theta.rows:
            derived_ok = False
            details[f"derived_not_invertible_deg{n}"] = True
    details["derived_is_chain_iso"] = derived_ok
    return Der4Report(underived_ok, derived_ok, (lo, hi), details)


# -- the cross-model comparison -----------------------------------------------------------


def crosscheck_kan(
    u: CatFunctor,
    x: Diagram,
    direction: str = "left",
    budget: int = 4096,
    seed: int = 0,
    margin: int = 2,
) -> Verdict:
    """Complete-resolution route vs the direct Gorenstein route for the same
    Kan extension, compared by a stable-isomorphism search on the cocycles.
    Z^0 is read off the homotopy Kan output K itself: once K is acyclic and
    termwise projective on the window, the projective part of its
    semiorthogonal split maps to K by an objectwise homotopy equivalence,
    which is a stable isomorphism on Z^0 (Buchweitz, 1986), so the split is
    not built.  direction is "left" or "right"; any other value is a
    PreconditionError."""
    if direction not in ("left", "right"):
        raise PreconditionError(f"direction must be 'left' or 'right', not {direction!r}")
    if direction == "right":
        if not is_ginj(x):
            raise VerificationError("right cross-check expects a Gorenstein-injective diagram")
        inner = crosscheck_kan(opposite_functor(u), dual_diagram(x), "left", budget, seed, margin)
        inner.reason = f"dualized: {inner.reason}"
        return inner
    if not is_gproj(x):
        raise VerificationError("left cross-check expects a Gorenstein-projective diagram")
    t = complete_resolution(x)
    K = ho_left_kan(u, t)
    lo, hi = -(margin + 1), margin + 1
    if not K.is_acyclic_on(lo - 2, hi + 2):
        return Verdict(FALSE, reason=f"homotopy Kan output is not acyclic on [{lo - 2}, {hi + 2}]")
    if not K.is_termwise_projective_on(lo - 1, hi + 1):
        return Verdict(FALSE, reason="homotopy Kan output is not termwise projective")
    zk, _ = z0(K)
    if not is_gproj(zk):
        raise VerificationError("cross-check cocycles are not Gorenstein projective")
    y = gproj_left_kan(u, x)
    verdict = is_stable_iso_diagrams(zk, y, budget=budget, seed=seed)
    verdict.reason = f"window [{lo}, {hi}]; {verdict.reason}"
    return verdict
