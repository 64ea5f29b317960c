"""Unbounded complexes of diagrams as lazily generated, window-inspected
values: complete resolutions, shifts, cones, termwise contractibility, and
the projective/termwise-contractible semiorthogonal decomposition.

Cohomological convention: differentials have degree +1; shift satisfies
d_{C[n]} = (-1)^n d_C; the cone of f: X -> Y has terms Y^k (+) X^{k+1} with
differential [[d_Y, f], [0, -d_X]].

A LazyComplex memoizes terms and differentials and re-checks d o d = 0 on
everything it materializes.  Its diff_fn(n) returns the component matrices
of d^n at each object; diff(n) alone wraps them as a map between the
memoized terms n and n + 1.  Memoization is not synchronized: hand a value
to at most one worker at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .algebra import Algebra, require_self_injective
from .cats import CatFunctor, DirectCategory, full_subcategory, opposite_category
from .field import DerlabError, Mat, block, block_diag, hstack, invert, kernel_basis, product_defect, rank, solve, solve_by_pivots
from .modules import Module, ModuleMap, dual_module, generators, is_projective, split_section, submodule, zero_module
from .diagrams import (
    Diagram,
    DiagramMap,
    block_sum_diagram,
    cokernel_diagram,
    dual_diagram,
    factor_by_section,
    identity_diagram_map,
    kernel_diagram,
    left_kan_from_point,
    projective_cover_diagram,
    restrict,
    zero_diagram,
    zero_diagram_map,
)
from .gorenstein import PreconditionError, VerificationError, embed_gproj_into_proj, is_gproj, is_projective_diagram


class WindowError(DerlabError, ValueError):
    """A question was asked outside the materializable window."""


class LazyComplex:
    def __init__(self, shape: DirectCategory, alg: Algebra, term_fn: Callable[[int], Diagram], diff_fn: Callable[[int], Dict[str, Mat]]) -> None:
        self.shape = shape
        self.alg = alg
        self._term_fn = term_fn
        self._diff_fn = diff_fn
        self._terms: Dict[int, Diagram] = {}
        self._diffs: Dict[int, DiagramMap] = {}

    def term(self, n: int) -> Diagram:
        if n not in self._terms:
            self._terms[n] = self._term_fn(n)
        return self._terms[n]

    def diff(self, n: int) -> DiagramMap:
        if n not in self._diffs:
            self._diffs[n] = DiagramMap(self.term(n), self.term(n + 1), self._diff_fn(n))
            for m in (n - 1, n + 1):
                if m in self._diffs:
                    lo, hi = min(n, m), max(n, m)
                    first, then = self._diffs[lo].comps, self._diffs[hi].comps
                    if any(product_defect(self.alg.p, (then[o].a, first[o].a)) for o in self.shape.objects):
                        raise VerificationError(f"d o d != 0 between degrees {lo} and {hi + 1}")
        return self._diffs[n]

    def is_acyclic_on(self, lo: int, hi: int) -> bool:
        """Exactness at the inner degrees lo+1 .. hi-1."""
        for k in range(lo + 1, hi):
            for o in self.shape.objects:
                dk = self.diff(k).comps[o]
                dprev = self.diff(k - 1).comps[o]
                if dk.cols - rank(dk) != rank(dprev):
                    return False
        return True

    def is_termwise_projective_on(self, lo: int, hi: int) -> bool:
        return all(
            is_projective(self.term(k).at(o)) for k in range(lo, hi + 1) for o in self.shape.objects
        )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def bounded(shape: DirectCategory, alg: Algebra, terms: Dict[int, Diagram], diffs: Dict[int, DiagramMap]) -> "LazyComplex":
        terms = dict(terms)
        diffs = dict(diffs)
        z = zero_diagram(shape, alg)

        def term_fn(n: int) -> Diagram:
            return terms.get(n, z)

        def diff_fn(n: int) -> Dict[str, Mat]:
            if n in diffs:
                return diffs[n].comps
            src, tgt = term_fn(n), term_fn(n + 1)
            return {o: Mat.zeros(alg.p, tgt.at(o).dim, src.at(o).dim) for o in shape.objects}

        return LazyComplex(shape, alg, term_fn, diff_fn)


def dual_complex(c: LazyComplex) -> LazyComplex:
    """The linear dual over the opposite shape and algebra: (D c)^n is
    D(c^{-n}) and the differential at n is the transpose of c's at -n-1,
    with no sign, so dual_complex is involutive like dual_diagram."""

    def term_fn(n: int) -> Diagram:
        return dual_diagram(c.term(-n))

    def diff_fn(n: int) -> Dict[str, Mat]:
        return {o: m.T for o, m in c.diff(-n - 1).comps.items()}

    return LazyComplex(opposite_category(c.shape), c.alg.opposite(), term_fn, diff_fn)


def complete_resolution(x: Diagram) -> LazyComplex:
    """An acyclic complex of projective diagrams with degree-0 cocycles x.

    Negative side from iterated projective covers, positive side from
    iterated embeddings into projectives; the splice sits between degrees
    -1 and 0, so ker(d^0) recovers x.

    Both steps are kept by content (diagrams.by_content), so a side closes
    on its period through memo hits, with the bytes fresh steps would give:
    Omega k = k over the dual numbers, say.
    """
    if not is_gproj(x):
        raise VerificationError("complete resolutions are defined for Gorenstein projectives")
    shape, alg = x.shape, x.alg
    pos: List = [embed_gproj_into_proj(x)]   # pos[k]: x_k >-> E_k ->> x_{k+1}
    neg: List = [projective_cover_diagram(x)]  # neg[k]: syz_{k+1} >-> P_k ->> syz_k

    def pos_confl(k: int):
        while len(pos) <= k:
            pos.append(embed_gproj_into_proj(pos[-1].quot))
        return pos[k]

    def neg_confl(k: int):
        while len(neg) <= k:
            neg.append(projective_cover_diagram(neg[-1].sub))
        return neg[k]

    def term_fn(n: int) -> Diagram:
        if n >= 0:
            return pos_confl(n).middle
        return neg_confl(-n - 1).middle

    def diff_fn(n: int) -> Dict[str, Mat]:
        if n >= 0:
            # E_n ->> x_{n+1} >-> E_{n+1}
            g, f = pos_confl(n + 1).left, pos_confl(n).right
        elif n == -1:
            # P_0 ->> x >-> E_0
            g, f = pos_confl(0).left, neg_confl(0).right
        else:
            # P_{k+1} ->> syz_{k+1} >-> P_k with k = -n - 2
            g, f = neg_confl(-n - 2).left, neg_confl(-n - 1).right
        return {o: g.comps[o] @ f.comps[o] for o in shape.objects}

    return LazyComplex(shape, alg, term_fn, diff_fn)


def z0(c: LazyComplex) -> Tuple[Diagram, DiagramMap]:
    """Degree-0 cocycles with their inclusion into the degree-0 term."""
    return kernel_diagram(c.diff(0))


class ComplexMap:
    def __init__(self, src: LazyComplex, tgt: LazyComplex, comps: Dict[int, DiagramMap]) -> None:
        self.src = src
        self.tgt = tgt
        self.comps = dict(comps)

    def comp(self, n: int) -> DiagramMap:
        if n in self.comps:
            return self.comps[n]
        return zero_diagram_map(self.src.term(n), self.tgt.term(n))

    def verify_chain_on(self, lo: int, hi: int) -> "ComplexMap":
        for k in range(lo, hi):
            dt, f, g, ds = self.tgt.diff(k).comps, self.comp(k).comps, self.comp(k + 1).comps, self.src.diff(k).comps
            if any(product_defect(self.src.alg.p, (dt[o].a, f[o].a), c=g[o].a @ ds[o].a) for o in self.src.shape.objects):
                raise VerificationError(f"chain-map square fails at degree {k}")
        return self


def shift(c: LazyComplex, n: int) -> LazyComplex:
    sign = 1 if n % 2 == 0 else -1

    def term_fn(k: int) -> Diagram:
        return c.term(k + n)

    def diff_fn(k: int) -> Dict[str, Mat]:
        d = c.diff(k + n).comps
        return d if sign == 1 else {o: -m for o, m in d.items()}

    return LazyComplex(c.shape, c.alg, term_fn, diff_fn)


def cone(f: ComplexMap) -> LazyComplex:
    """Terms Y^k (+) X^{k+1}; differential [[d_Y, f], [0, -d_X]]."""
    X, Y = f.src, f.tgt
    shape, alg = X.shape, X.alg

    def term_fn(k: int) -> Diagram:
        return block_sum_diagram([Y.term(k), X.term(k + 1)])

    def diff_fn(k: int) -> Dict[str, Mat]:
        comps = {}
        for o in shape.objects:
            dy, dx = Y.diff(k).comps[o], X.diff(k + 1).comps[o]
            comps[o] = block(alg.p, [[dy, f.comp(k + 1).comps[o]], [None, -dx]], [dy.rows, dx.rows], [dy.cols, dx.cols])
        return comps

    return LazyComplex(shape, alg, term_fn, diff_fn)


# -- contractibility -----------------------------------------------------------


def is_contractible_on(c: LazyComplex, lo: int, hi: int) -> bool:
    """Is there h of degree -1 with d h + h d = id at lo+1 .. hi-1 of c?
    Decided from the cocycles, with no hom space; the tests compare it with
    one joint solve for h (tests/oracles.py).

    Such h exist exactly when c is exact there, the deflations
    C^{k-1} ->> d(C^{k-1}) (lo < k <= hi) split, and so does the inflation
    d(C^{hi-1}) >-> C^hi (Bühler, Exact categories, section 10).  For terms
    lo..hi projective diagrams: each inner Z^k and coker d^{hi-1} are
    projective.  The cokernel, since over more than one object a projective
    subdiagram need not split off.  On an exact window, a term lo..hi that
    is not a projective diagram is a PreconditionError.
    """
    if hi - lo < 2:
        return True  # no equations: the empty contraction
    if not c.is_acyclic_on(lo, hi):
        return False
    if not all(is_projective_diagram(c.term(k)) for k in range(lo, hi + 1)):
        raise PreconditionError(f"contractibility on {lo}..{hi} is decided for complexes of projective diagrams")
    cocycles = (kernel_diagram(c.diff(k))[0] for k in range(lo + 1, hi))
    return all(map(is_projective_diagram, cocycles)) and is_projective_diagram(cokernel_diagram(c.diff(hi - 1))[0])


def is_termwise_contractible(c: LazyComplex, lo: int, hi: int) -> bool:
    """Does each object's component complex have a contraction on lo..hi,
    degree -1 module maps h with d h + h d = id there?  Asked of a window
    exact at lo..hi; any other window is a WindowError.

    Decided by building one (_termwise_contraction): a True answer is
    certified by a contraction checked by products, and one that fails its
    check is a VerificationError.  False means a section or the top
    retraction it needs does not exist, which any contraction would supply
    (Weibel, An Introduction to Homological Algebra, 1.4).  For projective
    terms over a self-injective algebra that is a cocycle Z^lo .. Z^hi that
    is not projective.
    """
    if not c.is_acyclic_on(lo - 1, hi + 1):
        raise WindowError(f"termwise contractibility asks for a window exact at {lo}..{hi}")
    witness = _termwise_contraction(c, lo, hi)
    if witness is None:
        return False
    _verify_termwise_contraction(c, witness, lo, hi)
    return True


def _cocycles(c: LazyComplex, k: int, o: str) -> Tuple[Module, ModuleMap]:
    """Z^k = ker d^k at object o, with its inclusion into C^k."""
    return submodule(c.term(k).at(o), kernel_basis(c.diff(k).comps[o]))


@dataclass
class _ComponentContraction:
    """A contraction of the component complex at obj on lo..hi.  incl[k] is
    the inclusion of B^k = im d^{k-1} into C^k (lo <= k <= hi+1), sections[k]
    a map s_k: B^{k+1} -> C^k with d^k s_k = incl[k+1] (lo-1 <= k <= hi), and
    h[k] = s_{k-1} rho_k: C^k -> C^{k-1} (lo <= k <= hi+1), with rho_k a
    retraction of incl[k]."""
    obj: str
    incl: Dict[int, Mat]
    sections: Dict[int, Mat]
    h: Dict[int, Mat]


def _termwise_contraction(c: LazyComplex, lo: int, hi: int) -> Optional[List[_ComponentContraction]]:
    """A contraction of each object's component complex on a window exact
    at lo..hi, or None where some C^k ->> B^{k+1} (lo-1 <= k <= hi) has no
    section or B^{hi+1} >-> C^{hi+1} no retraction.  Unverified: see
    _verify_termwise_contraction.  On the exact window B^k = Z^k for
    lo <= k <= hi.

    Each section s_k comes from _section; rho_k = id - s_k d^k in the
    coordinates of B^k for k <= hi.  d^{hi+1} need not exist, so rho_{hi+1}
    is the transpose of a section of D(incl): D(C^{hi+1}) ->> D(B^{hi+1}),
    over the opposite algebra.  Then h^k = s_{k-1} rho_k.
    """
    p = c.alg.p
    out = []
    for o in c.shape.objects:
        term = {k: c.term(k).at(o) for k in range(lo - 1, hi + 2)}
        bounds = {k: _cocycles(c, k, o) for k in range(lo, hi + 1)}
        bounds[hi + 1] = submodule(term[hi + 1], c.diff(hi).comps[o])
        sections, rho = {}, {}
        for k in range(lo - 1, hi + 1):
            b, incl = bounds[k + 1]
            dbar = _coordinates(incl, c.diff(k).comps[o])
            sections[k] = _section(dbar, b, term[k])
            if sections[k] is None:
                return None
            if k >= lo:
                rho[k] = _coordinates(bounds[k][1], Mat.identity(p, term[k].dim) - sections[k] @ dbar)
        top, top_incl = bounds[hi + 1]
        dual_section = _section(top_incl.mat.T, dual_module(top), dual_module(term[hi + 1]))
        if dual_section is None:
            return None
        rho[hi + 1] = dual_section.T
        h = {k: sections[k - 1] @ rho[k] for k in range(lo, hi + 2)}
        out.append(_ComponentContraction(o, {k: incl.mat for k, (_, incl) in bounds.items()}, sections, h))
    return out


def _section(dbar: Mat, b: Module, src: Module) -> Optional[Mat]:
    """s: b -> src with dbar s = id for a module map dbar: src ->> b, or
    None if there is none.  For b free on generators(b): lift the
    generators in one solve, then extend freely, s = S F^-1 with
    F = [b.action[j] g_i] and S = [src.action[j] x_i].  Otherwise (b not
    free on them, as over an algebra with no declared radical) the split
    solve of modules.split_section."""
    if b.dim == 0:
        return Mat.zeros(b.alg.p, src.dim, 0)
    gens = generators(b)
    free = invert(hstack([a @ gens for a in b.action]))
    if free is None:
        s = split_section(ModuleMap(src, b, dbar))
        return None if s is None else s.mat
    lifts = solve(dbar, gens)
    if lifts is None:
        return None
    return hstack([a @ lifts for a in src.action]) @ free


def _coordinates(incl: ModuleMap, m: Mat) -> Mat:
    """The c with incl c = m, read off the inclusion's pivot rows."""
    x = solve_by_pivots(incl.mat, incl.pivots, m)
    if x is None:
        raise VerificationError("a contraction's map leaves the boundaries")
    return x


def _verify_termwise_contraction(c: LazyComplex, witness: List[_ComponentContraction], lo: int, hi: int) -> None:
    """Check each component contraction by products: every h^k is a module
    map, d^k s_k = incl on B^{k+1}, and d h + h d = id at lo..hi."""
    p = c.alg.p
    for w in witness:
        term = {k: c.term(k).at(w.obj) for k in range(lo - 1, hi + 2)}
        d = {k: c.diff(k).comps[w.obj].a for k in range(lo - 1, hi + 1)}
        for k in range(lo, hi + 2):
            if any(product_defect(p, (w.h[k].a, a.a), c=b.a @ w.h[k].a) for a, b in zip(term[k].action, term[k - 1].action)):
                raise VerificationError(f"contraction at {w.obj} is not a module map in degree {k}")
        for k in range(lo - 1, hi + 1):
            if product_defect(p, (d[k], w.sections[k].a), c=w.incl[k + 1].a):
                raise VerificationError(f"section at {w.obj} does not split d^{k}")
        for k in range(lo, hi + 1):
            if product_defect(p, (d[k - 1], w.h[k].a), (w.h[k + 1].a, d[k]), c=np.identity(term[k].dim, dtype=np.int64)):
                raise VerificationError(f"d h + h d != id at {w.obj} in degree {k}")


# -- cohomology ------------------------------------------------------------------


def cohomology_at(c: LazyComplex, k: int) -> Tuple[DiagramMap, DiagramMap]:
    """The cocycles' inclusion Z^k >-> C^k and the projection Z^k ->> H^k."""
    Z, incl = kernel_diagram(c.diff(k))
    prev = c.diff(k - 1)
    comps = {}
    for o in c.shape.objects:
        sol = solve(incl.comps[o], prev.comps[o])
        if sol is None:
            raise VerificationError("boundaries do not land in the cocycles")
        comps[o] = sol
    return incl, cokernel_diagram(DiagramMap(c.term(k - 1), Z, comps))[1]


def induced_on_cohomology(f: ComplexMap, k: int) -> DiagramMap:
    (a_incl, a_proj), (b_incl, b_proj) = cohomology_at(f.src, k), cohomology_at(f.tgt, k)
    comps = {}
    for o in f.src.shape.objects:
        zeta = solve(b_incl.comps[o], f.comp(k).comps[o] @ a_incl.comps[o])
        if zeta is None:
            raise VerificationError("cocycles are not preserved")
        comps[o] = factor_by_section(b_proj.comps[o] @ zeta, a_proj.comps[o], a_proj.sections[o])
    return DiagramMap(a_proj.tgt, b_proj.tgt, comps)


def is_quasi_iso_on(f: ComplexMap, lo: int, hi: int) -> bool:
    for k in range(lo, hi + 1):
        h = induced_on_cohomology(f, k)
        for o in f.src.shape.objects:
            m = h.comps[o]
            if m.rows != m.cols or rank(m) != m.rows:
                return False
    return True


# -- semiorthogonal decomposition ---------------------------------------------------


@dataclass
class SodResult:
    p_part: LazyComplex
    tc_part: LazyComplex
    map_p: ComplexMap          # p_part -> x


def _component_complex_at_min(c: LazyComplex, i: str) -> Tuple[LazyComplex, ComplexMap]:
    """A := i_! i^* c together with the counit A -> c (i minimal)."""
    shape, alg = c.shape, c.alg

    def term_fn(k: int) -> Diagram:
        return left_kan_from_point(shape, alg, i, c.term(k).at(i))

    def diff_fn(k: int) -> Dict[str, Mat]:
        d_i = c.diff(k).comps[i]
        return {o: block_diag(alg.p, [d_i] * len(shape.hom(i, o))) for o in shape.objects}

    A = LazyComplex(shape, alg, term_fn, diff_fn)
    comps_by_degree: Dict[int, DiagramMap] = {}

    def eps(k: int) -> DiagramMap:
        if k not in comps_by_degree:
            x = c.term(k)
            comps = {o: hstack([Mat.zeros(alg.p, x.at(o).dim, 0)] + [x.mat(f) for f in shape.hom(i, o)]) for o in shape.objects}
            comps_by_degree[k] = DiagramMap(A.term(k), x, comps)
        return comps_by_degree[k]

    class _EpsMap(ComplexMap):
        def comp(self, n: int) -> DiagramMap:
            return eps(n)

    return A, _EpsMap(A, c, {})


def _extend_by_zero_complex(sub_shape: DirectCategory, c: LazyComplex, full_shape: DirectCategory, missing: str) -> LazyComplex:
    alg = c.alg

    def term_fn(k: int) -> Diagram:
        base = c.term(k)
        modules = {o: base.at(o) for o in sub_shape.objects}
        modules[missing] = zero_module(alg)
        mats = {}
        for f in full_shape.nonidentity_morphisms():
            s, t = full_shape.src(f), full_shape.tgt(f)
            if s in sub_shape.objects and t in sub_shape.objects:
                mats[f] = base.mat(f)
            else:
                mats[f] = Mat.zeros(alg.p, modules[t].dim, modules[s].dim)
        return Diagram(full_shape, alg, modules, mats)

    def diff_fn(k: int) -> Dict[str, Mat]:
        comps = dict(c.diff(k).comps)
        comps[missing] = Mat.zeros(alg.p, 0, 0)
        return comps

    return LazyComplex(full_shape, alg, term_fn, diff_fn)


def sod_decompose(c: LazyComplex, lo: int, hi: int) -> SodResult:
    """Split an acyclic complex with termwise-projective components into a
    projective-diagram part and a termwise-contractible part, by recursion
    over a minimal object; all three postconditions re-verified on the
    window.  Over a shape with more than one object the parts are complexes
    only near the window: the p-part raises WindowError for a differential
    outside lo-1..hi+1 and the tc-part for one outside lo-2..hi.  Raises
    AlgebraError over an algebra that is not self-injective."""
    require_self_injective(c.alg)
    if lo > hi:
        raise WindowError(f"the window {lo}..{hi} is empty")
    if not c.is_acyclic_on(lo - 1, hi + 1):
        raise WindowError("semiorthogonal decomposition asks for an acyclic window")
    if not c.is_termwise_projective_on(lo, hi):
        raise VerificationError("input terms are not termwise projective")
    res = _sod_recurse(c, lo, hi)
    # postconditions
    for k in range(lo, hi + 1):
        if not is_projective_diagram(res.p_part.term(k)):
            raise VerificationError("p-part has a non-projective term")
    if not is_termwise_contractible(res.tc_part, lo, hi):
        raise VerificationError("tc-part is not termwise contractible on the window")
    res.map_p.verify_chain_on(lo, hi)
    return res


def _sod_recurse(c: LazyComplex, lo: int, hi: int) -> SodResult:
    shape, alg = c.shape, c.alg
    if len(shape.objects) <= 1:
        zero = LazyComplex.bounded(shape, alg, {}, {})
        return SodResult(c, zero, ComplexMap(c, c, {k: identity_diagram_map(c.term(k)) for k in range(lo - 1, hi + 2)}))
    i = shape.minimal_objects()[0]
    A, eps = _component_complex_at_min(c, i)
    X_ic = cone(eps)  # the i-contractible remainder
    sub_shape, incl = full_subcategory(shape, [o for o in shape.objects if o != i])
    restricted = restrict_complex(incl, X_ic)
    inner = _sod_recurse(restricted, lo, hi)
    # zeta = counit o k_!(theta): k_! is extension by zero since i is minimal
    B = _extend_by_zero_complex(sub_shape, inner.p_part, shape, i)

    def zeta(k: int, o: str) -> Mat:
        if o == i:
            return Mat.zeros(alg.p, X_ic.term(k).at(i).dim, 0)
        return inner.map_p.comp(k).comps[o]

    # split zeta into (f: B -> c, h: B -> A[1]) through the cone block structure
    def f_of(k: int, o: str) -> Mat:
        return zeta(k, o)[: c.term(k).at(o).dim, :]

    def h_of(k: int, o: str) -> Mat:
        return zeta(k, o)[c.term(k).at(o).dim :, :]

    def p_term(k: int) -> Diagram:
        return block_sum_diagram([A.term(k), B.term(k)])

    def p_diff(k: int) -> Dict[str, Mat]:
        if not lo - 1 <= k <= hi + 1:  # zeta has components only there
            raise WindowError(f"the p-part of a decomposition on {lo}..{hi} has differentials only at {lo - 1}..{hi + 1}")
        comps = {}
        for o in shape.objects:
            da, db = A.diff(k).comps[o], B.diff(k).comps[o]
            comps[o] = block(alg.p, [[da, -h_of(k, o)], [None, db]], [da.rows, db.rows], [da.cols, db.cols])
        return comps

    p_part = LazyComplex(shape, alg, p_term, p_diff)

    phi_comps: Dict[int, DiagramMap] = {}
    for k in range(lo - 1, hi + 2):
        comps = {o: hstack([eps.comp(k).comps[o], f_of(k, o)]) for o in shape.objects}
        phi_comps[k] = DiagramMap(p_part.term(k), c.term(k), comps)
    map_p = ComplexMap(p_part, c, phi_comps)
    return SodResult(p_part, cone(map_p), map_p)


def restrict_complex(u: CatFunctor, c: LazyComplex) -> LazyComplex:
    def term_fn(k: int) -> Diagram:
        return restrict(u, c.term(k))

    def diff_fn(k: int) -> Dict[str, Mat]:
        d = c.diff(k).comps
        return {o: d[u.on_obj(o)] for o in u.dom.objects}

    return LazyComplex(u.dom, c.alg, term_fn, diff_fn)
