"""Unbounded complexes of diagrams as lazily generated, window-inspected
values: complete resolutions, shifts, cones, contractions, and the
projective/termwise-contractible semiorthogonal decomposition.

One builder, contraction, checks the h it builds by products, so every
True is certified.  It answers is_contractible_on; in sod_decompose, the
tc-part's, which restricts to a termwise one (SodResult.tc_null_on_window);
and on the complex restricted to its objects, is_termwise_contractible,
the split's fallback.

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
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .algebra import Algebra, require_self_injective
from .cats import CatFunctor, DirectCategory, full_subcategory, opposite_category
from .field import DerlabError, Mat, block, block_diag, hstack, product_defect, rank, solve, solve_by_pivots
from .modules import ModuleError, is_projective, zero_module
from .diagrams import (
    Diagram,
    DiagramError,
    DiagramMap,
    block_sum_diagram,
    cokernel_diagram,
    dual_diagram,
    factor_by_section,
    free_generators,
    free_legs_at,
    identity_diagram_map,
    kernel_diagram,
    left_kan_from_point,
    projective_cover_diagram,
    restrict,
    solve_in_hom,
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
            return (diffs[n] if n in diffs else zero_diagram_map(term_fn(n), term_fn(n + 1))).comps

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


# -- contractions ---------------------------------------------------------------


def contraction(c: LazyComplex, lo: int, hi: int) -> Optional[Dict[int, DiagramMap]]:
    """Natural maps h^k: C^k -> C^{k-1} (lo < k <= hi) with d h + h d = id
    at lo+1 .. hi-1, checked by products (check_contraction), or None if
    there are none: they exist iff the deflations C^k ->> B^{k+1} (lo <= k
    < hi) and the inflation B^hi >-> C^hi split (Bühler, Exact categories,
    section 10), B the boundaries, taken to be the cocycles inside the
    window.  With sections s_k (_section), rho_k = id - s_k d^k in the
    coordinates of B^k retracts B^k >-> C^k for k < hi, rho_hi = id - sigma pi
    for a section sigma of pi: C^hi ->> coker d^{hi-1}; h^k = s_{k-1} rho_k."""
    if hi - lo < 2 or not any(c.term(k).total_dim() for k in range(lo, hi + 1)):
        return {k: zero_diagram_map(c.term(k), c.term(k - 1)) for k in range(lo + 1, hi + 1)}  # no equation, or only zero terms
    objs, p = c.shape.objects, c.alg.p
    defl = {hi: cokernel_diagram(c.diff(hi - 1))[1]}
    bounds = {k: kernel_diagram(c.diff(k) if k < hi else defl[hi])[1] for k in range(lo + 1, hi + 1)}
    for k in range(lo, hi):
        defl[k] = DiagramMap(c.term(k), bounds[k + 1].src, {o: _coordinates(bounds[k + 1].comps[o], c.diff(k).comps[o]) for o in objs})
    sections = {k: _section(defl[k]) for k in range(lo, hi + 1)}
    if None in sections.values():
        return None
    h = {}
    for k in range(lo + 1, hi + 1):
        rho = {o: _coordinates(bounds[k].comps[o], Mat.identity(p, c.term(k).at(o).dim) - sections[k][o] @ defl[k].comps[o]) for o in objs}
        h[k] = DiagramMap(c.term(k), c.term(k - 1), {o: sections[k - 1][o] @ rho[o] for o in objs})
    check_contraction(c, h, lo, hi)
    return h


def check_contraction(c: LazyComplex, h: Dict[int, DiagramMap], lo: int, hi: int) -> None:
    """Check by products that each h^k (lo < k <= hi) is a natural module
    map C^k -> C^{k-1} and that d h + h d = id at lo+1 .. hi-1; a failure
    is a VerificationError."""
    for k in range(lo + 1, hi + 1):
        try:
            h[k].validate()
        except (ModuleError, DiagramError) as exc:
            raise VerificationError(f"h^{k} is not a map of diagrams: {exc}") from exc
    for k in range(lo + 1, hi):
        for o in c.shape.objects:
            eye = np.identity(c.term(k).at(o).dim, dtype=np.int64)
            if product_defect(c.alg.p, (c.diff(k - 1).comps[o].a, h[k].comps[o].a), (h[k + 1].comps[o].a, c.diff(k).comps[o].a), c=eye):
                raise VerificationError(f"d h + h d != id at {o} in degree {k}")


def _section(defl: DiagramMap) -> Optional[Dict[str, Mat]]:
    """The components of a natural section of a deflation defl: X ->> Y, or
    None.  Lift the free_generators g of Y through defl and extend freely:
    at each object o, s = S P^-1 with P = [Y(f) a g] and S = [X(f) a lift(g)]
    over the arrows f: j -> o and the basis a of the algebra.  P is onto
    (Nakayama's lemma, degree by degree), so it is invertible, and Y free
    on g, exactly when it is square.  Over a local algebra that is when Y
    is projective, and a projective X has no other section (a summand of
    a projective is projective); otherwise, as over an algebra with no
    declared radical, the split solve diagrams.solve_in_hom."""
    x, y = defl.src, defl.tgt
    shape, p = y.shape, y.alg.p
    legs = {}  # j -> (a g, a lift(g)) side by side over the basis a
    for j in shape.objects:
        gens = free_generators(y, j)
        lifts = solve(defl.comps[j], Mat.identity(p, y.at(j).dim)[:, gens]) if gens else Mat.zeros(p, x.at(j).dim, 0)
        if lifts is None:
            return None
        legs[j] = (np.concatenate([a.a[:, gens] for a in y.at(j).action], axis=1), np.concatenate([a.a @ lifts.a for a in x.at(j).action], axis=1) % p)
    out = {}
    for o in shape.objects:
        free = [(y.mat(f).a @ legs[j][0], x.mat(f).a @ legs[j][1]) for j in shape.objects for f in shape.hom(j, o)]
        pres = np.concatenate([np.zeros((y.at(o).dim, 0), dtype=np.int64)] + [a for a, _ in free], axis=1) % p
        lifted = np.concatenate([np.zeros((x.at(o).dim, 0), dtype=np.int64)] + [b for _, b in free], axis=1) % p
        if pres.shape[0] != pres.shape[1]:
            if y.alg.is_local() and is_projective_diagram(x):
                return None
            s = solve_in_hom(y, x, [(identity_diagram_map(y), defl, identity_diagram_map(y))])
            return None if s is None else s.comps
        out[o] = solve(Mat._of(p, pres.T), Mat._of(p, lifted.T)).T
    return out


def _coordinates(incl: Mat, m: Mat) -> Mat:
    """The x with incl x = m for a canonical column basis incl, which is
    the identity on its pivot rows, the first nonzero row of each column
    (field.solve_by_pivots); a VerificationError if m leaves its span."""
    x = solve_by_pivots(incl, (incl.a != 0).argmax(axis=0) if incl.rows else np.zeros(0, dtype=np.intp), m)
    if x is None:
        raise VerificationError("a map leaves the subdiagram it should land in")
    return x


def is_contractible_on(c: LazyComplex, lo: int, hi: int) -> bool:
    """Is there h of degree -1 with d h + h d = id at lo+1 .. hi-1 of c?
    True when contraction builds one, so every True is certified by
    products; the tests compare the answer with one joint solve for h
    (tests/oracles.py).  On an exact window, a term lo..hi that is not a
    projective diagram is a PreconditionError."""
    if hi - lo < 2 or all(is_projective_diagram(c.term(k)) for k in range(lo, hi + 1)):
        return contraction(c, lo, hi) is not None
    if c.is_acyclic_on(lo, hi):
        raise PreconditionError(f"contractibility on {lo}..{hi} is decided for complexes of projective diagrams")
    return False


def is_termwise_contractible(c: LazyComplex, lo: int, hi: int) -> bool:
    """Does each object's component complex have a contraction on lo..hi,
    degree -1 module maps h with d h + h d = id there?  Asked of a window
    exact at lo..hi; any other window is a WindowError.  Answered by
    contraction on c restricted to its objects, on lo-1 .. hi+1, so a True
    is certified by products; no term need be projective."""
    if contraction(restrict_complex(_objects_of(c.shape), c), lo - 1, hi + 1) is not None:
        return True  # a contraction is exact where it contracts
    if not c.is_acyclic_on(lo - 1, hi + 1):
        raise WindowError(f"termwise contractibility asks for a window exact at {lo}..{hi}")
    return False


@lru_cache(maxsize=16)
def _objects_of(shape: DirectCategory) -> CatFunctor:
    """shape's objects as a discrete shape, included; built once per shape."""
    return CatFunctor(DirectCategory(shape.objects, {}, {}), shape, {o: o for o in shape.objects}, {})


# -- cohomology ------------------------------------------------------------------


def cohomology_at(c: LazyComplex, k: int) -> Tuple[DiagramMap, DiagramMap]:
    """The cocycles' inclusion Z^k >-> C^k and the projection Z^k ->> H^k."""
    Z, incl = kernel_diagram(c.diff(k))
    comps = {o: _coordinates(incl.comps[o], c.diff(k - 1).comps[o]) for o in c.shape.objects}
    return incl, cokernel_diagram(DiagramMap(c.term(k - 1), Z, comps))[1]


def induced_on_cohomology(f: ComplexMap, k: int) -> DiagramMap:
    (a_incl, a_proj), (b_incl, b_proj) = cohomology_at(f.src, k), cohomology_at(f.tgt, k)
    zeta = {o: _coordinates(b_incl.comps[o], f.comp(k).comps[o] @ a_incl.comps[o]) for o in f.src.shape.objects}  # on the cocycles
    return DiagramMap(a_proj.tgt, b_proj.tgt, {o: factor_by_section(b_proj.comps[o] @ z, a_proj.comps[o], a_proj.sections[o]) for o, z in zeta.items()})


def is_quasi_iso_on(f: ComplexMap, lo: int, hi: int) -> bool:
    return all(m.rows == m.cols == rank(m) for k in range(lo, hi + 1) for m in induced_on_cohomology(f, k).comps.values())


# -- semiorthogonal decomposition ---------------------------------------------------


@dataclass
class SodResult:
    p_part: LazyComplex
    tc_part: LazyComplex
    map_p: ComplexMap          # p_part -> x
    tc_null_on_window: Optional[bool] = None  # whether the tc-part contracts on lo-1..hi+1; None if not tried


def _component_complex_at_min(c: LazyComplex, i: str) -> Tuple[LazyComplex, ComplexMap]:
    """A := i_! i^* c together with the counit A -> c (i minimal)."""
    shape, alg = c.shape, c.alg

    def term_fn(k: int) -> Diagram:
        return left_kan_from_point(shape, alg, i, c.term(k).at(i))

    def diff_fn(k: int) -> Dict[str, Mat]:
        d_i = c.diff(k).comps[i]
        return {o: block_diag(alg.p, [d_i] * len(shape.hom(i, o))) for o in shape.objects}

    A = LazyComplex(shape, alg, term_fn, diff_fn)

    class _Counit(ComplexMap):
        def comp(self, k: int) -> DiagramMap:
            x = c.term(k)
            return DiagramMap(A.term(k), x, {o: free_legs_at(x, i, [Mat.identity(alg.p, x.at(i).dim)], o) for o in shape.objects})

    return A, _Counit(A, c, {})


def _extend_by_zero_complex(sub_shape: DirectCategory, c: LazyComplex, full_shape: DirectCategory, missing: str) -> LazyComplex:
    alg = c.alg

    def term_fn(k: int) -> Diagram:
        base = c.term(k)
        modules = {o: base.at(o) for o in sub_shape.objects}
        modules[missing] = zero_module(alg)
        mats = {f: base.mat(f) if f in sub_shape.morphisms else Mat.zeros(alg.p, modules[full_shape.tgt(f)].dim, modules[full_shape.src(f)].dim) for f in full_shape.nonidentity_morphisms()}
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
    window, the tc-part's by its natural contraction on lo-1..hi+1 where
    its terms there are projective (tc_null_on_window), else by
    is_termwise_contractible.  Over more than one object the parts are
    complexes only near the window: the p-part raises WindowError for a
    differential outside lo-1..hi+1, the tc-part for one outside lo-2..hi.
    Raises AlgebraError over an algebra that is not self-injective."""
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
    if all(is_projective_diagram(res.tc_part.term(k)) for k in range(lo - 1, hi + 2)):
        res.tc_null_on_window = contraction(res.tc_part, lo - 1, hi + 1) is not None
    if not res.tc_null_on_window and not is_termwise_contractible(res.tc_part, lo, hi):  # a natural one restricts to a termwise one
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

    map_p = ComplexMap(p_part, c, {})
    for k in range(lo - 1, hi + 2):
        counit = eps.comp(k).comps
        map_p.comps[k] = DiagramMap(p_part.term(k), c.term(k), {o: hstack([counit[o], f_of(k, o)]) for o in shape.objects})
    return SodResult(p_part, cone(map_p), map_p)


def restrict_complex(u: CatFunctor, c: LazyComplex) -> LazyComplex:
    def term_fn(k: int) -> Diagram:
        return restrict(u, c.term(k))

    def diff_fn(k: int) -> Dict[str, Mat]:
        d = c.diff(k).comps
        return {o: d[u.on_obj(o)] for o in u.dom.objects}

    return LazyComplex(u.dom, c.alg, term_fn, diff_fn)
