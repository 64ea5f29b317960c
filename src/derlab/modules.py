"""The category of finite-dimensional right modules over a session algebra.

Conventions, used everywhere downstream:

* module elements are coordinate columns; the right action of the basis
  element e_k is a matrix, and m . e_k = action[k] @ m;
* the module law reads sum_k c[i][j][k] action[k] = action[j] @ action[i]
  (an anti-homomorphism into matrices, as right actions must be);
* a map is a matrix F with F @ src.action[k] = tgt.action[k] @ F.

Linear duality sends a right Lambda-module to a right module over the
opposite algebra by transposing all matrices; it is exact, contravariant
and literally involutive in these coordinates, which the injective side
of the library exploits throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Algebra, require_self_injective
from .field import (
    DerlabError,
    Mat,
    block_diag,
    column_space_basis,
    hstack,
    in_column_span,
    invert,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    vstack,
)
from .verdict import FALSE, TRUE, UNKNOWN, Verdict


class ModuleError(DerlabError, ValueError):
    pass


class Module:
    """A module is a value: nothing changes its action matrices once it is
    built.  So what depends only on its content (module_key) may be
    computed once and reused, as stable_hom does."""

    __slots__ = ("alg", "dim", "action")

    def __init__(self, alg: Algebra, action: Sequence[Mat]) -> None:
        self.alg = alg
        self.action = list(action)
        if len(self.action) != alg.dim:
            raise ModuleError(f"need {alg.dim} action matrices, got {len(self.action)}")
        shapes = {m.a.shape for m in self.action} or {(0, 0)}
        if len(shapes) != 1 or len({d for shape in shapes for d in shape}) > 1:
            raise ModuleError("action matrices must be square of equal size")
        self.dim = shapes.pop()[0]

    def act(self, coeffs) -> Mat:
        out = Mat.zeros(self.alg.p, self.dim, self.dim)
        for k, c in enumerate(np.asarray(coeffs, dtype=np.int64) % self.alg.p):
            if c:
                out = out + self.action[k].scale(int(c))
        return out

    def validate(self) -> "Module":
        alg = self.alg
        if not self.act(alg.unit).is_identity():
            raise ModuleError("unit does not act as the identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = Mat.zeros(alg.p, self.dim, self.dim)
                for k in range(alg.dim):
                    c = int(alg.mul[i, j, k])
                    if c:
                        lhs = lhs + self.action[k].scale(c)
                if lhs != self.action[j] @ self.action[i]:
                    raise ModuleError(
                        f"module law fails on ({alg.basis_labels[i]}, {alg.basis_labels[j]})"
                    )
        return self

    def __repr__(self) -> str:
        return f"Module(dim={self.dim})"


class ModuleMap:
    __slots__ = ("src", "tgt", "mat")

    def __init__(self, src: Module, tgt: Module, mat: Mat) -> None:
        if mat.a.shape != (tgt.dim, src.dim):
            raise ModuleError(f"map matrix is {mat.rows}x{mat.cols}, expected {tgt.dim}x{src.dim}")
        self.src = src
        self.tgt = tgt
        self.mat = mat

    def validate(self) -> "ModuleMap":
        for k in range(self.src.alg.dim):
            if self.mat @ self.src.action[k] != self.tgt.action[k] @ self.mat:
                raise ModuleError(f"not a module map (fails at basis element {k})")
        return self

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.tgt, self.mat + other.mat)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.tgt, self.mat - other.mat)

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.src, self.tgt, self.mat.scale(c))

    def __repr__(self) -> str:
        return f"ModuleMap({self.src.dim}->{self.tgt.dim})"


def same_module(m: Module, n: Module) -> bool:
    """Structural equality: same algebra instance, same action matrices."""
    return m is n or (m.alg is n.alg and m.dim == n.dim and all(a == b for a, b in zip(m.action, n.action)))


def module_key(m: Module) -> Tuple[int, bytes]:
    """The content of m as a memo key: its dim and action bytes.  Two
    modules over one algebra instance are same_module iff their keys are
    equal."""
    return m.dim, b"".join([a.a.tobytes() for a in m.action])


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    if not same_module(g.src, f.tgt):
        raise ModuleError("composition mismatch")
    return ModuleMap(f.src, g.tgt, g.mat @ f.mat)


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, Mat.identity(m.alg.p, m.dim))


def zero_map(src: Module, tgt: Module) -> ModuleMap:
    return ModuleMap(src, tgt, Mat.zeros(src.alg.p, tgt.dim, src.dim))


@dataclass
class Conflation:
    """A short exact sequence: left an inflation, right a deflation."""

    left: ModuleMap
    right: ModuleMap

    @property
    def sub(self) -> Module:
        return self.left.src

    @property
    def middle(self) -> Module:
        return self.left.tgt

    @property
    def quot(self) -> Module:
        return self.right.tgt

    def validate(self) -> "Conflation":
        if self.left.tgt.dim != self.right.src.dim:
            raise ModuleError("conflation middle mismatch")
        if not (self.right.mat @ self.left.mat).is_zero():
            raise ModuleError("conflation composite is nonzero")
        rl = rank(self.left.mat)
        rr = rank(self.right.mat)
        if rl != self.sub.dim:
            raise ModuleError("conflation left map is not injective")
        if rr != self.quot.dim:
            raise ModuleError("conflation right map is not surjective")
        if rl + rr != self.middle.dim:
            raise ModuleError("conflation is not exact in the middle")
        return self


# -- basic objects -------------------------------------------------------


def zero_module(alg: Algebra) -> Module:
    return Module(alg, [Mat.zeros(alg.p, 0, 0) for _ in range(alg.dim)])


def regular_module(alg: Algebra) -> Module:
    return Module(alg, alg.right_regular_action())


def direct_sum(mods: Sequence[Module]) -> Tuple[Module, List[ModuleMap], List[ModuleMap]]:
    """Direct sum with canonical injections and projections."""
    mods = list(mods)
    if not mods:
        raise ModuleError("direct_sum of nothing needs an algebra; use zero_module")
    alg = mods[0].alg
    if any(m.alg is not alg for m in mods):
        raise ModuleError("direct_sum requires a shared algebra instance")
    p = alg.p
    total = Module(alg, [block_diag(p, [m.action[k] for m in mods]) for k in range(alg.dim)])
    injs, projs = [], []
    eye = Mat.identity(p, total.dim)
    off = 0
    for m in mods:
        inj = eye[:, off : off + m.dim]
        injs.append(ModuleMap(m, total, inj))
        projs.append(ModuleMap(total, m, inj.T))
        off += m.dim
    return total, injs, projs


def free_module(alg: Algebra, n: int) -> Module:
    """Lambda^n: the direct sum of n regular modules, block_diag(R_k, ..., R_k)
    = kron(I_n, R_k) for each basis element."""
    eye = Mat.identity(alg.p, n)
    return Module(alg, [kron(eye, r) for r in alg.right_regular_action()])


def dual_module(m: Module) -> Module:
    """Linear dual, a right module over the opposite algebra."""
    return Module(m.alg.opposite(), [a.T for a in m.action])


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.tgt), dual_module(f.src), f.mat.T)


# -- hom spaces ----------------------------------------------------------


def hom_space(m: Module, n: Module) -> List[ModuleMap]:
    """Canonical basis of Hom(m, n), via the intertwining equations.

    Matrices are vectorized row-major; the kernel basis of the stacked
    constraints gives a deterministic ordering.
    """
    if m.alg is not n.alg:
        raise ModuleError("hom_space requires a shared algebra instance")
    p = m.alg.p
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    blocks = [Mat.zeros(p, 0, t * s)]
    eye_t = Mat.identity(p, t)
    eye_s = Mat.identity(p, s)
    for k in intertwining_elements(m, n):
        # X @ S_k - T_k @ X = 0, row-major vec: kron(I, S_k^T) - kron(T_k, I)
        blocks.append(kron(eye_t, m.action[k].T) - kron(n.action[k], eye_s))
    system = vstack(blocks)
    basis = kernel_basis(system)
    out = []
    for j in range(basis.cols):
        out.append(ModuleMap(m, n, Mat._of(p, basis.a[:, j].reshape(t, s))))
    return out


def intertwining_elements(m: Module, n: Module) -> List[int]:
    """The basis elements e_k whose equations X S_k = T_k X a hom from m to
    n must satisfy: all of them but a unit basis vector that acts as the
    identity on both, whose equations X = X are rows of zeros."""
    unit, every = m.alg.unit, range(m.alg.dim)
    u = int(unit.argmax())
    if np.count_nonzero(unit) == 1 and unit[u] == 1 and m.action[u].is_identity() and n.action[u].is_identity():
        return [k for k in every if k != u]
    return list(every)


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_space(m, n))


# -- sub/quotient machinery ----------------------------------------------


def _span_key(amb: Module, span_cols: Mat):
    return module_key(amb), span_cols.p, span_cols.a.shape, span_cols.a.tobytes()


def submodule(amb: Module, span_cols: Mat) -> Tuple[Module, ModuleMap]:
    """Canonical submodule on the span of the given columns, kept by
    content (`Algebra.kept`); the inclusion goes into the caller's amb.

    Raises if the span is not invariant under the action.
    """
    sub, incl = amb.alg.kept("submodule", _span_key(amb, span_cols), amb.dim, lambda: _submodule(amb, span_cols))
    return sub, ModuleMap(sub, amb, incl)


def _submodule(amb: Module, span_cols: Mat) -> Tuple[Module, Mat]:
    incl = column_space_basis(span_cols)  # amb.dim x r
    r = incl.cols
    coords = solve(incl, hstack([a @ incl for a in amb.action]))
    if coords is None:
        raise ModuleError("span is not action-invariant")
    return Module(amb.alg, [coords[:, k * r : (k + 1) * r] for k in range(amb.alg.dim)]), incl


def quotient_module(amb: Module, span_cols: Mat) -> Tuple[Module, ModuleMap]:
    """Canonical quotient by the (invariant) span of the given columns,
    kept by content (`Algebra.kept`); the projection leaves the caller's
    amb."""
    quot, proj = amb.alg.kept("quotient_module", _span_key(amb, span_cols), amb.dim, lambda: _quotient_module(amb, span_cols))
    return quot, ModuleMap(amb, quot, proj)


def _quotient_module(amb: Module, span_cols: Mat) -> Tuple[Module, Mat]:
    p = amb.alg.p
    red, r, pivots = rref(span_cols.T)
    nonpiv = np.ones(amb.dim, dtype=bool)
    nonpiv[pivots] = False
    nonpiv = np.flatnonzero(nonpiv)
    # reduce v by the canonical row basis, then keep the non-pivot coords:
    # the identity there, minus the pivot rows' non-pivot entries
    redmat = np.zeros((nonpiv.size, amb.dim), dtype=np.int64)
    redmat[np.arange(nonpiv.size), nonpiv] = 1
    redmat[:, pivots] = -red.a[:r, nonpiv].T % p
    proj = Mat._of(p, redmat)
    # the non-pivot coords are a section of proj
    quot = Module(amb.alg, [proj @ a[:, nonpiv] for a in amb.action])
    # the kill check against the span's canonical basis, the rows of red
    if not (proj @ Mat._of(p, red.a[:r].T)).is_zero():
        raise ModuleError("quotient projection does not kill the span")
    return quot, proj


@dataclass
class Factorization:
    kernel: ModuleMap  # inflation into the source
    image: Module
    cokernel: ModuleMap  # deflation out of the target
    image_in_target: ModuleMap


def factorize(f: ModuleMap) -> Factorization:
    ker_cols = kernel_basis(f.mat)
    kernel_mod, kernel_incl = submodule(f.src, ker_cols)
    image_mod, image_incl = submodule(f.tgt, f.mat)
    coker_mod, coker_proj = quotient_module(f.tgt, f.mat)
    return Factorization(kernel_incl, image_mod, coker_proj, image_incl)


def pushout(f: ModuleMap, g: ModuleMap) -> Tuple[Module, ModuleMap, ModuleMap]:
    """Pushout of X <-f- Z -g-> Y: coker of (f, -g) with its two legs."""
    if not same_module(f.src, g.src):
        raise ModuleError("pushout needs a common source")
    x, y = f.tgt, g.tgt
    sum_mod, injs, _ = direct_sum([x, y])
    combined = vstack([f.mat, -g.mat if g.mat.rows else g.mat])
    po, proj = quotient_module(sum_mod, combined)
    ix = compose(proj, injs[0])
    iy = compose(proj, injs[1])
    return po, ix, iy


def pullback(f: ModuleMap, g: ModuleMap) -> Tuple[Module, ModuleMap, ModuleMap]:
    """Pullback of X -f-> W <-g- Y: kernel of (f, -g) with its projections."""
    if not same_module(f.tgt, g.tgt):
        raise ModuleError("pullback needs a common target")
    x, y = f.src, g.src
    sum_mod, _, projs = direct_sum([x, y])
    combined = hstack([f.mat, -g.mat if g.mat.cols else g.mat])
    pb, incl = submodule(sum_mod, kernel_basis(combined))
    px = compose(projs[0], incl)
    py = compose(projs[1], incl)
    return pb, px, py


# -- covers, envelopes, syzygies ------------------------------------------


def generators(m: Module) -> Mat:
    """Columns generating m: a lift of a basis of m / m.rad when the
    algebra declares its radical, the full standard basis otherwise."""
    p = m.alg.p
    if m.dim == 0:
        return Mat.zeros(p, 0, 0)
    if m.alg.radical is None or m.alg.radical.cols == 0:
        return Mat.identity(p, m.dim)
    # the standard vectors completing a basis of m.rad lift a basis of m/m.rad
    eye = Mat.identity(p, m.dim)
    return eye[:, class_reps(range(m.dim), eye.col, _radical_layer(m))]


def _radical_layer(m: Module) -> Mat:
    """A column basis of m.rad, for an algebra that declares its radical."""
    rad = m.alg.radical
    if rad.cols == 0:
        return Mat.zeros(m.alg.p, m.dim, 0)
    return column_space_basis(hstack([m.act(rad.a[:, j]) for j in range(rad.cols)]))


def generator_legs(m: Module) -> List[Mat]:
    """For each generator g of m, the matrix of the map Lambda -> m with
    1 |-> g, which sends e_k to g . e_k = A_k @ g.  Side by side they are
    the free cover's deflation, checked to be onto.  Kept by content
    (`Algebra.kept`); each call gets its own list."""
    return list(m.alg.kept("generator_legs", module_key(m), m.dim, lambda: _generator_legs(m)))


def _generator_legs(m: Module) -> List[Mat]:
    p = m.alg.p
    gens = generators(m)
    acted = np.stack([a.a @ gens.a for a in m.action], axis=2) % p  # [:, i, k] = A_k @ g_i
    if rank(Mat._of(p, acted.reshape(m.dim, gens.cols * m.alg.dim))) != m.dim:
        raise ModuleError("chosen generators do not generate")
    return [Mat._of(p, acted[:, i, :]) for i in range(gens.cols)]


def free_cover(m: Module) -> Conflation:
    """Conflation  syzygy >--> Lambda^g -->> m  from chosen generators."""
    legs = generator_legs(m)
    middle = free_module(m.alg, len(legs))
    cover = ModuleMap(middle, m, hstack([Mat.zeros(m.alg.p, m.dim, 0)] + legs))
    ker_mod, ker_incl = submodule(middle, kernel_basis(cover.mat))
    return Conflation(ModuleMap(ker_mod, middle, ker_incl.mat), cover)


def injective_embed(m: Module) -> Conflation:
    """Conflation  m >--> E -->> cosyzygy  with E injective.

    Built as the linear dual of a free cover over the opposite algebra;
    over a self-injective algebra E is projective as well.
    """
    dm = dual_module(m)
    op_cover = free_cover(dm)
    emb = ModuleMap(m, dual_module(op_cover.middle), op_cover.right.mat.T)
    cosyz = dual_module(op_cover.sub)
    out_map = ModuleMap(emb.tgt, cosyz, op_cover.left.mat.T)
    return Conflation(emb, out_map)


def is_projective(m: Module) -> bool:
    """Is m projective?

    Over a local algebra (a declared radical of codimension 1, so that
    Lambda / rad = F_p) m is projective iff it is free on a minimal set of
    generators, i.e. iff dim m = dim Lambda * dim(m / m.rad) (Nakayama's
    lemma; Assem, Simson & Skowronski, Elements 1, I.5).  Over any other
    algebra: does the free cover split?  Solved linearly in the hom space.
    Kept by content (`Algebra.kept`).
    """
    return m.alg.kept("is_projective", module_key(m), m.dim, lambda: _is_projective(m))


def _is_projective(m: Module) -> bool:
    alg = m.alg
    if alg.is_local():
        return m.dim % alg.dim == 0 and m.dim == alg.dim * (m.dim - _radical_layer(m).cols)
    return split_section(free_cover(m).right) is not None


def split_section(defl: ModuleMap) -> Optional[ModuleMap]:
    """A section s of a surjection (defl o s = id), if one exists."""
    cands = hom_space(defl.tgt, defl.src)
    images = [vec_module_map(compose(defl, c)) for c in cands]
    return solve_in_basis(cands, images, vec_module_map(identity_map(defl.tgt)), zero_map(defl.tgt, defl.src))


def split_retraction(infl: ModuleMap) -> Optional[ModuleMap]:
    """A retraction r of an injection (r o infl = id), if one exists."""
    cands = hom_space(infl.tgt, infl.src)
    images = [vec_module_map(compose(c, infl)) for c in cands]
    return solve_in_basis(cands, images, vec_module_map(identity_map(infl.src)), zero_map(infl.tgt, infl.src))


def is_injective(m: Module) -> bool:
    return is_projective(dual_module(m))


def syzygy(m: Module) -> Module:
    return free_cover(m).sub


def cosyzygy(m: Module) -> Module:
    return injective_embed(m).quot


# -- the stable layer, shared by modules and diagrams --------------------------
#
# A stable Hom is Hom modulo the maps that factor through a projective.  The
# functions below are written once over a small set of operations of the
# exact category (an "ops" object, see _ModuleOps): hom basis, vectorize,
# compose, identity, zero map, the free blocks of a projective cover of b
# (free objects F with their generator legs F -> b) and the cone data of a
# source ((None, None) where the cone does not decide), plus the category's
# own stable_hom / is_stable_iso_map entry points.  Ops objects reach those
# through module-level names at call time, so rebinding a name (as
# bench/tracer.py does) is seen by the shared code too.


def vec_module_map(f: ModuleMap) -> Mat:
    """The matrix of f as one column, row-major (the order of hom_space)."""
    return f.mat.reshape(-1, 1)


def combine(zero, basis: Sequence, coeffs):
    """zero + sum_j coeffs[j] basis[j] for maps with + and scale."""
    out = zero
    for c, b in zip(coeffs, basis):
        if c:
            out = out + b.scale(int(c))
    return out


def solve_in_basis(basis: Sequence, images: Sequence[Mat], rhs: Mat, zero, extra: Optional[Mat] = None):
    """The map sum_j c_j basis[j] for the canonical solution c of
    sum_j c_j images[j] + (a vector in the column span of extra) = rhs,
    or None when there is none.

    images[j] is the column vector basis[j] is sent to by whatever linear
    condition the caller imposes; zero is the zero map the combination is
    added onto.  With no columns at all, a zero rhs gives zero and any
    other rhs gives None.
    """
    if len(images) != len(basis):
        raise ModuleError(f"{len(images)} images for {len(basis)} basis maps")
    cols = list(images) + ([extra] if extra is not None and extra.cols else [])
    if not cols:
        return zero if rhs.is_zero() else None
    sol = solve(hstack(cols), rhs)
    if sol is None:
        return None
    return combine(zero, basis, sol.a[:, 0])


def class_reps(basis: Sequence, vec: Callable[[object], Mat], sub: Mat) -> List:
    """Basis vectors completing the column span of sub, taken greedily in
    basis order; their classes form a basis of span(basis) / span(sub).

    A vector is taken iff it is outside the span of sub and the vectors
    before it, i.e. iff its column is a pivot of rref([sub | vec(b) ...])."""
    _, _, pivots = rref(hstack([sub] + [vec(b) for b in basis]))
    return [basis[c - sub.cols] for c in pivots if c >= sub.cols]


def candidate_maps(basis: Sequence, zero, budget: int, seed: int) -> Tuple[bool, Iterator]:
    """(exhaustive, candidates): every combination of basis when the p**t
    of them fit in budget, otherwise budget seeded random draws."""
    p, t = zero.src.alg.p, len(basis)
    exhaustive = p ** t <= budget
    if exhaustive:
        space = itertools.product(range(p), repeat=t)
    else:
        rng = np.random.default_rng(seed)
        space = (rng.integers(0, p, size=t) for _ in range(budget))
    return exhaustive, (combine(zero, basis, coeffs) for coeffs in space)


@dataclass
class StableHomReport:
    basis: List                      # canonical basis of Hom(a, b)
    proj_subspace: Mat               # columns: vectorized maps factoring through a projective
    quotient_dim: int
    vec: Callable[[object], Mat] = field(repr=False)

    def in_proj_subspace(self, f) -> bool:
        v = self.vec(f)
        if self.proj_subspace.cols == 0:
            return v.is_zero()
        return in_column_span(self.proj_subspace, v)


def stable_hom_in(ops, a, b) -> StableHomReport:
    """Hom(a, b), the subspace factoring through a projective, and the
    quotient dimension.

    Any factorization through a projective lifts through the cover
    deflation P(b) ->> b.  P(b) is a sum of copies of free objects F, one
    per generator of b, and the deflation is the sum of the generator legs
    F -> b, so the subspace is spanned by leg o h for h in Hom(a, F): one
    small Hom per free object instead of Hom(a, P(b)).  Raises AlgebraError
    over an algebra that is not self-injective.
    """
    require_self_injective(a.alg)
    basis = ops.hom(a, b)
    blocks = ops.free_blocks(b)
    cols = [ops.vec(ops.compose(leg, h)) for free, legs in blocks for h in ops.hom(a, free) for leg in legs]
    if cols:
        sub = column_space_basis(hstack(cols))
    else:
        sub = Mat.zeros(a.alg.p, ops.vec(ops.zero(a, b)).rows, 0)
    return StableHomReport(basis, sub, len(basis) - sub.cols, ops.vec)


@dataclass
class StableIsoPair:
    """What the stable-inverse check of any map src -> tgt needs that
    depends only on the pair (src, tgt): the canonical basis of
    Hom(tgt, src), the stable endomorphism reports of src and tgt, and for
    modules the cone data of src, an inflation src -> I(src) into an
    injective and the module tgt (+) I(src).  A search builds it once and
    hands it to the check of every candidate."""

    src: object
    tgt: object
    back: List
    end_src: StableHomReport
    end_tgt: StableHomReport
    inflation: Optional[Mat] = None
    cone_sum: Optional[Module] = None


def stable_iso_pair_in(
    ops, a, b, back: Optional[List] = None, end_src: Optional[StableHomReport] = None, end_tgt: Optional[StableHomReport] = None
) -> StableIsoPair:
    """The per-pair data for checking maps a -> b, from the parts the
    caller already holds and the rest built here.  The cone data comes from
    ops.cone, and only when stable End(a) != 0: otherwise a is projective,
    there is one candidate, and the solve decides it alone."""
    back = ops.hom(b, a) if back is None else back
    end_src = ops.stable_hom(a, a) if end_src is None else end_src
    end_tgt = ops.stable_hom(b, b) if end_tgt is None else end_tgt
    inflation, cone_sum = ops.cone(a, b) if end_src.quotient_dim else (None, None)
    return StableIsoPair(a, b, back, end_src, end_tgt, inflation, cone_sum)


def stable_iso_map_in(ops, f, pair: StableIsoPair) -> Tuple[bool, Optional[object]]:
    """Is f invertible in the stable category?  Exact, no budget.  Returns
    (verdict, g when true).

    With cone data (modules), f: m -> n is decided by its cone: f is a
    stable isomorphism iff coker([f; iota]: m -> n (+) I(m)) is projective
    (Happel, LMS LN 119, I.2), one cokernel and one projectivity count.  A
    "no" ends there.  A "yes", and every map without cone data, goes to one
    solve: the canonical g with g o f = id modulo projectives, then
    f o g = id modulo projectives.  That test is exact: if f has a stable
    inverse h, then g = g o f o h = h stably.  So the solve builds the
    inverse of a "yes" and certifies it; a "yes" it cannot certify raises.

    pair must be the per-pair data of f's own source and target."""
    if pair.src is not f.src or pair.tgt is not f.tgt:
        raise ops.error("per-pair data belongs to another source or target")
    coned = pair.cone_sum is not None
    if coned and not is_projective(quotient_module(pair.cone_sum, vstack([f.mat, pair.inflation]))[0]):
        return False, None
    back = pair.back
    zero = ops.zero(f.tgt, f.src)
    left = [ops.vec(ops.compose(b, f)) for b in back]
    g = solve_in_basis(back, left, ops.vec(ops.identity(f.src)), zero, pair.end_src.proj_subspace)
    if g is None or not pair.end_tgt.in_proj_subspace(ops.compose(f, g) - ops.identity(f.tgt)):
        if coned:
            raise ops.error("the cone of the map is projective, yet no stable inverse solves")
        return False, None
    return True, g


def stable_iso_search(
    ops, a, b, fwd: StableHomReport, budget: int, seed: int, pair: Optional[StableIsoPair] = None
) -> Verdict:
    """Search the stable classes of fwd = Hom(a, b) for a stable
    isomorphism, each candidate checked exactly by ops.is_stable_iso_map
    against one StableIsoPair (built here unless the caller has it).  An
    exhausted exhaustive enumeration certifies "false"; a sampled search
    that finds nothing reports "unknown"."""
    reps = class_reps(fwd.basis, fwd.vec, fwd.proj_subspace)
    total = a.alg.p ** len(reps)
    exhaustive, candidates = candidate_maps(reps, ops.zero(a, b), budget, seed)
    if pair is None:
        pair = stable_iso_pair_in(ops, a, b)
    for f in candidates:
        ok, g = ops.is_stable_iso_map(f, pair)
        if ok:
            how = "exhaustive class search" if exhaustive else "randomized search"
            return Verdict(TRUE, reason=f"witness found by {how}", witness=(f, g))
    if exhaustive:
        return Verdict(FALSE, reason=f"exhausted all {total} stable classes of {ops.hom_label}")
    return Verdict(UNKNOWN, reason=f"budget {budget} exhausted over {total} stable classes")


class _ModuleOps:
    """Modules as an exact category for the shared stable layer."""

    error = ModuleError
    hom_label = "Hom(m, n)"

    def hom(self, a: Module, b: Module) -> List[ModuleMap]:
        return hom_space(a, b)

    def vec(self, f: ModuleMap) -> Mat:
        return vec_module_map(f)

    def compose(self, g: ModuleMap, f: ModuleMap) -> ModuleMap:
        return compose(g, f)

    def identity(self, a: Module) -> ModuleMap:
        return identity_map(a)

    def zero(self, a: Module, b: Module) -> ModuleMap:
        return zero_map(a, b)

    def free_blocks(self, b: Module) -> List[Tuple[Module, List[ModuleMap]]]:
        legs = generator_legs(b)
        free = regular_module(b.alg)
        return [(free, [ModuleMap(free, b, leg) for leg in legs])] if legs else []

    def cone(self, a: Module, b: Module) -> Tuple[Mat, Module]:
        """iota: a -> I(a), the transpose of the generator legs of D(a) into
        I(a) = D(free), and the module b (+) I(a)."""
        legs = generator_legs(dual_module(a))
        injective = dual_module(free_module(a.alg.opposite(), len(legs)))
        return hstack(legs).T, direct_sum([b, injective])[0]

    def stable_hom(self, a: Module, b: Module) -> StableHomReport:
        return stable_hom(a, b)

    def is_stable_iso_map(self, f: ModuleMap, pair: StableIsoPair) -> Tuple[bool, Optional[ModuleMap]]:
        return is_stable_iso_map(f, pair)


_MODULES = _ModuleOps()


def stable_hom(m: Module, n: Module) -> StableHomReport:
    """Hom(m, n) with its projective subspace and stable quotient dimension.
    Kept per algebra by the content of (m, n) (Algebra.kept): the memo holds
    the basis matrices and the subspace, rewrapped as maps m -> n."""
    if m.alg is not n.alg:
        raise ModuleError("stable_hom requires a shared algebra instance")

    def build():
        rep = stable_hom_in(_MODULES, m, n)
        return tuple(f.mat for f in rep.basis), rep.proj_subspace

    mats, sub = m.alg.kept("stable_hom", (module_key(m), module_key(n)), m.dim + n.dim, build)
    return StableHomReport([ModuleMap(m, n, a) for a in mats], sub, len(mats) - sub.cols, _MODULES.vec)


def is_stable_iso_map(f: ModuleMap, pair: Optional[StableIsoPair] = None) -> Tuple[bool, Optional[ModuleMap]]:
    """Is the given map invertible in the stable category?  Exact, no budget.

    Returns (verdict, two-sided stable inverse when true).  A search passes
    the StableIsoPair of (f.src, f.tgt) it built once; a map checked on its
    own builds it here.
    """
    return stable_iso_map_in(_MODULES, f, pair or stable_iso_pair_in(_MODULES, f.src, f.tgt))


def is_stable_iso(m: Module, n: Module, budget: int = 4096, seed: int = 0) -> Verdict:
    """Search for a stable isomorphism m ~ n.

    Cheap dimension obstructions certify "false"; then candidates range
    over stable classes of Hom(m, n), each one linear solve.
    """
    end_m = stable_hom(m, m)
    end_n = stable_hom(n, n)
    if end_m.quotient_dim != end_n.quotient_dim:
        return Verdict(FALSE, reason=f"stable endomorphism dimensions differ ({end_m.quotient_dim} vs {end_n.quotient_dim})")
    fwd = stable_hom(m, n)
    bwd = stable_hom(n, m)
    if fwd.quotient_dim == 0 and (end_m.quotient_dim or end_n.quotient_dim):
        return Verdict(FALSE, reason="stable Hom(m, n) = 0 but stable endomorphisms are nonzero")
    if bwd.quotient_dim == 0 and (end_m.quotient_dim or end_n.quotient_dim):
        return Verdict(FALSE, reason="stable Hom(n, m) = 0 but stable endomorphisms are nonzero")
    pair = stable_iso_pair_in(_MODULES, m, n, bwd.basis, end_m, end_n)
    return stable_iso_search(_MODULES, m, n, fwd, budget, seed, pair)


def find_module_iso(m: Module, n: Module, budget: int = 4096, seed: int = 0) -> Optional[ModuleMap]:
    """An actual isomorphism m -> n, by search over Hom; None if not found."""
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return zero_map(m, n)
    _, candidates = candidate_maps(hom_space(m, n), zero_map(m, n), budget, seed)
    return next((f for f in candidates if invert(f.mat) is not None), None)
