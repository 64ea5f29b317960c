"""Diagrams of modules over a finite direct category, with the degreewise
exact structure: homs, kernels/cokernels, pointwise Kan extensions, covers,
envelopes and one-step Ext.

A Diagram holds one Module per object and one matrix per non-identity
morphism (identities are implicit).  All block decompositions run over
`shape.objects` order and sorted hom-sets, so constructions are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Algebra
from .cats import (
    CatFunctor,
    DirectCategory,
    SlicePresentation,
    analyze_components,
    opposite_category,
    opposite_functor,
    same_category,
    slice_category,
)
from .field import DerlabError, FieldError, Mat, block, block_diag, check_keys, column_space_basis, hstack, kernel_basis, kron, matrix_from_entries, product_defect, rank, rref, solve_by_pivots, vstack
from .modules import (
    Conflation,
    Module,
    ModuleError,
    ModuleMap,
    class_reps,
    compose,
    direct_sum,
    dual_module,
    free_module,
    generator_legs,
    hom_equations,
    joint_section,
    module_key,
    quotient_module,
    radical_layer,
    section_shares,
    solve_in_basis,
    submodule,
    sum_module,
    zero_module,
)


class DiagramError(DerlabError, ValueError):
    pass


class Diagram:
    """A diagram is a value: nothing changes its modules or matrices once
    it is built.  So what depends only on its content may be computed once
    and kept by content (by_content)."""

    __slots__ = ("shape", "alg", "modules", "mats")

    def __init__(self, shape: DirectCategory, alg: Algebra, modules: Dict[str, Module], mats: Dict[str, Mat]) -> None:
        self.shape = shape
        self.alg = alg
        self.modules = dict(modules)
        self.mats = dict(mats)
        for o in shape.objects:
            if o not in self.modules:
                raise DiagramError(f"diagram misses object {o}")
        for f in shape.nonidentity_morphisms():
            if f not in self.mats:
                raise DiagramError(f"diagram misses morphism {f}")
            m = self.mats[f]
            s, t = shape.src(f), shape.tgt(f)
            if m.a.shape != (self.modules[t].dim, self.modules[s].dim):
                raise DiagramError(f"matrix for {f} has shape {m.rows}x{m.cols}")
            if m.p != alg.p:
                raise FieldError(f"mixed moduli {m.p} and {alg.p}")

    def at(self, o: str) -> Module:
        return self.modules[o]

    def mat(self, f: str) -> Mat:
        if self.shape.is_identity(f):
            o = self.shape.src(f)
            return Mat.identity(self.alg.p, self.modules[o].dim)
        return self.mats[f]

    def map_for(self, f: str) -> ModuleMap:
        return ModuleMap(self.modules[self.shape.src(f)], self.modules[self.shape.tgt(f)], self.mat(f))

    def total_dim(self) -> int:
        return sum(m.dim for m in self.modules.values())

    def validate(self) -> "Diagram":
        for o in self.shape.objects:
            self.modules[o].validate()
        for f in self.shape.nonidentity_morphisms():
            self.map_for(f).validate()
        self._check_composites()
        return self

    def is_functorial(self) -> bool:
        try:
            self._check_composites()
        except (KeyError, ValueError):
            return False
        return True

    def _check_composites(self) -> None:
        """x(g) x(f) = x(g f) over the composition table, bar the pairs with
        an identity factor: mat builds x(1) itself, so those always hold."""
        p, mats = self.alg.p, self.mats
        for g, f, h in self.shape.composites:
            if product_defect(p, (mats[g].a, mats[f].a), c=mats[h].a):
                raise DiagramError(f"functoriality fails on ({g}, {f})")

    def __repr__(self) -> str:
        dims = {o: self.modules[o].dim for o in self.shape.objects}
        return f"Diagram({dims})"


def diagram_key(x: Diagram) -> tuple:
    """The content of x as a memo key: its shape (by identity), then the
    module_key of each object and the bytes of every structure matrix."""
    return (
        x.shape,
        tuple(module_key(x.modules[o]) for o in x.shape.objects),
        b"".join([x.mats[f].a.tobytes() for f in x.shape.nonidentity_morphisms()]),
    )


def by_content(name: str, x: Diagram, build: Callable[[], object], *extra):
    """build(), kept under (*extra, diagram_key(x)) by x's algebra
    (Algebra.kept)."""
    return x.alg.kept(name, (*extra, diagram_key(x)), x.total_dim(), build)


class DiagramMap:
    """A map of diagrams by its components.  A cokernel projection and the
    legs of a pushout carry a section per object (ModuleMap.section), which
    at(o) hands on; sections is None elsewhere."""

    __slots__ = ("src", "tgt", "comps", "sections")

    def __init__(self, src: Diagram, tgt: Diagram, comps: Dict[str, Mat], sections: Optional[Dict[str, np.ndarray]] = None) -> None:
        self.src = src
        self.tgt = tgt
        self.comps = dict(comps)
        self.sections = sections
        for o in src.shape.objects:
            c = self.comps[o]
            if c.a.shape != (tgt.at(o).dim, src.at(o).dim):
                raise DiagramError(f"component at {o} has shape {c.rows}x{c.cols}")
            if c.p != src.alg.p:
                raise FieldError(f"mixed moduli {c.p} and {src.alg.p}")

    def at(self, o: str) -> ModuleMap:
        return ModuleMap(self.src.at(o), self.tgt.at(o), self.comps[o], None if self.sections is None else self.sections[o])

    def validate(self) -> "DiagramMap":
        for o in self.src.shape.objects:
            self.at(o).validate()
        for f in self.src.shape.nonidentity_morphisms():
            s, t = self.src.shape.src(f), self.src.shape.tgt(f)
            if product_defect(self.src.alg.p, (self.comps[t].a, self.src.mats[f].a), c=self.tgt.mats[f].a @ self.comps[s].a):
                raise DiagramError(f"naturality fails at {f}")
        return self

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps.values())

    def __add__(self, other: "DiagramMap") -> "DiagramMap":
        return DiagramMap(self.src, self.tgt, {o: self.comps[o] + other.comps[o] for o in self.comps})

    def __sub__(self, other: "DiagramMap") -> "DiagramMap":
        return DiagramMap(self.src, self.tgt, {o: self.comps[o] - other.comps[o] for o in self.comps})

    def scale(self, c: int) -> "DiagramMap":
        return DiagramMap(self.src, self.tgt, {o: m.scale(c) for o, m in self.comps.items()})

    def __repr__(self) -> str:
        return f"DiagramMap({ {o: (c.rows, c.cols) for o, c in self.comps.items()} })"


def compose_diagram_maps(g: DiagramMap, f: DiagramMap) -> DiagramMap:
    return DiagramMap(f.src, g.tgt, {o: g.comps[o] @ f.comps[o] for o in f.comps})


def identity_diagram_map(x: Diagram) -> DiagramMap:
    return DiagramMap(x, x, {o: Mat.identity(x.alg.p, x.at(o).dim) for o in x.shape.objects})


def zero_diagram_map(x: Diagram, y: Diagram) -> DiagramMap:
    return DiagramMap(x, y, {o: Mat.zeros(x.alg.p, y.at(o).dim, x.at(o).dim) for o in x.shape.objects})


@dataclass
class DiagramConflation:
    left: DiagramMap
    right: DiagramMap

    @property
    def sub(self) -> Diagram:
        return self.left.src

    @property
    def middle(self) -> Diagram:
        return self.left.tgt

    @property
    def quot(self) -> Diagram:
        return self.right.tgt

    def validate(self) -> "DiagramConflation":
        self.left.validate()
        self.right.validate()
        for o in self.middle.shape.objects:
            Conflation(self.left.at(o), self.right.at(o)).validate()
        return self


# -- buildingblocks ----------------------------------------------------------


def zero_diagram(shape: DirectCategory, alg: Algebra) -> Diagram:
    return constant_diagram(shape, alg, zero_module(alg))


def stalk_diagram(shape: DirectCategory, alg: Algebra, j: str, m: Module) -> Diagram:
    z = zero_module(alg)
    modules = {o: (m if o == j else z) for o in shape.objects}
    mats = {}
    for f in shape.nonidentity_morphisms():
        s, t = shape.src(f), shape.tgt(f)
        mats[f] = Mat.zeros(alg.p, modules[t].dim, modules[s].dim)
    return Diagram(shape, alg, modules, mats)


def constant_diagram(shape: DirectCategory, alg: Algebra, m: Module) -> Diagram:
    mats = {f: Mat.identity(alg.p, m.dim) for f in shape.nonidentity_morphisms()}
    return Diagram(shape, alg, {o: m for o in shape.objects}, mats)


def block_sum_diagram(xs: Sequence[Diagram]) -> Diagram:
    """The direct sum of the diagrams, their blocks in the given order."""
    shape, alg, p = xs[0].shape, xs[0].alg, xs[0].alg.p
    if any(x.alg is not alg for x in xs):
        raise DiagramError("a direct sum of diagrams requires a shared algebra instance")
    modules = {o: sum_module([x.at(o) for x in xs]) for o in shape.objects}
    return Diagram(shape, alg, modules, {f: block_diag(p, [x.mat(f) for x in xs]) for f in shape.nonidentity_morphisms()})


def direct_sum_diagrams(xs: Sequence[Diagram]) -> Tuple[Diagram, List[DiagramMap], List[DiagramMap]]:
    xs = list(xs)
    if not xs:
        raise DiagramError("empty direct sum needs a shape; use zero_diagram")
    total = block_sum_diagram(xs)
    objs = total.shape.objects
    eyes = {o: Mat.identity(total.alg.p, total.at(o).dim) for o in objs}
    offsets = {o: list(accumulate([0] + [x.at(o).dim for x in xs])) for o in objs}
    injections = [
        DiagramMap(x, total, {o: eyes[o][:, offsets[o][k] : offsets[o][k + 1]] for o in objs}) for k, x in enumerate(xs)
    ]
    projections = [DiagramMap(total, x, {o: c.T for o, c in inj.comps.items()}) for x, inj in zip(xs, injections)]
    return total, injections, projections


def free_copies(shape: DirectCategory, parts: Sequence[Tuple[str, int]]) -> Dict[str, List[Tuple[int, str, int]]]:
    """At each object a, the copies that make up the value at a of the free
    diagram on parts [(j_k, dim_k)]: (k, f, offset) for each k and each
    f: j_k -> a, ordered by k and then by shape.hom(j_k, a), where offset
    is the copy's first coordinate."""
    out = {}
    for a in shape.objects:
        out[a], off = [], 0
        for k, (j, d) in enumerate(parts):
            for f in shape.hom(j, a):
                out[a].append((k, f, off))
                off += d
    return out


def free_name(shape: DirectCategory, parts: Sequence[Tuple[str, Module]]) -> Tuple[tuple, int]:
    """(key, size) of the free diagram on parts: the shape by identity and
    (j_k, module_key(m_k)) of each part, and the parts' total dim."""
    return (shape, tuple((j, module_key(m)) for j, m in parts)), sum(m.dim for _, m in parts)


def free_diagram(shape: DirectCategory, alg: Algebra, parts: Sequence[Tuple[str, Module]]) -> Diagram:
    """(+)_k (j_k)_!(m_k) for parts [(j_k, m_k)], in one pass.  The value at
    a holds one copy of m_k per morphism f: j_k -> a, ordered by k and then
    by shape.hom(j_k, a) (free_copies); a structure map h: a -> b relabels
    the copy f as the copy h o f.  So it equals the direct sum of the free
    diagrams left_kan_from_point(shape, alg, j_k, m_k), block for block.

    Kept per algebra by its name (free_name), sized by the parts' total
    dim: the name of a free diagram recurs far more often than the content
    of the diagrams around it."""
    key, size = free_name(shape, parts)
    return alg.kept("free_diagram", key, size, lambda: _free_diagram(shape, alg, parts))


def _free_diagram(shape: DirectCategory, alg: Algebra, parts: Sequence[Tuple[str, Module]]) -> Diagram:
    p = alg.p
    copies = {a: [(k, f) for k, f, _ in cs] for a, cs in free_copies(shape, [(j, m.dim) for j, m in parts]).items()}
    dims = {a: [parts[k][1].dim for k, _ in copies[a]] for a in shape.objects}
    modules = {
        a: Module(alg, [block_diag(p, [parts[k][1].action[e] for k, _ in copies[a]]) for e in range(alg.dim)]) for a in shape.objects
    }
    mats = {}
    for h in shape.nonidentity_morphisms():
        a, b = shape.src(h), shape.tgt(h)
        mats[h] = relabelling(p, copies[a], dims[a], copies[b], dims[b], lambda kf: (kf[0], shape.compose(h, kf[1])))
    return Diagram(shape, alg, modules, mats)


def relabelling(p: int, src_labels: Sequence, src_dims: Sequence[int], tgt_labels: Sequence, tgt_dims: Sequence[int], to_tgt) -> Mat:
    """The 0/1 matrix from blocks labelled src_labels (of sizes src_dims)
    to blocks labelled tgt_labels (of sizes tgt_dims) that carries each
    source block by the identity onto the target block labelled
    to_tgt(its label)."""
    offsets = dict(zip(tgt_labels, accumulate([0] + list(tgt_dims))))
    rows, cols = [], []
    for label, col, d in zip(src_labels, accumulate([0] + list(src_dims)), src_dims):
        row = offsets[to_tgt(label)]
        rows.extend(range(row, row + d))
        cols.extend(range(col, col + d))
    out = np.zeros((sum(tgt_dims), sum(src_dims)), dtype=np.int64)
    out[rows, cols] = 1
    return Mat._of(p, out)


def left_kan_from_point(shape: DirectCategory, alg: Algebra, j: str, m: Module) -> Diagram:
    """The free diagram on m at j: value at a is one copy of m per morphism
    j -> a, structure maps relabel copies by composition."""
    return free_diagram(shape, alg, [(j, m)])


def right_kan_from_point(shape: DirectCategory, alg: Algebra, j: str, m: Module) -> Diagram:
    """Value at a is one copy of m per morphism a -> j: the dual of the free
    diagram on D(m) at j over the opposite shape."""
    return dual_diagram(left_kan_from_point(opposite_category(shape), alg.opposite(), j, dual_module(m)))


def restrict(u: CatFunctor, y: Diagram) -> Diagram:
    """(u^* y)_i = y_{u(i)}."""
    if not same_category(y.shape, u.cod):
        raise DiagramError("restriction functor does not match the diagram shape")
    shape = u.dom
    modules = {i: y.at(u.on_obj(i)) for i in shape.objects}
    mats = {}
    for f in shape.nonidentity_morphisms():
        mats[f] = y.mat(u.on_mor(f))
    return Diagram(shape, y.alg, modules, mats)


def restrict_map(u: CatFunctor, phi: DiagramMap) -> DiagramMap:
    return DiagramMap(restrict(u, phi.src), restrict(u, phi.tgt), {i: phi.comps[u.on_obj(i)] for i in u.dom.objects})


# -- homs --------------------------------------------------------------------


def hom_space_diagrams(x: Diagram, y: Diagram) -> List[DiagramMap]:
    """Canonical basis of Hom_{F^I}(x, y), the end of Hom(x_i, y_i): the
    kernel of hom_equations(x_o, y_o) per object o and vec(comp_b x(f)) -
    vec(y(f) comp_a) per f: a -> b, leaving out blocks of size zero."""
    if not same_category(x.shape, y.shape):
        raise DiagramError("hom of diagrams over different shapes")
    if x.alg is not y.alg:
        raise DiagramError("hom of diagrams over different algebras")
    p = x.alg.p
    objs = x.shape.objects
    size = {o: y.at(o).dim * x.at(o).dim for o in objs}
    if not any(size.values()):
        return []
    grid, row_dims = [], []
    for o in objs:
        if size[o]:
            eqs = hom_equations(x.at(o), y.at(o))
            grid.append([eqs if i == o else None for i in objs])
            row_dims.append(eqs.rows)
    for f in x.shape.nonidentity_morphisms():
        a, b = x.shape.src(f), x.shape.tgt(f)
        sa, tb = x.at(a).dim, y.at(b).dim
        if tb * sa == 0:
            continue
        row = {}
        if size[b]:
            row[b] = kron(Mat.identity(p, tb), x.mat(f).T)
        if size[a]:
            row[a] = -kron(y.mat(f), Mat.identity(p, sa))
        grid.append([row.get(i) for i in objs])
        row_dims.append(tb * sa)
    sizes = [size[o] for o in objs]
    basis = kernel_basis(block(p, grid, row_dims, sizes))
    offsets = list(accumulate([0] + sizes))
    return [
        DiagramMap(x, y, {o: Mat._of(p, basis.a[offsets[c] : offsets[c + 1], j].reshape(y.at(o).dim, x.at(o).dim)) for c, o in enumerate(objs)})
        for j in range(basis.cols)
    ]


def vec_diagram_map(phi: DiagramMap) -> Mat:
    parts = [phi.comps[o].reshape(-1, 1) for o in phi.src.shape.objects]
    return vstack(parts) if parts else Mat.zeros(phi.src.alg.p, 0, 1)


def solve_in_hom(x: Diagram, y: Diagram, constraints: List[Tuple[DiagramMap, DiagramMap, DiagramMap]]) -> Optional[DiagramMap]:
    """Find phi in Hom(x, y) with post @ phi @ pre = rhs for each constraint.

    Each constraint is (pre: w -> x, post: y -> z, rhs: w -> z).  Linear in
    the hom-space coordinates of phi.
    """
    basis = hom_space_diagrams(x, y)

    def stacked(maps) -> Mat:
        return vstack([Mat.zeros(x.alg.p, 0, 1)] + [vec_diagram_map(m) for m in maps])

    images = [
        stacked(compose_diagram_maps(post, compose_diagram_maps(b, pre)) for pre, post, _ in constraints) for b in basis
    ]
    rhs = stacked(rhs_map for _, _, rhs_map in constraints)
    return solve_in_basis(basis, images, rhs, zero_diagram_map(x, y))


# -- kernels, cokernels, (co)limits ------------------------------------------


def kernel_diagram(phi: DiagramMap) -> Tuple[Diagram, DiagramMap]:
    """The kernel of phi, object by object.  A structure map f: a -> b is
    read off the pivot rows of the inclusion at b: (x(f) incl_a)[pivots_b],
    certified by one product (solve_by_pivots)."""
    shape, alg = phi.src.shape, phi.src.alg
    kmods: Dict[str, Module] = {}
    incls: Dict[str, ModuleMap] = {}
    for o in shape.objects:
        kmods[o], incls[o] = submodule(phi.src.at(o), kernel_basis(phi.comps[o]))
    mats = {}
    for f in shape.nonidentity_morphisms():
        a, b = shape.src(f), shape.tgt(f)
        coords = solve_by_pivots(incls[b].mat, incls[b].pivots, phi.src.mats[f] @ incls[a].mat)
        if coords is None:
            raise DiagramError("kernel is not preserved by the structure maps")
        mats[f] = coords
    ker = Diagram(shape, alg, kmods, mats)
    return ker, DiagramMap(ker, phi.src, {o: incls[o].mat for o in shape.objects})


def cokernel_diagram(phi: DiagramMap) -> Tuple[Diagram, DiagramMap]:
    """The cokernel of phi, object by object, its projection carrying its
    sections.  A structure map f: a -> b is read off the section of the
    projection at a: (proj_b x(f))[:, section_a] (factor_by_section)."""
    shape, alg = phi.src.shape, phi.src.alg
    qmods: Dict[str, Module] = {}
    projs: Dict[str, ModuleMap] = {}
    for o in shape.objects:
        qmods[o], projs[o] = quotient_module(phi.tgt.at(o), phi.comps[o])
    mats = {}
    for f in shape.nonidentity_morphisms():
        a, b = shape.src(f), shape.tgt(f)
        mats[f] = factor_by_section(projs[b].mat @ phi.tgt.mats[f], projs[a].mat, projs[a].section)
    quot = Diagram(shape, alg, qmods, mats)
    return quot, DiagramMap(phi.tgt, quot, {o: projs[o].mat for o in shape.objects}, {o: projs[o].section for o in shape.objects})


def factor_by_section(t: Mat, sigma: Mat, section: np.ndarray) -> Mat:
    """phi with phi @ sigma = t for a sigma that is the identity on its
    columns section, as a quotient projection is on its non-pivot ones:
    phi = t[:, section], certified by one product (the transpose of
    field.solve_by_pivots).  sigma is onto, so phi is the only solution,
    and a t that does not factor is a DiagramError."""
    phi = t.a[:, section]
    if product_defect(t.p, (phi, sigma.a), c=t.a):
        raise DiagramError("map does not factor through the surjection")
    return Mat._of(t.p, phi)


def colimit_of_diagram(x: Diagram) -> Tuple[Module, Dict[str, ModuleMap]]:
    """Pointwise colimit: coker of the standard difference map, plus the
    cocone, whose legs carry their shares of the projection's section."""
    shape, alg = x.shape, x.alg
    p = alg.p
    objs = shape.objects
    sum_mod, injs, _ = direct_sum([x.at(o) for o in objs]) if objs else (zero_module(alg), [], [])
    inj_of = dict(zip(objs, injs))
    cols = []
    for f in shape.nonidentity_morphisms():
        a, b = shape.src(f), shape.tgt(f)
        cols.append(inj_of[b].mat @ x.mat(f) - inj_of[a].mat)
    span = hstack(cols) if cols else Mat.zeros(p, sum_mod.dim, 0)
    colim, proj = quotient_module(sum_mod, span)
    dims = [x.at(o).dim for o in objs]
    offsets = accumulate([0] + dims)
    shares = section_shares(proj.section, dims)
    cocone = {o: ModuleMap(x.at(o), colim, proj.mat[:, off : off + d], share) for o, off, d, share in zip(objs, offsets, dims, shares)}
    return colim, cocone


def limit_of_diagram(x: Diagram) -> Tuple[Module, Dict[str, ModuleMap]]:
    shape, alg = x.shape, x.alg
    p = alg.p
    objs = shape.objects
    sum_mod, _, projs = direct_sum([x.at(o) for o in objs]) if objs else (zero_module(alg), [], [])
    proj_of = dict(zip(objs, projs))
    rows = []
    for f in shape.nonidentity_morphisms():
        a, b = shape.src(f), shape.tgt(f)
        rows.append(x.mat(f) @ proj_of[a].mat - proj_of[b].mat)
    mat = vstack(rows) if rows else Mat.zeros(p, 0, sum_mod.dim)
    lim, incl = submodule(sum_mod, kernel_basis(mat))
    cone = {o: compose(proj_of[o], incl) for o in objs}
    return lim, cone


def pushout_diagrams(f: DiagramMap, g: DiagramMap) -> Tuple[Diagram, DiagramMap, DiagramMap]:
    """Pushout of x <-f- z -g-> y in the diagram category: at each object
    the cokernel of (f, -g) on x_o (+) y_o.  A structure map h: a -> b is
    read off the section of the projection at a, blockwise, building no
    block-sum diagram: (proj_b (x(h) (+) y(h)))[:, section_a]
    (factor_by_section).  The legs are the projection's two column blocks,
    each carrying its share of the section."""
    if f.src is not g.src:
        raise DiagramError("pushout needs a shared source diagram")
    x, y = f.tgt, g.tgt
    if x.alg is not y.alg:
        raise DiagramError("a direct sum of diagrams requires a shared algebra instance")
    shape, p = x.shape, x.alg.p
    mods, projs, sections = {}, {}, {}
    for o in shape.objects:
        span = Mat._of(p, np.concatenate([f.comps[o].a, -g.comps[o].a % p]))
        mods[o], proj = quotient_module(sum_module([x.at(o), y.at(o)]), span)
        projs[o], sections[o] = proj.mat, proj.section
    dims = {o: x.at(o).dim for o in shape.objects}
    mats = {}
    for h in shape.nonidentity_morphisms():
        a, b = shape.src(h), shape.tgt(h)
        proj, d = projs[b].a, dims[b]
        moved = np.concatenate([proj[:, :d] @ x.mats[h].a, proj[:, d:] @ y.mats[h].a], axis=1) % p
        mats[h] = factor_by_section(Mat._of(p, moved), projs[a], sections[a])
    po = Diagram(shape, x.alg, mods, mats)
    shares = {o: section_shares(sections[o], [dims[o], y.at(o).dim]) for o in shape.objects}
    return (
        po,
        DiagramMap(x, po, {o: c[:, : dims[o]] for o, c in projs.items()}, {o: s[0] for o, s in shares.items()}),
        DiagramMap(y, po, {o: c[:, dims[o] :] for o, c in projs.items()}, {o: s[1] for o, s in shares.items()}),
    )


# -- covers and envelopes ------------------------------------------------------


def free_generators(x: Diagram, j: str) -> List[int]:
    """The i whose e_i are a basis of x_j modulo its radical layer and its
    latching image (the images of the arrows into j), taken greedily as by
    class_reps.  A projective x over a local algebra is the free diagram
    on them (Hovey, Model Categories, 5.1-5.2)."""
    m, p = x.at(j), x.alg.p
    if not m.dim:
        return []
    spans = [x.mat(f) for f in x.shape.nonidentity_morphisms() if x.shape.tgt(f) == j]
    if x.alg.radical is not None:
        spans.append(radical_layer(m))
    sub = sum(s.cols for s in spans)
    return [c - sub for c in rref(hstack(spans + [Mat.identity(p, m.dim)]))[2] if c >= sub]


def free_legs_at(x: Diagram, j: str, legs: Sequence[Mat], o: str) -> Mat:
    """At o, the map j_!(P^n) -> x adjunct to n legs P -> x_j: the copy
    of P^n for f: j -> o goes to x_o by x(f) o legs."""
    return hstack([Mat.zeros(x.alg.p, x.at(o).dim, 0)] + [x.mat(f) @ leg for f in x.shape.hom(j, o) for leg in legs])


def projective_cover_diagram(x: Diagram) -> DiagramConflation:
    """Deflation  (+)_j j_!(free cover of x_j) ->> x, with the syzygy diagram
    as kernel.  At o, the copy of the cover P_j ->> x_j for f: j -> o maps
    to x_o through x(f): the counits of the free diagrams side by side.

    Built once per content of x and algebra (by_content): the memo keeps
    K >-> P and the components of the deflation, and each call wraps the
    components as a map onto its own x."""
    incl, comps = by_content("projective_cover_diagram", x, lambda: _cover(x))
    return DiagramConflation(incl, DiagramMap(incl.tgt, x, comps))


def _cover(x: Diagram) -> Tuple[DiagramMap, Dict[str, Mat]]:
    """(K >-> P, the components of P ->> x) for projective_cover_diagram."""
    shape, alg = x.shape, x.alg
    legs = {j: generator_legs(x.at(j)) for j in shape.objects}
    middle = free_diagram(shape, alg, [(j, free_module(alg, len(legs[j]))) for j in shape.objects])
    comps = {o: hstack([free_legs_at(x, j, legs[j], o) for j in shape.objects]) for o in shape.objects}
    return kernel_diagram(DiagramMap(middle, x, comps))[1], comps


def dual_conflation(c: DiagramConflation, sub: Optional[Diagram] = None) -> DiagramConflation:
    """D(c):  D(quot) >--> D(middle) -->> D(sub), the legs dualized and
    swapped.  A given sub stands in for D(c.quot), so a caller keeps its own
    object as the source of the inflation."""
    sub = sub if sub is not None else dual_diagram(c.quot)
    middle, quot = dual_diagram(c.middle), dual_diagram(c.sub)
    infl = DiagramMap(sub, middle, {o: m.T for o, m in c.right.comps.items()})
    return DiagramConflation(infl, DiagramMap(middle, quot, {o: m.T for o, m in c.left.comps.items()}))


def injective_embed_diagram(x: Diagram) -> DiagramConflation:
    """Inflation  x >--> (+)_j j_*(injective envelope of x_j): the dual of the
    projective cover of D(x)."""
    return dual_conflation(projective_cover_diagram(dual_diagram(x)), x)


# -- Ext^1 ---------------------------------------------------------------------


@dataclass
class Ext1Result:
    dim: int
    reps: List[DiagramMap]        # maps K -> y representing a basis of classes
    cover: DiagramConflation      # K >-> P ->> x


def ext1(x: Diagram, y: Diagram) -> Ext1Result:
    """Ext^1(x, y) from one projective presentation K >-> P ->> x:
    coker( Hom(P, y) -> Hom(K, y) ).  The image of Hom(P, y) comes from the
    adjunction (_free_image); Hom(P, y) itself is never solved for."""
    cover = projective_cover_diagram(x)
    from_k = hom_space_diagrams(cover.sub, y)
    if not from_k:
        return Ext1Result(0, [], cover)
    slots = {j: len(generator_legs(x.at(j))) for j in x.shape.objects}
    sub = column_space_basis(Mat._of(x.alg.p, _free_image(cover, slots, y).T))
    dim = len(from_k) - sub.cols
    # representatives: greedy completion of the image to all of Hom(K, y)
    reps = class_reps(from_k, vec_diagram_map, sub)
    if len(reps) != dim:
        raise DiagramError(f"Ext^1 has dimension {dim} but {len(reps)} class representatives")
    return Ext1Result(dim, reps, cover)


def _free_image(cover: DiagramConflation, slots: Dict[str, int], y: Diagram) -> np.ndarray:
    """Rows spanning the image of Hom(P, y) in Hom(K, y), for the cover
    K >-> P of the free diagram P on slots[j] copies of Lambda at each j.

    By the adjunction Hom(j_!(M), y) = Hom(M, y_j), a basis of Hom(P, y)
    is one phi per (j, slot s, basis vector v of y_j): on the copy
    (j, f: j -> a) of Lambda^slots[j], phi is y(f) o (lambda |-> v . lambda)
    on slot s and zero on the other slots and copies.  Each row is
    vec(phi o incl), built for all (s, v) of a part at once."""
    shape, p, d = y.shape, y.alg.p, y.alg.dim
    middle, sub, incl = cover.middle, cover.sub, cover.left.comps
    sizes = [slots[j] * d for j in shape.objects]
    copies = free_copies(shape, list(zip(shape.objects, sizes)))
    if any(sum(sizes[k] for k, _, _ in copies[o]) != middle.at(o).dim for o in shape.objects):
        raise DiagramError("the cover's middle is not the free diagram on the generator slots")
    rows = [np.zeros((0, sum(y.at(o).dim * sub.at(o).dim for o in shape.objects)), dtype=np.int64)]
    for k, j in enumerate(shape.objects):
        n, m = slots[j], y.at(j).dim
        if n * m == 0:
            continue
        # legs[v] = [A_0 v, ..., A_{d-1} v], the matrix of lambda |-> v . lambda
        legs = np.array([a.a for a in y.at(j).action]).transpose(2, 1, 0)
        blocks = []
        for o in shape.objects:
            out = np.zeros((n, m, y.at(o).dim, sub.at(o).dim), dtype=np.int64)
            for c, f, off in copies[o]:
                if c == k:
                    moved = y.mat(f).a @ legs % p
                    out += moved[None] @ incl[o].a[off : off + n * d].reshape(n, 1, d, sub.at(o).dim)
            blocks.append(out.reshape(n * m, -1) % p)
        rows.append(np.concatenate(blocks, axis=1))
    return np.concatenate(rows)


# -- pointwise Kan extensions ----------------------------------------------------


def slice_object(pres: SlicePresentation, i: str, f: str) -> str:
    """The object of a slice presentation named by the pair (i, f)."""
    for name, pair in pres.pairs.items():
        if pair == (i, f):
            return name
    raise DiagramError(f"no slice object for the pair ({i}, {f})")


def from_colimit(colim: Module, cocone: Dict[str, ModuleMap], legs: Dict[str, Mat], rows: int) -> Mat:
    """The matrix of the map out of colim whose composite with each cocone
    leg cocone[o] is legs[o]; rows is the dim of the target.  The cocone
    is jointly onto, so the map is unique and the order of the legs does
    not matter.  Legs that do not factor are a DiagramError.

    Every leg carries its share of a section of the cocone, in the order
    the cocone was built (colimit_of_diagram's and colim_gproj_data's
    cocones, the legs of pushout_diagrams), so the map is read off that
    section (factor_by_section)."""
    if not cocone:
        return Mat.zeros(colim.alg.p, rows, colim.dim)
    t = hstack([legs[o] for o in cocone])
    sigma = hstack([c.mat for c in cocone.values()])
    return factor_by_section(t, sigma, joint_section(list(cocone.values())))


def left_kan_by_slices(
    u: CatFunctor, x: Diagram, colimit: Callable[[Diagram], Tuple[Module, Dict[str, ModuleMap]]]
) -> Tuple[Diagram, Dict[str, SlicePresentation], Dict[str, Dict[str, ModuleMap]]]:
    """(u_! x, the slices u/j, the cocones): at j the colimit of x over u/j,
    taken by `colimit`.  alpha: j -> j2 sends the pair (i, f) to
    (i, alpha o f), and the structure map is the map out of the colimit at
    j that the cocone at j2 gives along that relabelling (from_colimit)."""
    J = u.cod
    slices = {j: slice_category(u, j, "under") for j in J.objects}
    colims = {j: colimit(restrict(pres.projection, x)) for j, pres in slices.items()}
    mats = {}
    for alpha in J.nonidentity_morphisms():
        j, j2 = J.src(alpha), J.tgt(alpha)
        (L2, cocone2), pres2 = colims[j2], slices[j2]
        legs = {o: cocone2[slice_object(pres2, i, J.compose(alpha, f))].mat for o, (i, f) in slices[j].pairs.items()}
        mats[alpha] = from_colimit(*colims[j], legs, L2.dim)
    modules = {j: L for j, (L, _) in colims.items()}
    return Diagram(J, x.alg, modules, mats), slices, {j: cocone for j, (_, cocone) in colims.items()}


def pointwise_left_kan(u: CatFunctor, x: Diagram) -> Diagram:
    """Pointwise colimits over the slices u/j (left_kan_by_slices), each
    certified by the terminal-component coproduct formula where it applies."""
    return left_kan_by_slices(u, x, _certified_colimit)[0]


def _certified_colimit(rest: Diagram) -> Tuple[Module, Dict[str, ModuleMap]]:
    """colimit_of_diagram, certified over a shape whose components all have
    a terminal object: the legs at those objects form an isomorphism."""
    colim, cocone = colimit_of_diagram(rest)
    comps = analyze_components(rest.shape)
    if not comps and colim.dim != 0:
        raise DiagramError("empty slice with nonzero colimit")
    if comps and all(c.terminal for c in comps):
        cmp = hstack([cocone[c.terminal].mat for c in comps])
        if cmp.rows != cmp.cols or rank(cmp) != cmp.rows:
            raise DiagramError("terminal-component coproduct formula failed certification")
    return colim, cocone


def pointwise_right_kan(u: CatFunctor, y: Diagram) -> Diagram:
    """Pointwise limits over the slices j/u: the dual of the pointwise left
    Kan extension of D(y) along the opposite functor."""
    return dual_diagram(pointwise_left_kan(opposite_functor(u), dual_diagram(y)))


# -- duality -----------------------------------------------------------------


def dual_diagram(x: Diagram) -> Diagram:
    """Linear dual over the opposite algebra and opposite shape (involutive)."""
    op_shape = opposite_category(x.shape)
    modules = {o: dual_module(x.at(o)) for o in x.shape.objects}
    mats = {f: x.mats[f].T for f in x.shape.nonidentity_morphisms()}
    return Diagram(op_shape, x.alg.opposite(), modules, mats)


# -- io ------------------------------------------------------------------------


def _parse_module(alg: Algebra, data: dict) -> Module:
    """The module a document gives, its module law not yet checked; a
    malformed document is a DiagramError."""
    try:
        check_keys(data, ("dim", "action"))
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise TypeError(f"dim {dim!r} is not a non-negative integer")
        if not isinstance(data["action"], list):
            raise TypeError("action is not a list of matrices")
        return Module(alg, [matrix_from_entries(alg.p, a, dim, dim) for a in data["action"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DiagramError(f"malformed module document: {exc}") from exc


def diagram_from_dict(shape: DirectCategory, alg: Algebra, data: dict) -> Diagram:
    try:
        check_keys(data, ("shape", "objects", "morphisms"))
        objects, morphisms = data["objects"], data.get("morphisms", {})
        check_keys(objects, shape.objects)
        check_keys(morphisms, shape.nonidentity_morphisms())
        # parsed unchecked: Diagram.validate checks each module law once
        modules = {o: _parse_module(alg, objects[o]) for o in shape.objects}
        mats = {}
        for f in shape.nonidentity_morphisms():
            rows, cols = modules[shape.tgt(f)].dim, modules[shape.src(f)].dim
            mats[f] = matrix_from_entries(alg.p, morphisms[f], rows, cols) if f in morphisms else Mat.zeros(alg.p, rows, cols)
    except (DiagramError, ModuleError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DiagramError(f"malformed diagram document: {exc}") from exc
    return Diagram(shape, alg, modules, mats).validate()
