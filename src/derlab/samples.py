"""Exhaustive enumerators and seeded random generators for desk-scale
fixtures: all small modules and diagrams over a shape, random direct
categories (free on acyclic graphs), random weights, and Gorenstein
projectives produced by syzygy iteration."""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Algebra, ground_field
from .cats import CatFunctor, DirectCategory
from .field import DerlabError, Mat
from .modules import Module, combine, free_module, hom_space, zero_module
from .diagrams import Diagram, projective_cover_diagram
from .gorenstein import is_gproj


_CHUNK = 4096  # candidates whose module axioms all_modules checks at once


def all_modules(alg: Algebra, max_dim: int) -> List[Module]:
    """Every module structure on F_p^d for d <= max_dim, by brute force over
    action tuples (unit acts as identity, module law holds), in the order of
    itertools.product over the entries.

    When the unit is a standard basis vector its action matrix is forced to
    the identity, which cuts the enumeration by a factor of p^(d^2).  The
    axioms of Module.validate are checked on a chunk of candidates at once."""
    out = [zero_module(alg)]
    p = alg.p
    unit_idx = None
    nz = np.nonzero(alg.unit)[0]
    if len(nz) == 1 and alg.unit[nz[0]] == 1:
        unit_idx = int(nz[0])
    free = [k for k in range(alg.dim) if k != unit_idx]
    for d in range(1, max_dim + 1):
        mats = _digits(np.arange(p ** (d * d)), p, d * d).reshape(-1, d, d)
        total = len(mats) ** len(free)
        for start in range(0, total, _CHUNK):
            combos = _digits(np.arange(start, min(start + _CHUNK, total)), len(mats), len(free))
            acts = np.broadcast_to(np.eye(d, dtype=np.int64), (len(combos), alg.dim, d, d)).copy()
            acts[:, free] = mats[combos]
            for action in acts[_module_axioms_hold(alg, acts)]:
                out.append(Module(alg, [Mat(p, a) for a in action]))
    return out


def _digits(n: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each n, most significant first: row i is the
    i-th tuple of itertools.product(range(base), repeat=width)."""
    return n[:, None] // base ** np.arange(width - 1, -1, -1, dtype=np.int64) % base


def _module_axioms_hold(alg: Algebra, acts: np.ndarray) -> np.ndarray:
    """For acts[m] = (A_0 .. A_{n-1}): does the unit act as the identity and
    sum_k c[i][j][k] A_k = A_j @ A_i hold for all i, j?"""
    p, d = alg.p, acts.shape[-1]
    unit = np.einsum("k,mkab->mab", alg.unit, acts) % p
    law = np.einsum("ijk,mkab->mijab", alg.mul, acts) % p
    prods = np.einsum("mjab,mibc->mijac", acts, acts) % p
    return (unit == np.eye(d, dtype=np.int64)).all(axis=(1, 2)) & (law == prods).all(axis=(1, 2, 3, 4))


def all_diagrams(shape: DirectCategory, alg: Algebra, max_dim: int, modules: Optional[List[Module]] = None) -> Iterator[Diagram]:
    """Every diagram over the shape with the given component modules
    (defaults to all modules of dimension <= max_dim), maps ranging over
    full hom spaces, filtered by functoriality."""
    mods = modules if modules is not None else all_modules(alg, max_dim)
    p = alg.p
    gens = shape.nonidentity_morphisms()
    for assignment in itertools.product(mods, repeat=len(shape.objects)):
        by_obj = dict(zip(shape.objects, assignment))
        hom_bases = {}
        for f in gens:
            hom_bases[f] = hom_space(by_obj[shape.src(f)], by_obj[shape.tgt(f)])
        space = [range(p ** len(hom_bases[f])) for f in gens]
        for picks in itertools.product(*space):
            mats = {}
            for f, pick in zip(gens, picks):
                zero = Mat.zeros(p, by_obj[shape.tgt(f)].dim, by_obj[shape.src(f)].dim)
                digits = [pick // p ** i % p for i in range(len(hom_bases[f]))]
                mats[f] = combine(zero, [b.mat for b in hom_bases[f]], digits)
            cand = Diagram(shape, alg, by_obj, mats)
            if cand.is_functorial():
                yield cand


def random_module(alg: Algebra, max_dim: int, rng: random.Random) -> Module:
    """A random module, as a random quotient-of-free restricted to stay small:
    sampled by rejection over action tuples for tiny dims."""
    p = alg.p
    for _ in range(200):
        d = rng.randrange(0, max_dim + 1)
        if d == 0:
            return zero_module(alg)
        action = [Mat(p, [[rng.randrange(p) for _ in range(d)] for _ in range(d)]) for _ in range(alg.dim)]
        cand = Module(alg, action)
        try:
            cand.validate()
            return cand
        except DerlabError:
            continue
    return zero_module(alg)


def random_diagram(shape: DirectCategory, alg: Algebra, max_dim: int, rng: random.Random) -> Diagram:
    """A random functorial diagram; free-ish shapes admit arbitrary maps on
    generators, other shapes go through rejection."""
    p = alg.p
    for _ in range(300):
        by_obj = {o: random_module(alg, max_dim, rng) for o in shape.objects}
        mats = {}
        for f in shape.nonidentity_morphisms():
            basis = hom_space(by_obj[shape.src(f)], by_obj[shape.tgt(f)])
            zero = Mat.zeros(p, by_obj[shape.tgt(f)].dim, by_obj[shape.src(f)].dim)
            mats[f] = combine(zero, [b.mat for b in basis], [rng.randrange(p) for _ in basis])
        cand = Diagram(shape, alg, by_obj, mats)
        if cand.is_functorial():
            return cand
    raise RuntimeError("could not sample a functorial diagram")


def random_gproj(shape: DirectCategory, alg: Algebra, max_dim: int, rng: random.Random) -> Diagram:
    """A Gorenstein-projective diagram: iterated syzygy of a random diagram
    (verified), which the theory bounds by the shape's maximal degree.
    Retries degenerate draws so the result is nonzero when possible."""
    last = None
    for _ in range(20):
        z = random_diagram(shape, alg, max_dim, rng)
        for _ in range(shape.max_degree() + 2):
            if is_gproj(z):
                break
            z = projective_cover_diagram(z).sub
        if not is_gproj(z):
            raise RuntimeError("syzygy iteration failed to reach a Gorenstein projective")
        last = z
        if z.total_dim() > 0:
            return z
    return last


def free_category_on_graph(objects: Sequence[str], edges: Sequence[Tuple[str, str, str]]) -> DirectCategory:
    """The free category on an acyclic graph: morphisms are composable paths,
    named by their edge words; the composition table is concatenation."""
    morphisms: Dict[str, Tuple[str, str]] = {}
    paths: Dict[str, List[str]] = {}
    for name, s, t in edges:
        morphisms[name] = (s, t)
        paths[name] = [name]
    grown = True
    while grown:
        grown = False
        for name, (s, t) in list(morphisms.items()):
            for ename, es, et in edges:
                if es == t:
                    new = name + "." + ename
                    if new not in morphisms:
                        morphisms[new] = (s, et)
                        paths[new] = paths[name] + [ename]
                        grown = True
    comp: Dict[Tuple[str, str], str] = {}
    by_path = {tuple(v): k for k, v in paths.items()}
    for g, (gs, gt) in morphisms.items():
        for f, (fs, ft) in morphisms.items():
            if ft == gs:
                comp[(g, f)] = by_path[tuple(paths[f] + paths[g])]
    return DirectCategory(list(objects), morphisms, comp)


def random_direct_category(rng: random.Random, max_objects: int = 4, max_edges: int = 4) -> DirectCategory:
    """A random free category on a small acyclic graph."""
    n = rng.randrange(1, max_objects + 1)
    objects = [f"o{i}" for i in range(n)]
    edges = []
    tries = rng.randrange(0, max_edges + 1)
    for t in range(tries):
        if n < 2:
            break
        a, b = sorted(rng.sample(range(n), 2))
        edges.append((f"a{t}", objects[a], objects[b]))
    return free_category_on_graph(objects, edges)


def random_functor(rng: random.Random, dom: DirectCategory, cod: DirectCategory) -> Optional[CatFunctor]:
    """A random functor by rejection over object assignments and compatible
    generator images."""
    for _ in range(200):
        obj_map = {o: rng.choice(cod.objects) for o in dom.objects}
        mor_map = {}
        ok = True
        for f in dom.nonidentity_morphisms():
            cands = cod.hom(obj_map[dom.src(f)], obj_map[dom.tgt(f)])
            if not cands:
                ok = False
                break
            mor_map[f] = rng.choice(cands)
        if not ok:
            continue
        try:
            return CatFunctor(dom, cod, obj_map, mor_map)
        except DerlabError:
            continue
    return None


def random_left_module(cat: DirectCategory, p: int, max_dim: int, rng: random.Random) -> Diagram:
    """A random functor to vector spaces, a diagram over ground_field(p);
    exact on free shapes, rejection otherwise."""
    k = ground_field(p)
    for _ in range(300):
        dims = {o: rng.randrange(0, max_dim + 1) for o in cat.objects}
        mats = {}
        for f in cat.nonidentity_morphisms():
            r, c = dims[cat.tgt(f)], dims[cat.src(f)]
            mats[f] = Mat(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)]) if r * c else Mat.zeros(p, r, c)
        cand = Diagram(cat, k, {o: free_module(k, d) for o, d in dims.items()}, mats)
        try:
            return cand.validate()
        except DerlabError:
            continue
    raise RuntimeError("could not sample a left module")
