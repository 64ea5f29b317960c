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


_CHUNK = 4096  # candidates whose module law all_modules checks at once


def all_modules(alg: Algebra, max_dim: int) -> List[Module]:
    """Every module structure on F_p^d for d <= max_dim, by brute force over
    action tuples (unit acts as identity, module law holds), in the order of
    itertools.product over the entries: candidate n of dim d is the base-p
    digits of n, most significant first, read row by row as the action
    matrices in basis order.  When the unit is a standard basis vector its
    matrix is forced to the identity and takes no digits, which cuts the
    enumeration by a factor of p^(d^2).  Each chunk of candidates is read
    off its indices and checked by _law_holds on the pairs of _law_checks,
    in buffers allocated once per d, so memory is bounded by one chunk."""
    out = [zero_module(alg)]
    (unit, checks), p = _law_checks(alg), alg.p
    free = [k for k in range(alg.dim) if k != unit]
    for d in range(1, max_dim + 1):
        width = len(free) * d * d
        place = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
        digits, ok = np.empty((_CHUNK, width), dtype=np.int64), np.empty(_CHUNK, dtype=bool)
        acts = np.broadcast_to(np.eye(d, dtype=np.int64), (_CHUNK, alg.dim, d, d)).copy()
        prod, term = np.empty((2, _CHUNK, d, d), dtype=np.int64)
        for start in range(0, p**width, _CHUNK):
            m = min(_CHUNK, p**width - start)
            np.remainder(np.floor_divide(np.arange(start, start + m)[:, None], place, out=digits[:m]), p, out=digits[:m])
            acts[:m, free] = digits[:m].reshape(m, len(free), d, d)
            holds = _law_holds(p, checks, acts[:m], prod[:m], term[:m], ok[:m])
            out += [Module(alg, [Mat(p, a) for a in acts[r]]) for r in np.flatnonzero(holds)]
    return out


def _law_checks(alg: Algebra) -> Tuple[Optional[int], list]:
    """(u, checks): u = k when the unit is the basis vector e_k, else None;
    a check (pair, terms) asks that A_j @ A_i for pair (i, j), or I for pair
    None (the unit law), equal sum c A_k over terms (k, c).  Every pair and
    the unit law are checked, unless e_u is a two-sided identity of the
    structure constants: with A_u = I those with a factor u then hold."""
    nz, eye = np.flatnonzero(alg.unit), np.eye(alg.dim, dtype=np.int64)
    u = int(nz[0]) if len(nz) == 1 and alg.unit[nz[0]] == 1 else None
    forced = u is not None and np.array_equal(alg.mul[u], eye) and np.array_equal(alg.mul[:, u], eye)
    basis = [k for k in range(alg.dim) if k != u or not forced]
    checks = ([] if forced else [(None, alg.unit)]) + [((i, j), alg.mul[i, j]) for i in basis for j in basis]
    return u, [(pair, [(int(k), int(c[k])) for k in np.flatnonzero(c)]) for pair, c in checks]


def _law_holds(p: int, checks: list, acts: np.ndarray, prod: np.ndarray, term: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """ok[m] = does acts[m] = (A_0 .. A_{n-1}) pass the checks (A_u = I for
    the u of _law_checks)?  One np.matmul per pair and one pass per term,
    written into prod and term, buffers shaped as acts[:, 0]; returns ok."""
    eye = np.eye(acts.shape[-1], dtype=np.int64)
    ok[:] = True
    for pair, terms in checks:
        np.matmul(*((acts[:, pair[1]], acts[:, pair[0]]) if pair else (eye, eye)), out=prod)
        for k, c in terms:
            prod -= np.multiply(acts[:, k], c, out=term)
        ok &= ~np.remainder(prod, p, out=prod).any(axis=(1, 2))
    return ok


def all_diagrams(shape: DirectCategory, alg: Algebra, max_dim: int, modules: Optional[List[Module]] = None) -> Iterator[Diagram]:
    """Every diagram over the shape with the given component modules
    (defaults to all modules of dimension <= max_dim), maps ranging over
    full hom spaces, filtered by functoriality."""
    mods = modules if modules is not None else all_modules(alg, max_dim)
    p = alg.p
    gens = shape.nonidentity_morphisms()
    for assignment in itertools.product(mods, repeat=len(shape.objects)):
        by_obj = dict(zip(shape.objects, assignment))
        hom_bases = {f: hom_space(by_obj[shape.src(f)], by_obj[shape.tgt(f)]) for f in gens}
        for picks in itertools.product(*[range(p ** len(hom_bases[f])) for f in gens]):
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
        try:
            return Module(alg, action).validate()
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
    morphisms: Dict[str, Tuple[str, str]] = {name: (s, t) for name, s, t in edges}
    paths: Dict[str, List[str]] = {name: [name] for name, _, _ in edges}
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
    by_path = {tuple(v): k for k, v in paths.items()}
    comp = {(g, f): by_path[tuple(paths[f] + paths[g])] for g, (gs, _) in morphisms.items() for f, (_, ft) in morphisms.items() if ft == gs}
    return DirectCategory(list(objects), morphisms, comp)


def random_direct_category(rng: random.Random, max_objects: int = 4, max_edges: int = 4) -> DirectCategory:
    """A random free category on a small acyclic graph."""
    n = rng.randrange(1, max_objects + 1)
    objects = [f"o{i}" for i in range(n)]
    tries = rng.randrange(0, max_edges + 1)
    ends = [sorted(rng.sample(range(n), 2)) for _ in range(tries if n > 1 else 0)]
    return free_category_on_graph(objects, [(f"a{t}", objects[a], objects[b]) for t, (a, b) in enumerate(ends)])


def random_functor(rng: random.Random, dom: DirectCategory, cod: DirectCategory) -> Optional[CatFunctor]:
    """A random functor by rejection over object assignments and compatible
    generator images."""
    for _ in range(200):
        obj_map = {o: rng.choice(cod.objects) for o in dom.objects}
        mor_map = {}
        for f in dom.nonidentity_morphisms():
            cands = cod.hom(obj_map[dom.src(f)], obj_map[dom.tgt(f)])
            if not cands:
                break
            mor_map[f] = rng.choice(cands)
        else:
            try:
                return CatFunctor(dom, cod, obj_map, mor_map)
            except DerlabError:
                pass
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
