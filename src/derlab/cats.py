"""Finite direct categories, functors, slices, and their combinatorics.

Categories are stored with full composition tables (identities included
internally, generated names ``1_<obj>`` when not supplied).  Validation
computes the longest-path degree function; a cycle or a non-identity
endomorphism is rejected.  Hom-sets are returned sorted by morphism name
so that every block decomposition downstream is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .field import DerlabError, check_keys


class CategoryError(DerlabError, ValueError):
    pass


class DirectCategory:
    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Dict[str, Tuple[str, str]],
        comp: Dict[Tuple[str, str], str],
        identities: Optional[Dict[str, str]] = None,
    ) -> None:
        """morphisms: name -> (src, tgt), identities may be omitted and are added.

        comp maps (g, f) with src(g) = tgt(f) to the name of g o f; pairs
        involving identities may be omitted and are filled in.
        """
        self.objects = list(objects)
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object names")
        self.morphisms: Dict[str, Tuple[str, str]] = dict(morphisms)
        self.identities: Dict[str, str] = dict(identities) if identities else {}
        for o in self.objects:
            if o not in self.identities:
                name = f"1_{o}"
                if name in self.morphisms and self.morphisms[name] != (o, o):
                    raise CategoryError(f"identity name clash at {name}")
                self.identities[o] = name
                self.morphisms.setdefault(name, (o, o))
        self._id_names = set(self.identities.values())
        self.comp: Dict[Tuple[str, str], str] = dict(comp)
        for f, (s, t) in self.morphisms.items():
            if s not in self.objects or t not in self.objects:
                raise CategoryError(f"morphism {f} has unknown endpoint")
            self.comp.setdefault((self.identities[t], f), f)
            self.comp.setdefault((f, self.identities[s]), f)
        self._validate()
        self.degree = self._grade()
        self._hom_cache: Dict[Tuple[str, str], List[str]] = {}
        self._nonidentity = sorted(f for f in self.morphisms if not self.is_identity(f))
        # (g, f, g o f) in table order, bar the unit laws (pairs with an identity)
        self.composites = [(g, f, h) for (g, f), h in self.comp.items() if not (self.is_identity(g) or self.is_identity(f))]
        self._op: Optional["DirectCategory"] = None
        self._punctured_cache: Dict[Tuple[str, str], "SlicePresentation"] = {}

    # -- structure ------------------------------------------------------

    def src(self, f: str) -> str:
        return self.morphisms[f][0]

    def tgt(self, f: str) -> str:
        return self.morphisms[f][1]

    def is_identity(self, f: str) -> bool:
        return f in self._id_names

    def id_of(self, o: str) -> str:
        return self.identities[o]

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise CategoryError(f"cannot compose {g} after {f}")
        return self.comp[(g, f)]

    def hom(self, a: str, b: str) -> List[str]:
        key = (a, b)
        if key not in self._hom_cache:
            self._hom_cache[key] = sorted(
                f for f, (s, t) in self.morphisms.items() if s == a and t == b
            )
        return self._hom_cache[key]

    def nonidentity_morphisms(self) -> List[str]:
        """Sorted by name, built once: like hom, a list callers only read."""
        return self._nonidentity

    def max_degree(self) -> int:
        return max(self.degree.values(), default=0)

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        for (g, f), h in self.comp.items():
            if g not in self.morphisms or f not in self.morphisms or h not in self.morphisms:
                raise CategoryError(f"composition table mentions unknown morphism in ({g}, {f}) -> {h}")
            if self.tgt(f) != self.src(g):
                raise CategoryError(f"composition table pairs non-composable ({g}, {f})")
            if (self.src(f), self.tgt(g)) != (self.src(h), self.tgt(h)):
                raise CategoryError(f"composite {h} of ({g}, {f}) has wrong endpoints")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.tgt(f) == self.src(g) and (g, f) not in self.comp:
                    raise CategoryError(f"composition table is missing ({g}, {f})")
        for (g, f), h in self.comp.items():
            for e in self.morphisms:
                if self.tgt(e) == self.src(f):
                    if self.comp[(h, e)] != self.comp[(g, self.comp[(f, e)])]:
                        raise CategoryError(f"associativity fails on ({g}, {f}, {e})")

    def _grade(self) -> Dict[str, int]:
        """Longest-path degrees, by relaxation over the non-identity arrows;
        raises on a non-identity endomorphism or a cycle."""
        arrows = [(f, s, t) for f, (s, t) in self.morphisms.items() if not self.is_identity(f)]
        for f, s, t in arrows:
            if s == t:
                raise CategoryError(f"non-identity endomorphism {f}: not a direct category")
        degree = dict.fromkeys(self.objects, 0)
        for _ in range(len(self.objects) + 1):  # a path has fewer arrows than there are objects
            stable = True
            for _, s, t in arrows:
                if degree[t] <= degree[s]:
                    degree[t], stable = degree[s] + 1, False
            if stable:
                return degree
        raise CategoryError("cycle detected: not a direct category")

    def objects_by_degree(self) -> List[str]:
        return sorted(self.objects, key=lambda o: (self.degree[o], self.objects.index(o)))

    def minimal_objects(self) -> List[str]:
        return [o for o in self.objects if all(self.is_identity(f) or self.tgt(f) != o for f in self.morphisms)]

    def __repr__(self) -> str:
        return f"DirectCategory({self.objects}, {len(self.morphisms)} morphisms)"


def same_category(a: DirectCategory, b: DirectCategory) -> bool:
    """Structural equality (same objects, morphisms and composition table)."""
    return a is b or (
        a.objects == b.objects and a.morphisms == b.morphisms and a.comp == b.comp
    )


class CatFunctor:
    def __init__(self, dom: DirectCategory, cod: DirectCategory, obj_map: Dict[str, str], mor_map: Dict[str, str]) -> None:
        self.dom = dom
        self.cod = cod
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self._slice_cache: Dict[Tuple[str, str], "SlicePresentation"] = {}
        self._op: Optional["CatFunctor"] = None
        for o in dom.objects:
            if o not in self.obj_map:
                raise CategoryError(f"functor misses object {o}")
            if self.obj_map[o] not in cod.objects:
                raise CategoryError(f"functor sends {o} to unknown object")
            self.mor_map.setdefault(dom.id_of(o), cod.id_of(self.obj_map[o]))
        for f in dom.morphisms:
            if f not in self.mor_map:
                raise CategoryError(f"functor misses morphism {f}")
            g = self.mor_map[f]
            if g not in cod.morphisms:
                raise CategoryError(f"functor sends {f} to unknown morphism")
            if cod.src(g) != self.obj_map[dom.src(f)] or cod.tgt(g) != self.obj_map[dom.tgt(f)]:
                raise CategoryError(f"functor breaks source/target at {f}")
        for o in dom.objects:
            if self.mor_map[dom.id_of(o)] != cod.id_of(self.obj_map[o]):
                raise CategoryError(f"functor breaks the identity at {o}")
        for (g, f), h in dom.comp.items():
            if cod.compose(self.mor_map[g], self.mor_map[f]) != self.mor_map[h]:
                raise CategoryError(f"functor breaks composition on ({g}, {f})")

    def on_obj(self, o: str) -> str:
        return self.obj_map[o]

    def on_mor(self, f: str) -> str:
        return self.mor_map[f]

    def is_fully_faithful(self) -> bool:
        for a in self.dom.objects:
            for b in self.dom.objects:
                image = [self.on_mor(f) for f in self.dom.hom(a, b)]
                if len(set(image)) != len(image):
                    return False
                if sorted(image) != self.cod.hom(self.on_obj(a), self.on_obj(b)):
                    return False
        return len(set(self.obj_map.values())) == len(self.dom.objects)


def identity_functor(c: DirectCategory) -> CatFunctor:
    return CatFunctor(c, c, {o: o for o in c.objects}, {f: f for f in c.morphisms})


def object_functor(c: DirectCategory, o: str) -> CatFunctor:
    """The functor e -> c selecting o."""
    e = terminal_category()
    return CatFunctor(e, c, {"*": o}, {"1_*": c.id_of(o)})


# -- slices ----------------------------------------------------------------


@dataclass
class SlicePresentation:
    cat: DirectCategory
    projection: CatFunctor              # slice -> dom(u)
    pairs: Dict[str, Tuple[str, str]]   # slice object -> (i, f)
    side: str                           # "under" (u/j) or "over" (j/u)
    index_object: str


def slice_name(i: str, f: str) -> str:
    """The name of the slice object (i, f)."""
    return f"({i}|{f})"


def _slice(
    I: DirectCategory, J: DirectCategory, obj_map: Dict[str, str], mor_map: Dict[str, str], j: str, side: str, drop: Optional[Tuple[str, str]] = None
) -> SlicePresentation:
    """The slice at j of the functor I -> J with these object and morphism
    maps, on every pair but drop, with its projection to I."""
    if j not in J.objects:
        raise CategoryError(f"unknown object {j}")
    if side not in ("under", "over"):
        raise CategoryError("side must be 'under' (u/j) or 'over' (j/u)")
    found = [(i, f) for i in I.objects for f in (J.hom(obj_map[i], j) if side == "under" else J.hom(j, obj_map[i])) if (i, f) != drop]
    pairs = {slice_name(i, f): (i, f) for i, f in found}
    if len(pairs) != len(found):
        raise CategoryError(f"two objects of the slice at {j} share a name")
    morphisms: Dict[str, Tuple[str, str]] = {}
    identities: Dict[str, str] = {}
    mor_of: Dict[str, str] = {}
    for a, (i, f) in pairs.items():
        for b, (i2, f2) in pairs.items():
            for g in I.hom(i, i2):
                ug = mor_map[g]
                ok = J.compose(f2, ug) == f if side == "under" else J.compose(ug, f) == f2
                if ok:
                    if I.is_identity(g) and a == b:
                        mname = identities[a] = f"1_{a}"
                    else:
                        mname = f"{g}:{a}->{b}"
                    morphisms[mname] = (a, b)
                    mor_of[mname] = g
    by_under = {(a, b, mor_of[m]): m for m, (a, b) in morphisms.items()}
    comp: Dict[Tuple[str, str], str] = {}
    for m2, (b2, c2) in morphisms.items():
        for m1, (a1, b1) in morphisms.items():
            if b1 == b2:
                comp[(m2, m1)] = by_under[(a1, c2, I.compose(mor_of[m2], mor_of[m1]))]
    cat = DirectCategory(list(pairs), morphisms, comp, identities)
    proj = CatFunctor(cat, I, {o: i for o, (i, _) in pairs.items()}, mor_of)
    return SlicePresentation(cat, proj, pairs, side, j)


def slice_category(u: CatFunctor, j: str, side: str) -> SlicePresentation:
    """u/j has pairs (i, f: u(i) -> j); j/u has pairs (i, f: j -> u(i)).

    Cached per functor, so that a functor used again gets the same slice
    shapes and their hom-set, punctured-slice and opposite caches.  Bad
    arguments are refused on every call: they never reach the cache."""
    hit = u._slice_cache.get((j, side))
    if hit is None:
        hit = u._slice_cache[(j, side)] = _slice(u.dom, u.cod, u.obj_map, u.mor_map, j, side)
    return hit


def punctured_slice(c: DirectCategory, i: str, side: str) -> SlicePresentation:
    """The slice of c at i on every pair but the (co)terminal (i, 1_i).  The
    index shape for latching (side 'under', all arrows into i) and matching
    (side 'over', all arrows out of i) objects.

    Cached per category: latching/matching computations hit this heavily."""
    hit = c._punctured_cache.get((i, side))
    if hit is None:
        ids = {o: o for o in c.objects} | {f: f for f in c.morphisms}
        hit = c._punctured_cache[(i, side)] = _slice(c, c, ids, ids, i, side, (i, c.identities.get(i)))
    return hit


@dataclass
class ComponentReport:
    objects: List[str]
    terminal: Optional[str]
    initial: Optional[str]


def analyze_components(cat: DirectCategory) -> List[ComponentReport]:
    """Connected components with terminal/initial objects found by hom counting."""
    parent = {o: o for o in cat.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in cat.morphisms:
        a, b = find(cat.src(f)), find(cat.tgt(f))
        if a != b:
            parent[a] = b
    groups: Dict[str, List[str]] = {}
    for o in cat.objects:
        groups.setdefault(find(o), []).append(o)
    out = []
    for root in sorted(groups):
        objs = sorted(groups[root], key=cat.objects.index)
        terminal = None
        for t in objs:
            if all(len(cat.hom(x, t)) == 1 for x in objs):
                terminal = t
                break
        initial = None
        for s in objs:
            if all(len(cat.hom(s, x)) == 1 for x in objs):
                initial = s
                break
        out.append(ComponentReport(objs, terminal, initial))
    return out


# -- sieves ----------------------------------------------------------------


def is_sieve(u: CatFunctor) -> bool:
    """For fully faithful u: is the image closed under morphisms into it?"""
    if not u.is_fully_faithful():
        raise CategoryError("sieve test requires a fully faithful functor")
    image = {u.on_obj(i) for i in u.dom.objects}
    J = u.cod
    for f in J.morphisms:
        if J.tgt(f) in image and J.src(f) not in image:
            return False
    return True


def is_cosieve(u: CatFunctor) -> bool:
    """For fully faithful u: is the image closed under morphisms out of it?"""
    return is_sieve(opposite_functor(u))


# -- constructions ----------------------------------------------------------


def opposite_category(c: DirectCategory) -> DirectCategory:
    """Arrows reversed, names preserved; op of op is the original object."""
    if c._op is not None:
        return c._op
    morphisms = {f: (t, s) for f, (s, t) in c.morphisms.items()}
    comp = {(f, g): h for (g, f), h in c.comp.items()}
    op = DirectCategory(list(c.objects), morphisms, comp, dict(c.identities))
    op._op = c
    c._op = op
    return op


def opposite_functor(u: CatFunctor) -> CatFunctor:
    """u between the opposite categories; built once per functor, and op of
    op is the original object."""
    if u._op is not None:
        return u._op
    op = CatFunctor(opposite_category(u.dom), opposite_category(u.cod), u.obj_map, u.mor_map)
    op._op = u
    u._op = op
    return op


@lru_cache(maxsize=32)
def product_category(c1: DirectCategory, c2: DirectCategory) -> DirectCategory:
    """c1 x c2, built once per pair of shape instances."""
    def oname(a, b):
        return f"({a},{b})"

    def mname(f, g):
        return f"({f},{g})"

    objects = [oname(a, b) for a in c1.objects for b in c2.objects]
    morphisms = {}
    identities = {}
    for f, (s1, t1) in c1.morphisms.items():
        for g, (s2, t2) in c2.morphisms.items():
            morphisms[mname(f, g)] = (oname(s1, s2), oname(t1, t2))
    for a in c1.objects:
        for b in c2.objects:
            identities[oname(a, b)] = mname(c1.id_of(a), c2.id_of(b))
    comp = {}
    for (g1, f1), h1 in c1.comp.items():
        for (g2, f2), h2 in c2.comp.items():
            comp[(mname(g1, g2), mname(f1, f2))] = mname(h1, h2)
    return DirectCategory(objects, morphisms, comp, identities)


def full_subcategory(c: DirectCategory, objects: Sequence[str]) -> Tuple[DirectCategory, CatFunctor]:
    """The full subcategory on the given objects with its inclusion."""
    keep = [o for o in c.objects if o in set(objects)]
    morphisms = {f: st for f, st in c.morphisms.items() if st[0] in keep and st[1] in keep}
    comp = {pair: h for pair, h in c.comp.items() if pair[0] in morphisms and pair[1] in morphisms}
    identities = {o: c.identities[o] for o in keep}
    sub = DirectCategory(keep, morphisms, comp, identities)
    incl = CatFunctor(sub, c, {o: o for o in keep}, {f: f for f in morphisms})
    return sub, incl


def disjoint_union(c1: DirectCategory, c2: DirectCategory) -> Tuple[DirectCategory, CatFunctor, CatFunctor]:
    """c1 and c2 side by side, their names tagged "L." and "R.", with the
    two inclusions."""
    parts = (("L", c1), ("R", c2))
    objects = [f"{t}.{o}" for t, c in parts for o in c.objects]
    morphisms = {f"{t}.{f}": (f"{t}.{a}", f"{t}.{b}") for t, c in parts for f, (a, b) in c.morphisms.items()}
    identities = {f"{t}.{o}": f"{t}.{c.id_of(o)}" for t, c in parts for o in c.objects}
    comp = {(f"{t}.{g}", f"{t}.{f}"): f"{t}.{h}" for t, c in parts for (g, f), h in c.comp.items()}
    cat = DirectCategory(objects, morphisms, comp, identities)
    i1, i2 = (CatFunctor(c, cat, {o: f"{t}.{o}" for o in c.objects}, {f: f"{t}.{f}" for f in c.morphisms}) for t, c in parts)
    return cat, i1, i2


# -- standard shapes ---------------------------------------------------------
# Built once, like products, so that the caches of a shape and the memos
# keyed on it serve every caller; no construction mutates a category.


@lru_cache(maxsize=None)
def terminal_category() -> DirectCategory:
    return DirectCategory(["*"], {}, {})


@lru_cache(maxsize=None)
def arrow_category() -> DirectCategory:
    """[1] = (0 -> 1)."""
    return DirectCategory(["0", "1"], {"e0": ("0", "1")}, {})


@lru_cache(maxsize=None)
def cospan_category() -> DirectCategory:
    """The cospan x -> z <- y."""
    return DirectCategory(["x", "y", "z"], {"f": ("x", "z"), "g": ("y", "z")}, {})


@lru_cache(maxsize=None)
def span_category() -> DirectCategory:
    """The span x <- w -> y."""
    return DirectCategory(["w", "x", "y"], {"f": ("w", "x"), "g": ("w", "y")}, {})


def square_category() -> DirectCategory:
    """The commutative square [1] x [1]."""
    return product_category(arrow_category(), arrow_category())


def category_from_dict(data: dict) -> DirectCategory:
    """Load from the JSON document format; a malformed document is a
    CategoryError."""
    try:
        check_keys(data, ("objects", "morphisms", "comp"))
        if not isinstance(data["objects"], list):
            raise TypeError("objects must be a list of names")
        objects = [str(o) for o in data["objects"]]
        for m in data.get("morphisms", []):
            check_keys(m, ("name", "src", "tgt"))
        morphisms = {m["name"]: (m["src"], m["tgt"]) for m in data.get("morphisms", [])}
        comp = {}
        for key, h in data.get("comp", {}).items():
            if "∘" not in key:
                raise CategoryError(f"composition key {key!r} must be of the form 'g∘f'")
            g, f = key.split("∘", 1)
            comp[(g, f)] = h
        return DirectCategory(objects, morphisms, comp)
    except CategoryError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CategoryError(f"malformed category document: {exc}") from exc


def functor_from_dict(data: dict, dom: DirectCategory, cod: DirectCategory) -> CatFunctor:
    """Load from the JSON document format; a malformed document is a
    CategoryError."""
    try:
        check_keys(data, ("dom", "cod", "objects", "morphisms"))
        objects, morphisms = data.get("objects", {}), data.get("morphisms", {})
        if not isinstance(objects, dict) or not isinstance(morphisms, dict):
            raise CategoryError("malformed functor document: objects and morphisms must map names to names")
        check_keys(objects, dom.objects)
        check_keys(morphisms, dom.morphisms)
        return CatFunctor(dom, cod, objects, morphisms)
    except CategoryError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CategoryError(f"malformed functor document: {exc}") from exc
