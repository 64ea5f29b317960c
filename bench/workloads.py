"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` and then yields
batches of items.  An item has a timed `run()` that calls into derlab and
an untimed `check(raw)` that verifies the output and returns a digest of
it, so a traced run can be compared with an untraced one.  The run loop
only stops between batches; a batch keeps a workload's mix whole (one
scenario pass, one diagram per shape).

The library is reached through module attributes (`homotopy.loop_via_square`,
not a name imported from it), so the tracer's patches see every call.

Why these three:

- stability-p2 is the criterion-10 loop: iso search and the modules layer
  on tiny p = 2 matrices, with distinct inputs and no complexes or dgkan.
- scenario-regression is the only workload that runs `cli`, `complexes`
  (sod) and `dgkan` (crosscheck), and the one with the largest eliminations
  and the most repeated module calls.
- recognition-p3 has an odd prime, so it bypasses any GF(2)-only path, and
  its square shape puts `cats`, `diagrams` and `gorenstein` to work without
  iso search or complexes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from derlab import algebra, cats, cli, diagrams, field, gorenstein, homotopy, modules, samples

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Checked:
    items: int     # verified items this timed call stands for
    failed: int    # of those, items whose check failed
    digest: str    # digest of the checked output


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Checked]
    # the number of items a call that raised stands for
    expected_items: int = 1


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _x_rank(m) -> int:
    """Rank of the radical generator's action: with the dimension it names
    the isomorphism type of a module over F_p[x]/(x^2)."""
    return field.rank(m.action[1]) if m.dim else 0


def _stratified_order(strata: Sequence[List], rng: random.Random) -> List:
    """Interleave shuffled strata so that every prefix holds each stratum in
    proportion to its size (item j of a stratum of n is due at (j + u) / n)."""
    due = []
    for s, members in enumerate(strata):
        members = list(members)
        rng.shuffle(members)
        phase = rng.random()
        due.extend(((j + phase) / len(members), s, j, m) for j, m in enumerate(members))
    due.sort(key=lambda t: t[:3])
    return [t[3] for t in due]


# -- stability-p2 ---------------------------------------------------------------


class StabilityP2:
    """`homotopy.loop_via_square` on the enumerated F_2[x]/(x^2) modules of
    dim <= 4, each checked against the syzygy.

    Cost is set by the isomorphism type (dim, rank of x): the semisimple
    k^3 takes ~90x the median module.  So a run starts with one module of
    every type, then walks the rest in a stratified order, and every run
    sees the same mix whatever its length.  Modules are never repeated:
    when the list is used up the run ends.
    """

    name = "stability-p2"
    modules_expected = 344
    # traced runs cover a fixed number of batches, so counters repeat exactly
    trace_batches_per_s = 1.2

    def setup(self, root: Path, seed: int):
        alg = algebra.dual_numbers(2)
        algebra.require_self_injective(alg)
        mods = samples.all_modules(alg, 4)
        if len(mods) != self.modules_expected:
            raise RuntimeError(f"enumerated {len(mods)} modules, expected {self.modules_expected}")
        by_type: Dict[Tuple[int, int], List] = {}
        for m in mods:
            by_type.setdefault((m.dim, _x_rank(m)), []).append(m)
        rng = random.Random(seed)
        firsts = []
        rest = []
        for key in sorted(by_type):
            members = list(by_type[key])
            rng.shuffle(members)
            firsts.append(members[0])
            if len(members) > 1:
                rest.append(members[1:])
        return {"firsts": firsts, "rest": _stratified_order(rest, rng), "types": len(by_type)}

    def batches(self, state) -> Iterator[List[Item]]:
        yield [self._item(m) for m in state["firsts"]]
        for m in state["rest"]:
            yield [self._item(m)]

    def trace_batches(self, seconds: int) -> int:
        return 1 + round(self.trace_batches_per_s * seconds)

    @staticmethod
    def _item(m) -> Item:
        def run():
            return homotopy.loop_via_square(m)

        def check(res) -> Checked:
            ok = res.versus_syzygy.is_true
            digest = _sha(
                {
                    "status": res.versus_syzygy.status,
                    "loop": [a.to_list() for a in res.module.action],
                    "syzygy": [a.to_list() for a in res.syzygy.action],
                }
            )
            return Checked(1, 0 if ok else 1, digest)

        return Item(f"module dim {m.dim}", run, check)

    def properties(self, state) -> Dict[str, object]:
        return {"modules": self.modules_expected, "isomorphism_types": state["types"], "p": 2}


# -- scenario-regression -------------------------------------------------------


class ScenarioRegression:
    """`cli.run_scenario` once per suite of scenarios/regression.json.

    Each call takes a generated one-suite scenario over the same fixture
    files and is one timed item; its report items are the verified items.
    A pass runs every suite once, in a seeded order, and the run stops only
    between passes so every suite has the same weight.  Reports must exit
    0 with every verdict `pass` and match the digests in
    regression_digests.json (report without `meta` and the echoed seed).
    """

    name = "scenario-regression"
    source = Path("scenarios") / "regression.json"
    digests_path = BENCH_DIR / "regression_digests.json"
    work_dir = BENCH_DIR / "_work"
    fixture_keys = ("algebra", "categories", "functors", "diagrams", "complexes")
    trace_passes_per_s = 0.2

    def setup(self, root: Path, seed: int):
        with open(self.digests_path, "r", encoding="utf-8") as fh:
            digests = json.load(fh)
        suites, paths = self._prepare(root, seed)
        if sorted(suites) != sorted(digests):
            raise RuntimeError("regression suites do not match the recorded digests")
        return {"paths": paths, "suites": suites, "digests": digests, "seed": seed}

    def _prepare(self, root: Path, seed: int):
        """Write one scenario per suite, naming the fixtures by absolute path."""
        src = root / self.source
        with open(src, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        suites = list(base["suites"])
        self.work_dir.mkdir(exist_ok=True)
        fixture_dir = src.resolve().parent

        def absolute(v):
            if isinstance(v, dict):
                return {k: absolute(x) for k, x in v.items()}
            return str(fixture_dir / v)

        paths = {}
        for suite in suites:
            scenario = dict(base)
            scenario["suites"] = [suite]
            scenario["seed"] = seed
            for key in self.fixture_keys:
                if key in base:
                    scenario[key] = absolute(base[key])
            path = self.work_dir / f"regression-{suite}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh, sort_keys=True, indent=1)
            paths[suite] = path
        return suites, paths

    def batches(self, state) -> Iterator[List[Item]]:
        rng = random.Random(state["seed"])
        suites = list(state["suites"])
        while True:
            rng.shuffle(suites)
            yield [self._item(s, state) for s in suites]

    def trace_batches(self, seconds: int) -> int:
        return max(1, round(self.trace_passes_per_s * seconds))

    @staticmethod
    def _item(suite: str, state) -> Item:
        path = str(state["paths"][suite])
        record = state["digests"][suite]

        def run():
            return cli.run_scenario(path)

        def check(raw) -> Checked:
            report, code = raw
            expected = record["items"]
            got = {it["id"]: _sha(it) for it in report.get("items", [])}
            normalized = {k: v for k, v in report.items() if k not in ("meta", "seed", "scenario")}
            if code == 0 and _sha(normalized) == record["digest"]:
                return Checked(len(expected), 0, record["digest"])
            bad = sum(1 for k, v in expected.items() if got.get(k) != v)
            bad += sum(1 for k in got if k not in expected)
            return Checked(len(expected), max(1, bad), _sha(normalized))

        return Item(suite, run, check, expected_items=len(record["items"]))

    def properties(self, state) -> Dict[str, object]:
        items = sum(len(r["items"]) for r in state["digests"].values())
        return {"suites": len(state["suites"]), "report_items_per_pass": items, "p": 2}

    @classmethod
    def record_digests(cls, root: Path) -> Dict[str, dict]:
        """Digests of every one-suite report at seed 0 (for regression_digests.json)."""
        suites, paths = cls()._prepare(root, 0)
        out = {}
        for suite in suites:
            report, code = cli.run_scenario(str(paths[suite]))
            if code != 0:
                raise RuntimeError(f"suite {suite} exited {code}")
            normalized = {k: v for k, v in report.items() if k not in ("meta", "seed", "scenario")}
            out[suite] = {"digest": _sha(normalized), "items": {it["id"]: _sha(it) for it in report["items"]}}
        return out


# -- recognition-p3 --------------------------------------------------------------


class RecognitionP3:
    """Seeded functorial diagrams over F_3[x]/(x^2), one per shape (arrow,
    cospan, square) in every batch.  Each runs `is_gproj` against the Ext^1
    stalk oracle, and `approx_gproj` / `hull_ginj` must return all four
    tags true.

    Components are modules of dim <= 2, except that squares never take the
    semisimple k^2: at this commit such squares cost 12x the others on
    average with a 6 s tail, which put the seed-to-seed spread of a run
    beyond any usable bound.  Cost follows the isomorphism types of the
    components, so each shape walks its type patterns in a stratified
    order, each pattern as often as uniform draws of modules would give it,
    and the seed picks the modules within each type and the maps.  Square
    maps are drawn at random on three edges and the fourth is a random
    solution of the commuting condition, so squares are not biased toward a
    zero corner.
    """

    name = "recognition-p3"
    p = 3
    max_dim = 2
    shapes = ("arrow", "cospan", "square")
    trace_batches_per_s = 2.0

    def setup(self, root: Path, seed: int):
        alg = algebra.dual_numbers(self.p)
        algebra.require_self_injective(alg)
        mods = samples.all_modules(alg, self.max_dim)
        homs = {(i, j): [h.mat.a for h in modules.hom_space(m, n)] for i, m in enumerate(mods) for j, n in enumerate(mods)}
        by_type: Dict[Tuple[int, int], List[int]] = {}
        for i, m in enumerate(mods):
            by_type.setdefault((m.dim, _x_rank(m)), []).append(i)
        shapes = {"arrow": cats.arrow_category(), "cospan": cats.cospan_category(), "square": cats.square_category()}
        patterns = {}
        for name, shape in shapes.items():
            allowed = [t for t in sorted(by_type) if name != "square" or t != (2, 0)]
            patterns[name] = [
                (pat, int(np.prod([len(by_type[t]) for t in pat])))
                for pat in itertools.product(allowed, repeat=len(shape.objects))
            ]
        return {
            "alg": alg,
            "mods": mods,
            "homs": homs,
            "by_type": by_type,
            "patterns": patterns,
            "cats": shapes,
            "reg": modules.regular_module(alg),
            "seed": seed,
        }

    def batches(self, state) -> Iterator[List[Item]]:
        rng = random.Random(state["seed"])
        streams = {name: self._patterns(state["patterns"][name], rng) for name in self.shapes}
        while True:
            yield [self._item(self._diagram(name, next(streams[name]), state, rng), name, state) for name in self.shapes]

    @staticmethod
    def _patterns(weighted, rng: random.Random) -> Iterator[Tuple]:
        """Endless stratified stream of type patterns, each in proportion to its weight."""
        while True:
            yield from _stratified_order([[pat] * w for pat, w in weighted], rng)

    def trace_batches(self, seconds: int) -> int:
        return max(1, round(self.trace_batches_per_s * seconds))

    def _map(self, state, i: int, j: int, rng: random.Random) -> np.ndarray:
        out = np.zeros((state["mods"][j].dim, state["mods"][i].dim), dtype=np.int64)
        for h in state["homs"][(i, j)]:
            out = out + rng.randrange(self.p) * h
        return out % self.p

    def _diagram(self, name: str, pattern: Tuple, state, rng: random.Random):
        shape = state["cats"][name]
        p = self.p
        while True:
            comp = {o: rng.choice(state["by_type"][t]) for o, t in zip(shape.objects, pattern)}
            edges = [(f, shape.src(f), shape.tgt(f)) for f in shape.nonidentity_morphisms()]
            if name != "square":
                mats = {f: field.Mat(p, self._map(state, comp[s], comp[t], rng)) for f, s, t in edges}
            else:
                mats = self._square_maps(state, comp, rng)
                if mats is None:
                    continue
            d = diagrams.Diagram(shape, state["alg"], {o: state["mods"][i] for o, i in comp.items()}, mats)
            if d.is_functorial():
                return d

    def _square_maps(self, state, comp, rng: random.Random):
        """Random a, b, c on three edges; d solves d c = b a."""
        p = self.p
        i00, i01, i10, i11 = (comp[o] for o in ("(0,0)", "(0,1)", "(1,0)", "(1,1)"))
        for _ in range(20):
            a = self._map(state, i00, i01, rng)
            b = self._map(state, i01, i11, rng)
            c = self._map(state, i00, i10, rng)
            target = (b @ a) % p
            basis = state["homs"][(i10, i11)]
            if not basis:
                if target.any():
                    continue
                d = np.zeros((state["mods"][i11].dim, state["mods"][i10].dim), dtype=np.int64)
            else:
                cols = field.Mat(p, np.hstack([((h @ c) % p).reshape(-1, 1) for h in basis]))
                x = field.solve(cols, field.Mat(p, target.reshape(-1, 1)))
                if x is None:
                    continue
                ker = field.kernel_basis(cols)
                coeff = x.a[:, 0].copy()
                for j in range(ker.cols):
                    coeff = coeff + rng.randrange(p) * ker.a[:, j]
                d = sum((int(k) % p) * h for k, h in zip(coeff, basis)) % p
            return {
                "(1_0,e0)": field.Mat(p, a),
                "(e0,1_1)": field.Mat(p, b),
                "(e0,1_0)": field.Mat(p, c),
                "(1_1,e0)": field.Mat(p, d),
                "(e0,e0)": field.Mat(p, target),
            }
        return None

    @staticmethod
    def _item(d, shape_name: str, state) -> Item:
        alg, reg = state["alg"], state["reg"]

        def run():
            gp = gorenstein.is_gproj(d)
            oracle = all(diagrams.ext1(d, diagrams.stalk_diagram(d.shape, alg, j, reg)).dim == 0 for j in d.shape.objects)
            cover = gorenstein.approx_gproj(d)
            hull = gorenstein.hull_ginj(d)
            return gp, oracle, cover, hull

        def check(raw) -> Checked:
            gp, oracle, cover, hull = raw
            tags = {**{f"cover.{k}": v for k, v in cover.tags.items()}, **{f"hull.{k}": v for k, v in hull.tags.items()}}
            ok = gp == oracle and len(tags) == 4 and all(tags.values())
            digest = _sha(
                {
                    "is_gproj": gp,
                    "oracle": oracle,
                    "tags": tags,
                    "cover": [cover.conflation.middle.at(o).dim for o in d.shape.objects],
                    "hull": [hull.conflation.middle.at(o).dim for o in d.shape.objects],
                }
            )
            return Checked(1, 0 if ok else 1, digest)

        return Item(shape_name, run, check)

    def properties(self, state) -> Dict[str, object]:
        return {
            "component_modules": len(state["mods"]),
            "type_patterns": {name: len(pats) for name, pats in state["patterns"].items()},
            "p": self.p,
        }


WORKLOADS = {w.name: w for w in (StabilityP2(), ScenarioRegression(), RecognitionP3())}
