"""Batch scenario runner: load an algebra and fixtures, execute named
suites, emit a machine-readable report plus human-readable explanations.

Exit codes: 0 all pass, 1 a verification failure, 2 an input/validation
error, 3 unknown verdicts present (so CI can tell "disproved" from
"undecided under budget").  Reports are deterministic given inputs and
seeds; wall time lives in a separate "meta" object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .algebra import Algebra, algebra_from_dict, require_self_injective
from .cats import CatFunctor, DirectCategory, category_from_dict, disjoint_union, functor_from_dict
from .field import DerlabError, matrix_from_entries
from .diagrams import (
    Diagram,
    DiagramMap,
    diagram_from_dict,
    ext1,
    hom_space_diagrams,
    identity_diagram_map,
    left_kan_from_point,
    projective_cover_diagram,
    restrict,
    stalk_diagram,
    zero_diagram,
    zero_diagram_map,
)
from .gorenstein import (
    approx_gproj,
    gproj_left_kan,
    gproj_witness_report,
    ginj_right_kan,
    hull_ginj,
    is_gproj,
    is_ginj,
    is_wtriv,
    stable_roundtrip_witness,
)
from .homotopy import der2_witness, is_weak_equivalence, lift_to_arrow_diagram
from .complexes import (
    LazyComplex,
    complete_resolution,
    is_contractible_on,
    sod_decompose,
)
from .dgkan import crosscheck_kan, der4_check
from .modules import regular_module


class ScenarioError(DerlabError, ValueError):
    pass


def _scenario_int(scenario: dict, key: str, default: int) -> int:
    value = scenario.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"malformed scenario: {key} must be an integer, got {value!r}")
    if value < 0:
        raise ScenarioError(f"malformed scenario: {key} must be non-negative, got {value}")
    return value


def _unique_keys(pairs: list) -> dict:
    """The object_pairs_hook of every JSON read: a key repeated in one
    object is an error, where json.load alone keeps the last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r}")
    return out


def _degree(key: str) -> int:
    """A complex document's degree key, which must be a canonical decimal
    integer ("-1", "0", "12"), so no two keys name one degree."""
    if str(int(key)) != key:
        raise ValueError(f"degree key {key!r} is not a canonical decimal integer")
    return int(key)


# What sessions load, kept by the text of its document (a functor also by
# its dom and cod instances), so a later session in the same process over
# the same documents gets the same algebra, shapes and functors back and
# the memos keyed on them carry from one run to the next.  A document that
# fails validation or the self-injectivity gate raises and is not kept.
# The text keeps key order, which a category's composites follow.
LOADED_MAX_ENTRIES = 64


@lru_cache(maxsize=LOADED_MAX_ENTRIES)
def _algebra(text: str) -> Algebra:
    return require_self_injective(algebra_from_dict(json.loads(text)))


@lru_cache(maxsize=LOADED_MAX_ENTRIES)
def _shape(text: str) -> DirectCategory:
    return category_from_dict(json.loads(text))


@lru_cache(maxsize=LOADED_MAX_ENTRIES)
def _functor(text: str, dom: DirectCategory, cod: DirectCategory) -> CatFunctor:
    return functor_from_dict(json.loads(text), dom, cod)


class Session:
    def __init__(self, scenario: dict, base: Path) -> None:
        self.scenario = scenario
        self.base = base
        self.seed = _scenario_int(scenario, "seed", 0)
        self.budget = _scenario_int(scenario, "budget", 4096)
        self.margin = _scenario_int(scenario, "window_margin", 2)
        self.alg = None
        self.categories: Dict[str, object] = {}
        self.functors: Dict[str, object] = {}
        self.diagrams: Dict[str, Diagram] = {}
        self.complexes: Dict[str, LazyComplex] = {}

    def _read(self, rel: str) -> dict:
        if not isinstance(rel, str):
            raise ScenarioError(f"malformed scenario: document path {rel!r} is not a string")
        try:
            with open(self.base / rel, "r", encoding="utf-8") as fh:
                return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ScenarioError(f"cannot read {rel}: {exc}") from exc

    def _table(self, key: str) -> dict:
        """The scenario's mapping of names to document paths under key."""
        table = self.scenario.get(key, {})
        if not isinstance(table, dict):
            raise ScenarioError(f"malformed scenario: {key} must map names to document paths")
        return table

    def load(self) -> None:
        if "algebra" not in self.scenario:
            raise ScenarioError("scenario has no algebra")
        self.alg = _algebra(json.dumps(self._read(self.scenario["algebra"])))
        for name, rel in self._table("categories").items():
            cat = _shape(json.dumps(self._read(rel)))
            if not cat.objects:
                raise ScenarioError(f"category {name!r} is empty; sessions require non-empty shapes")
            self.categories[name] = cat
        for name, rel in self._table("functors").items():
            data = self._read(rel)
            self.functors[name] = _functor(json.dumps(data), self._category(data, "dom"), self._category(data, "cod"))
        for name, rel in self._table("diagrams").items():
            data = self._read(rel)
            self.diagrams[name] = diagram_from_dict(self._category(data, "shape"), self.alg, data)
        for name, rel in self._table("complexes").items():
            data = self._read(rel)
            self.complexes[name] = self._complex_from_dict(self._category(data, "shape"), data)

    def _category(self, data, key: str):
        """The loaded category a document names under key."""
        try:
            return self.categories[data[key]]
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"document names no loaded category under {key!r}") from exc

    def _complex_from_dict(self, shape, data) -> LazyComplex:
        """A bounded complex, or a periodic one given by a term and a diff at
        each degree of one period; a malformed document is a ScenarioError."""
        p = self.alg.p
        try:
            term_docs, diff_docs = data.get("terms", {}), data.get("diffs", {})
            if not isinstance(term_docs, dict) or not isinstance(diff_docs, dict) or not all(isinstance(c, dict) for c in diff_docs.values()):
                raise TypeError("terms, diffs and each diff must be mappings")
            terms = {_degree(deg): diagram_from_dict(shape, self.alg, d) for deg, d in term_docs.items()}
            diff_docs = {_degree(deg): comps for deg, comps in diff_docs.items()}
            policy = data.get("policy", "zero-tails")
            period = policy["periodic"]["period"] if isinstance(policy, dict) and "periodic" in policy else None
            if policy != ("zero-tails" if period is None else {"periodic": {"period": period}}):
                raise ValueError(f'policy {policy!r} is neither "zero-tails" nor {{"periodic": {{"period": n}}}}')
            lo = min(terms, default=0)
            if period is not None:
                if isinstance(period, bool) or not isinstance(period, int) or period < 1:
                    raise ValueError(f"period {period!r} is not a positive integer")
                if not terms or set(terms) != set(range(lo, lo + period)) or set(diff_docs) != set(terms):
                    raise ValueError("a periodic complex needs a term and a diff at each degree of one period, and nothing else")
            zero = zero_diagram(shape, self.alg)

            def term_at(k: int) -> Diagram:
                return terms[lo + (k - lo) % period] if period else terms.get(k, zero)

            diffs = {}
            for k, comps in diff_docs.items():
                src, tgt = term_at(k), term_at(k + 1)
                mats = {}
                for o in shape.objects:
                    rows, cols = tgt.at(o).dim, src.at(o).dim
                    mats[o] = matrix_from_entries(p, comps[o] if rows * cols else comps.get(o, []), rows, cols)
                diffs[k] = DiagramMap(src, tgt, mats)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"malformed complex document: {exc}") from exc
        for k, d in diffs.items():
            try:
                d.validate()
            except DerlabError as exc:
                raise ScenarioError(f"malformed complex document: the diff at degree {k} is not a map of diagrams ({exc})") from exc
        if period:
            c = LazyComplex.periodic(shape, self.alg, terms, diffs, period)
        else:
            c = LazyComplex.bounded(shape, self.alg, terms, diffs)
        try:
            for k in diffs:
                c.diff(k)
                c.diff(k + 1)  # materializing d^(k+1) beside d^k checks d o d = 0
        except DerlabError as exc:
            raise ScenarioError(f"malformed complex document: {exc}") from exc
        return c


# A suite yields (item id, check) pairs; check() returns (verdict, details).
Check = Callable[[], Tuple[str, dict]]
Suite = Iterator[Tuple[str, Check]]


def _run_item(item_id: str, suite: str, check: Check) -> dict:
    """One report item; a library error inside check is a fail verdict."""
    try:
        verdict, details = check()
    except DerlabError as exc:
        verdict, details = "fail", {"error": str(exc)}
    return {"id": item_id, "suite": suite, "verdict": verdict, "details": details}


def _dims(x: Diagram) -> Dict[str, int]:
    return {o: x.at(o).dim for o in x.shape.objects}


def _functor_diagram_pairs(s: Session) -> Iterator[Tuple[str, object, str, Diagram]]:
    """Each loaded functor with each loaded diagram over its domain."""
    for uname, u in s.functors.items():
        for dname, d in s.diagrams.items():
            if d.shape is u.dom:
                yield uname, u, dname, d


def _suite_validate(s: Session) -> Suite:
    def algebra():
        return "pass", {"dim": s.alg.dim, "p": s.alg.p, "self_injective": True}
    yield "validate/algebra", algebra
    for name, cat in s.categories.items():
        def category(cat=cat):
            return "pass", {"objects": len(cat.objects), "degrees": dict(sorted(cat.degree.items()))}
        yield f"validate/category/{name}", category
    for name, d in s.diagrams.items():
        def check(d=d):
            d.validate()
            return "pass", {"dims": _dims(d)}
        yield f"validate/diagram/{name}", check
    for name, c in s.complexes.items():
        def complex_(c=c):
            ok = c.is_acyclic_on(-s.margin, s.margin)
            return "pass", {"acyclic_on_window": ok}
        yield f"validate/complex/{name}", complex_


def _suite_gorenstein(s: Session) -> Suite:
    reg = regular_module(s.alg)
    for name, d in s.diagrams.items():
        def check(d=d):
            rep = gproj_witness_report(d)
            gp = is_gproj(d)
            oracle = all(
                ext1(d, stalk_diagram(d.shape, s.alg, j, reg)).dim == 0 for j in d.shape.objects
            )
            verdict = "pass" if gp == oracle else "fail"
            return verdict, {"is_gproj": gp, "ext_oracle": oracle, "is_ginj": is_ginj(d), "is_wtriv": is_wtriv(d), "witness": rep}
        yield f"gorenstein/{name}", check


def _suite_kan(s: Session) -> Suite:
    for uname, u, dname, d in _functor_diagram_pairs(s):
        if is_gproj(d):
            def left(u=u, d=d):
                y = gproj_left_kan(u, d)
                # Hom(u_! d, t) = Hom(d, u^* t) against the loaded diagrams of
                # shape u.cod, or against the free ones j_!(Lambda) if none is
                targets = [t for t in s.diagrams.values() if t.shape is u.cod] or [
                    left_kan_from_point(u.cod, s.alg, j, regular_module(s.alg)) for j in u.cod.objects
                ]
                dims_ok = [len(hom_space_diagrams(y, t)) == len(hom_space_diagrams(d, restrict(u, t))) for t in targets]
                verdict = "pass" if all(dims_ok) else "fail"
                return verdict, {"adjunction_dims_checked": len(dims_ok)}
            yield f"kan/left/{uname}/{dname}", left
        if is_ginj(d):
            def right(u=u, d=d):
                y = ginj_right_kan(u, d)
                return "pass", {"target_dims": _dims(y)}
            yield f"kan/right/{uname}/{dname}", right


def _suite_approx(s: Session) -> Suite:
    for name, d in s.diagrams.items():
        def check(d=d):
            tr = approx_gproj(d)
            hull = hull_ginj(d)
            ok = tr.tags["wtriv"] and tr.tags["gproj"] and hull.tags["ginj"] and hull.tags["wtriv"]
            return ("pass" if ok else "fail"), {
                "cover_tags": tr.tags,
                "hull_tags": hull.tags,
                "cover_dims": _dims(tr.conflation.middle),
                "hull_dims": _dims(hull.conflation.middle),
            }
        yield f"approx/{name}", check


def _suite_stable_equiv(s: Session) -> Suite:
    for name, d in s.diagrams.items():
        if not is_gproj(d):
            continue
        def check(d=d):
            psi, hull = stable_roundtrip_witness(d)
            v = is_weak_equivalence(psi)
            return ("pass" if v.is_true else "fail"), {"roundtrip_weak_equivalence": v.status, "hull_dims": _dims(hull.conflation.middle)}
        yield f"stable-equiv/{name}", check


def _suite_sod(s: Session) -> Suite:
    """Loaded complexes, and the complete resolution of each loaded
    Gorenstein projective; a resolution's tc-part must also contract on
    the window widened by one.  sod_decompose raises unless its p-part has
    projective terms and its tc-part is termwise contractible."""
    m = s.margin

    def check(c: LazyComplex, contract: bool):
        res = sod_decompose(c, -m, m)
        contracted = is_contractible_on(res.tc_part, -m - 1, m + 1) if contract else None
        return ("fail" if contracted is False else "pass"), {"tc_termwise_contractible": True, "p_terms_projective": True, "tc_null_on_window": contracted, "window": [-m, m]}

    for name, c in s.complexes.items():
        def loaded(c=c):
            return check(c, contract=False)
        yield f"sod/{name}", loaded
    for name, d in s.diagrams.items():
        if is_gproj(d):
            def resolution(d=d):
                return check(complete_resolution(d), contract=True)
            yield f"sod/res({name})", resolution


def _suite_crosscheck(s: Session) -> Suite:
    for uname, u, dname, d in _functor_diagram_pairs(s):
        if not is_gproj(d):
            continue
        def check(u=u, d=d):
            v = crosscheck_kan(u, d, budget=s.budget, seed=s.seed, margin=max(1, s.margin - 1))
            verdict = {"true": "pass", "false": "fail", "unknown": "unknown"}[v.status]
            return verdict, {"reason": v.reason}
        yield f"crosscheck/{uname}/{dname}", check


@lru_cache(maxsize=16)
def _fold(c: DirectCategory) -> Tuple[CatFunctor, CatFunctor, CatFunctor]:
    """The inclusions of c into c ⊔ c and the fold c ⊔ c -> c, which
    restricts d to d on both copies.  Built once per shape instance, like
    homotopy._corner_in_square, so the memos keyed on the union serve every
    der1 check."""
    union, i1, i2 = disjoint_union(c, c)
    fold = CatFunctor(union, c, {t: o for i in (i1, i2) for o, t in i.obj_map.items()}, {t: f for i in (i1, i2) for f, t in i.mor_map.items()})
    return i1, i2, fold


def _suite_derivator_axioms(s: Session) -> Suite:
    # Der1: constructions over a disjoint union decompose componentwise
    cats = list(s.categories.values())
    if cats:
        c = cats[0]
        def der1(c=c):
            i1, i2, fold = _fold(c)
            ok = True
            for d in s.diagrams.values():
                if d.shape is not c:
                    continue
                both = restrict(fold, d)
                ok = ok and (is_gproj(both) == is_gproj(d))
                cov_union = projective_cover_diagram(both)
                cov = projective_cover_diagram(d)
                for o in c.objects:
                    ok = ok and cov_union.middle.at(i1.on_obj(o)).dim == cov.middle.at(o).dim
                    ok = ok and cov_union.middle.at(i2.on_obj(o)).dim == cov.middle.at(o).dim
            return ("pass" if ok else "fail"), {"union_objects": 2 * len(c.objects)}
        yield "derivator-axioms/der1", der1
    # Der2: witnesses on identity and zero maps of loaded Gorenstein projectives
    for name, d in s.diagrams.items():
        if not is_gproj(d):
            continue
        def der2(d=d):
            rep_id = der2_witness(identity_diagram_map(d))
            rep_zero = der2_witness(zero_diagram_map(d, d))
            ok = rep_id["agree"] and rep_zero["agree"]
            return ("pass" if ok else "fail"), {"identity": rep_id, "zero": rep_zero}
        yield f"derivator-axioms/der2/{name}", der2
    # Der3: successful construction of both adjoints on fixtures
    for uname, u, dname, d in _functor_diagram_pairs(s):
        if is_gproj(d):
            def der3(u=u, d=d):
                y = gproj_left_kan(u, d)
                return "pass", {"dims": _dims(y)}
            yield f"derivator-axioms/der3/left/{uname}/{dname}", der3
        if is_ginj(d):
            def der3r(u=u, d=d):
                y = ginj_right_kan(u, d)
                return "pass", {"dims": _dims(y)}
            yield f"derivator-axioms/der3/right/{uname}/{dname}", der3r
    # Der4: slice-square comparison on loaded functors with stalk complexes
    for uname, u, dname, d in _functor_diagram_pairs(s):
        def der4(u=u, d=d):
            t = LazyComplex.bounded(u.dom, s.alg, {0: d}, {})
            reports = {}
            ok = True
            for j in u.cod.objects:
                rep = der4_check(u, j, t, -1, 1)
                reports[j] = {"underived": rep.underived_ok, "derived": rep.derived_ok}
                ok = ok and rep.ok
            return ("pass" if ok else "fail"), reports
        yield f"derivator-axioms/der4/{uname}/{dname}", der4
    # Der5: arrow lifts of identity classes
    for name, d in s.diagrams.items():
        if not is_gproj(d):
            continue
        def der5(d=d):
            z = lift_to_arrow_diagram(identity_diagram_map(d))
            return "pass", {"lift_dims": _dims(z)}
        yield f"derivator-axioms/der5/{name}", der5


SUITE_RUNNERS = {
    "validate": _suite_validate,
    "gorenstein-report": _suite_gorenstein,
    "kan": _suite_kan,
    "approx": _suite_approx,
    "stable-equiv": _suite_stable_equiv,
    "sod": _suite_sod,
    "crosscheck": _suite_crosscheck,
    "derivator-axioms": _suite_derivator_axioms,
}


def _error_report(message: str, t0: float) -> Tuple[dict, int]:
    """The report of a run refused before any suite ran, and exit code 2."""
    return {"error": message, "items": [], "meta": {"wall_time_ms": int(1000 * (time.time() - t0))}}, 2


def run_scenario(scenario_path: str, seed: Optional[int] = None) -> Tuple[dict, int]:
    """Run every suite of a scenario file; returns (report, exit code).

    Suites run one after another: they share the session's unsynchronized
    caches.
    """
    t0 = time.time()
    base = Path(scenario_path).resolve().parent
    try:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        return _error_report(f"cannot read scenario: {exc}", t0)
    try:
        if not isinstance(scenario, dict):
            raise ScenarioError(f"malformed scenario: expected a JSON object, got {type(scenario).__name__}")
        suites = scenario.get("suites", [])
        if not isinstance(suites, list):
            raise ScenarioError("malformed scenario: suites must be a list of suite names")
        for name in suites:
            if not isinstance(name, str):
                raise ScenarioError(f"malformed scenario: suite name {name!r} is not a string")
            if name not in SUITE_RUNNERS:
                raise ScenarioError(f"unknown suite {name!r}")
            if suites.count(name) > 1:
                raise ScenarioError(f"malformed scenario: suite {name!r} is listed twice")
        if seed is not None:
            scenario["seed"] = seed
        session = Session(scenario, base)
        session.load()
    except (DerlabError, KeyError, OSError) as exc:
        return _error_report(str(exc), t0)

    items: List[dict] = []
    suite_ms: Dict[str, float] = {}
    for name in suites:
        t_suite = time.perf_counter()
        items.extend(_run_item(item_id, name, check) for item_id, check in SUITE_RUNNERS[name](session))
        suite_ms[name] = round(1000 * (time.perf_counter() - t_suite), 1)
    items.sort(key=lambda it: it["id"])
    summary = {
        "pass": sum(1 for it in items if it["verdict"] == "pass"),
        "fail": sum(1 for it in items if it["verdict"] == "fail"),
        "unknown": sum(1 for it in items if it["verdict"] == "unknown"),
    }
    code = exit_code_for(summary)
    report = {
        "scenario": str(Path(scenario_path).name),
        "seed": session.seed,
        "budget": session.budget,
        "window_margin": session.margin,
        "suites": suites,
        "items": items,
        "summary": summary,
        "meta": {"wall_time_ms": int(1000 * (time.time() - t0)), "suite_ms": suite_ms},
    }
    return report, code


def exit_code_for(summary: dict) -> int:
    """0 all pass; 1 a verification failure; 3 unknown verdicts present."""
    if summary.get("fail"):
        return 1
    if summary.get("unknown"):
        return 3
    return 0


def explain(report: dict, item_id: str) -> str:
    if not isinstance(report, dict):
        raise ValueError(f"not a report: expected a JSON object, got {type(report).__name__}")
    for it in report.get("items", []):
        if it["id"] == item_id:
            lines = [f"item: {it['id']}", f"suite: {it['suite']}", f"verdict: {it['verdict']}"]
            for key in sorted(it.get("details", {})):
                lines.append(f"{key}: {json.dumps(it['details'][key], sort_keys=True)}")
            return "\n".join(lines)
    raise KeyError(f"unknown item {item_id!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="derlab", description="Gorenstein diagram laboratory scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--report", default=None, help="write the JSON report here")
    exp = sub.add_parser("explain", help="render one report item")
    exp.add_argument("report")
    exp.add_argument("item")
    args = parser.parse_args(argv)

    if args.command == "run":
        report, code = run_scenario(args.scenario, seed=args.seed)
        text = json.dumps(report, sort_keys=True, indent=2)
        if args.report:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return 2
        if "error" in report:
            print(f"error: {report['error']}", file=sys.stderr)
        else:
            s = report["summary"]
            print(f"{s['pass']} pass, {s['fail']} fail, {s['unknown']} unknown ({report['meta']['wall_time_ms']} ms)")
            if not args.report:
                print(text)
        return code
    if args.command == "explain":
        try:
            with open(args.report, "r", encoding="utf-8") as fh:
                report = json.load(fh, object_pairs_hook=_unique_keys)
            print(explain(report, args.item))
        except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: not JSON, not UTF-8, or not a report
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
