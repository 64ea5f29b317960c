import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import derlab.complexes
from derlab import cli
from derlab.algebra import memo_counts
from derlab.cli import SUITE_RUNNERS, Session, explain, main, run_scenario
from derlab.field import DerlabError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_empty_suite_list_exit_zero():
    report, code = run_scenario(str(SCENARIOS / "empty.json"))
    assert code == 0
    assert report["items"] == []
    assert report["summary"] == {"pass": 0, "fail": 0, "unknown": 0}


def test_gate_rejects_non_self_injective():
    report, code = run_scenario(str(SCENARIOS / "gate_failure.json"))
    assert code == 2
    assert "self-injective" in report["error"]


def test_missing_scenario_exit_two():
    report, code = run_scenario(str(SCENARIOS / "no_such_file.json"))
    assert code == 2


def test_unknown_suite_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": str(SCENARIOS / "dual_numbers.json"), "suites": ["nope"]}))
    report, code = run_scenario(str(bad))
    assert code == 2


def test_unknown_suite_is_reported_before_the_documents_load(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": "no_such_algebra.json", "suites": ["nope"]}))
    report, code = run_scenario(str(bad))
    assert code == 2 and report["items"] == []
    assert report["error"] == "unknown suite 'nope'"
    assert "wall_time_ms" in report["meta"]


def test_regression_scenario_passes():
    report, code = run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0, json.dumps(report.get("summary"), indent=2)
    assert report["summary"]["fail"] == 0
    # meta holds the wall time of the run and of each suite, in suite order
    assert list(report["meta"]["suite_ms"]) == report["suites"]
    assert all(ms >= 0 for ms in report["meta"]["suite_ms"].values())
    assert report["summary"]["unknown"] == 0
    assert report["summary"]["pass"] >= 50
    # gorenstein items carry witness dimensions
    gor = [it for it in report["items"] if it["suite"] == "gorenstein-report"]
    assert gor and all("witness" in it["details"] for it in gor)


def test_report_reproducible():
    rep1, _ = run_scenario(str(SCENARIOS / "regression.json"))
    rep2, _ = run_scenario(str(SCENARIOS / "regression.json"))
    rep1.pop("meta")
    rep2.pop("meta")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_explain_known_and_unknown_item(tmp_path):
    report, code = run_scenario(str(SCENARIOS / "regression.json"))
    some_id = report["items"][0]["id"]
    text = explain(report, some_id)
    assert some_id in text and "verdict" in text
    with pytest.raises(KeyError):
        explain(report, "no/such/item")


def test_main_entrypoint(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "empty.json"), "--report", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["pass"] == 0


def test_main_report_to_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(SCENARIOS / "empty.json"), "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("margin", [-1, -3])
def test_negative_window_margin_is_an_input_error(tmp_path, capsys, margin):
    # -1 gave the sod items the empty window 1..-1 and a pass; -3 escaped
    # as KeyError: -2 from the termwise contraction
    scen = _one_document_scenario(tmp_path, "scenario", {"window_margin": margin, "suites": ["sod"]})
    report, code = run_scenario(str(scen))
    assert code == 2 and report["items"] == []
    assert "window_margin must be non-negative" in report["error"]
    assert main(["run", str(scen)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_negative_seed_on_the_command_line_is_an_input_error(capsys):
    # a search that samples used to die in np.random.default_rng(-3)
    assert main(["run", str(SCENARIOS / "budget_zero.json"), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be non-negative" in err and "Traceback" not in err


def test_main_explain(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["run", str(SCENARIOS / "regression.json"), "--report", str(out)])
    capsys.readouterr()
    code = main(["explain", str(out), "derivator-axioms/der1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "derivator-axioms/der1" in captured.out


def test_main_explain_missing_report_is_an_input_error(tmp_path, capsys):
    assert main(["explain", str(tmp_path / "missing.json"), "derivator-axioms/der1"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_main_explain_report_not_an_object_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text(json.dumps([{"id": "derivator-axioms/der1"}]))
    assert main(["explain", str(out), "derivator-axioms/der1"]) == 2
    err = capsys.readouterr().err
    assert "not a report" in err and "Traceback" not in err


def test_budget_zero_reports_unknown_exit_three():
    report, code = run_scenario(str(SCENARIOS / "budget_zero.json"))
    assert code == 3
    assert report["summary"]["unknown"] >= 1
    unknowns = [it for it in report["items"] if it["verdict"] == "unknown"]
    assert unknowns and "budget" in unknowns[0]["details"]["reason"]


def test_exit_code_partition():
    from derlab.cli import exit_code_for

    assert exit_code_for({"pass": 3, "fail": 0, "unknown": 0}) == 0
    assert exit_code_for({"pass": 3, "fail": 1, "unknown": 2}) == 1
    assert exit_code_for({"pass": 3, "fail": 0, "unknown": 2}) == 3


def test_empty_shape_rejected(tmp_path):
    cat = tmp_path / "empty_cat.json"
    cat.write_text(json.dumps({"objects": [], "morphisms": [], "comp": {}}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"nothing": "empty_cat.json"},
        "suites": ["validate"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 2
    assert "empty" in report["error"]


def _loaded(scen: Path) -> Session:
    session = Session(json.loads(scen.read_text()), scen.parent)
    session.load()
    return session


def _builds() -> int:
    return sum(c["builds"] for c in memo_counts().values())


def test_sessions_keep_what_they_load_by_content_never_by_path(tmp_path):
    f2 = json.loads((SCENARIOS / "dual_numbers.json").read_text())
    (tmp_path / "f2.json").write_text(json.dumps(f2))
    (tmp_path / "f3.json").write_text(json.dumps({**f2, "p": 3}))
    (tmp_path / "copy").mkdir()
    (tmp_path / "copy" / "alg.json").write_text(json.dumps(f2))

    def scenario(name, alg):
        path = tmp_path / name
        path.write_text(json.dumps({
            "algebra": alg,
            "categories": {"point": str(SCENARIOS / "cat_point.json")},
            "diagrams": {"k": str(SCENARIOS / "diag_k_point.json")},
            "suites": ["validate", "gorenstein-report"],
        }))
        return path

    s2, s3, copied = scenario("s2.json", "f2.json"), scenario("s3.json", "f3.json"), scenario("copied.json", "copy/alg.json")
    # documents that differ give distinct algebras; the shape document they
    # share gives one shape; diagrams are read on every load
    a2, a3 = _loaded(s2), _loaded(s3)
    assert a2.alg is not a3.alg and (a2.alg.p, a3.alg.p) == (2, 3)
    assert a2.categories["point"] is a3.categories["point"] is _loaded(s2).categories["point"]
    assert a2.diagrams["k"] is not _loaded(s2).diagrams["k"]
    # their memos stay apart: the F_3 run builds, and F_2 runs around it
    # find their own entries
    assert run_scenario(str(s2))[1] == 0
    builds = _builds()
    assert run_scenario(str(s3))[1] == 0 and _builds() > builds
    builds = _builds()
    assert run_scenario(str(s2))[1] == 0 and _builds() == builds
    # the same document at another path hits
    assert _loaded(copied).alg is a2.alg
    # new content at the same path is loaded
    (tmp_path / "f2.json").write_text(json.dumps({**f2, "p": 3}))
    assert _loaded(s2).alg is a3.alg
    # the text keeps key order, which a category's composites follow
    square = json.loads((SCENARIOS / "cat_square.json").read_text())
    (tmp_path / "sq.json").write_text(json.dumps(square))
    (tmp_path / "qs.json").write_text(json.dumps({**square, "comp": dict(reversed(square["comp"].items()))}))
    path = tmp_path / "squares.json"
    path.write_text(json.dumps({"algebra": "f3.json", "categories": {"a": "sq.json", "b": "qs.json", "c": "sq.json"}}))
    shapes = _loaded(path).categories
    assert shapes["a"] is shapes["c"] and shapes["a"].composites == shapes["b"].composites[::-1]


def test_the_sessions_table_stays_within_its_bound(tmp_path):
    names = [f"c{i}" for i in range(cli.LOADED_MAX_ENTRIES + 2)]

    def scenario(names):
        for name in names:
            (tmp_path / f"{name}.json").write_text(json.dumps({"objects": [name], "morphisms": [], "comp": {}}))
        path = tmp_path / "scen.json"
        path.write_text(json.dumps({"algebra": str(SCENARIOS / "dual_numbers.json"), "categories": {n: f"{n}.json" for n in names}}))
        return _loaded(path).categories

    first = scenario(names)
    assert cli._shape.cache_info().currsize == cli.LOADED_MAX_ENTRIES
    # the least recently used shapes are evicted: the last shape loaded
    # hits, the first is built anew
    assert scenario([names[-1]])[names[-1]] is first[names[-1]] and scenario([names[0]])[names[0]] is not first[names[0]]
    assert cli._shape.cache_info().currsize == cli.LOADED_MAX_ENTRIES


def test_a_refused_document_is_never_kept(tmp_path):
    kept = cli._algebra.cache_info()
    for _ in range(2):
        report, code = run_scenario(str(SCENARIOS / "gate_failure.json"))
        assert code == 2 and "not self-injective" in report["error"]
    # both loads built the algebra, and neither kept it
    assert cli._algebra.cache_info().misses == kept.misses + 2
    assert cli._algebra.cache_info().currsize == kept.currsize
    # a diagram over a kept shape is read and validated on every load
    (tmp_path / "d.json").write_text((SCENARIOS / "diag_k_point.json").read_text())
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"point": str(SCENARIOS / "cat_point.json")},
        "diagrams": {"d": "d.json"},
        "suites": ["validate"],
    }))
    assert run_scenario(str(scen))[1] == 0
    (tmp_path / "d.json").write_text(json.dumps({"shape": "point", "objects": {"*": {"dim": 1, "action": [[[1]], [[1]]]}}, "morphisms": {}}))
    for _ in range(2):
        report, code = run_scenario(str(scen))
        assert code == 2 and "module law" in report["error"]


def test_module_law_violation_is_an_input_error(tmp_path):
    # x acting as [[1]] over F_2[x]/(x^2) breaks x * x = 0
    (tmp_path / "bad.json").write_text(json.dumps({
        "shape": "point",
        "objects": {"*": {"dim": 1, "action": [[[1]], [[1]]]}},
        "morphisms": {},
    }))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"point": str(SCENARIOS / "cat_point.json")},
        "diagrams": {"bad": "bad.json"},
        "suites": ["validate"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 2
    assert "module law" in report["error"]
    assert main(["run", str(scen)]) == 2


def test_modulus_above_the_bound_is_an_input_error(tmp_path):
    alg = json.loads((SCENARIOS / "dual_numbers.json").read_text())
    alg["p"] = 1048583  # the smallest prime above MODULUS_BOUND = 2**20
    (tmp_path / "alg.json").write_text(json.dumps(alg))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"algebra": "alg.json", "suites": ["validate"]}))
    report, code = run_scenario(str(scen))
    assert code == 2
    assert "MODULUS_BOUND" in report["error"]
    import derlab

    src = Path(derlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from derlab.cli import main; sys.exit(main())", "run", str(scen)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "MODULUS_BOUND" in proc.stderr
    # a modulus past int64 is refused the same way
    alg["p"] = 2**70 + 25
    (tmp_path / "alg.json").write_text(json.dumps(alg))
    report, code = run_scenario(str(scen))
    assert code == 2 and "malformed algebra document" in report["error"]


def test_sod_on_non_acyclic_complex_is_a_guarded_failure(tmp_path):
    k_point = json.loads((SCENARIOS / "diag_k_point.json").read_text())
    (tmp_path / "lone.json").write_text(json.dumps({"shape": "point", "terms": {"0": k_point}, "diffs": {}}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"point": str(SCENARIOS / "cat_point.json")},
        "complexes": {"lone": "lone.json"},
        "suites": ["sod"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 1
    [item] = report["items"]
    assert item["id"] == "sod/lone" and item["verdict"] == "fail"
    assert "acyclic" in item["details"]["error"]


def test_library_error_inside_a_suite_is_a_failed_item(tmp_path, monkeypatch, capsys):
    from derlab import cli
    from derlab.modules import ModuleError

    def broken(d):
        raise ModuleError("not a module map (probe)")

    monkeypatch.setattr(cli, "approx_gproj", broken)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"point": str(SCENARIOS / "cat_point.json")},
        "diagrams": {"k": str(SCENARIOS / "diag_k_point.json")},
        "suites": ["approx"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 1
    assert report["items"] == [
        {"id": "approx/k", "suite": "approx", "verdict": "fail", "details": {"error": "not a module map (probe)"}}
    ]
    assert main(["run", str(scen)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_short_ext1_basis_is_a_failed_item(tmp_path, monkeypatch):
    """ext1 checks its class representatives with a DiagramError, not an
    assert, so the check holds under python -O and reaches the report."""
    from derlab import diagrams

    class_reps = diagrams.class_reps
    monkeypatch.setattr(diagrams, "class_reps", lambda *args: class_reps(*args)[:-1])
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"arrow": str(SCENARIOS / "cat_arrow.json")},
        "diagrams": {"simple": str(SCENARIOS / "diag_stalk0_simple.json")},
        "suites": ["gorenstein-report"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 1
    [item] = report["items"]
    assert item["id"] == "gorenstein/simple" and item["verdict"] == "fail"
    assert "class representatives" in item["details"]["error"]


def test_every_library_error_is_a_derlab_error():
    import importlib
    import inspect
    import pkgutil

    import derlab

    defined = []
    for info in pkgutil.iter_modules(derlab.__path__):
        mod = importlib.import_module(f"derlab.{info.name}")
        for cls in vars(mod).values():
            if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == mod.__name__:
                defined.append(cls)
    assert len(defined) >= 10
    assert [cls for cls in defined if not issubclass(cls, DerlabError)] == []


def test_regression_reports_match_recorded_digests():
    """Scenario reports stay byte-identical to bench/regression_digests.json."""
    bench = SCENARIOS.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        from workloads import ScenarioRegression
    finally:
        sys.path.remove(str(bench))
    recorded = json.loads((bench / "regression_digests.json").read_text())
    got = ScenarioRegression.record_digests(SCENARIOS.parent)
    assert sorted(got) == sorted(recorded)
    for suite, expected in recorded.items():
        assert got[suite]["items"] == expected["items"], suite
        assert got[suite]["digest"] == expected["digest"], suite


def test_sod_of_a_loaded_complex_asks_no_projectivity_past_its_window(tmp_path):
    """A zero-tails complex over the arrow whose one term, the simple module
    at object 0 and zero at object 1 (not a projective diagram), sits two
    degrees past the window -2..2.  Its tc-part carries that diagram in
    degree 3, next to the window; sod still verifies the tc-part there."""
    simple = json.loads((SCENARIOS / "diag_stalk0_simple.json").read_text())
    (tmp_path / "far.json").write_text(json.dumps({"shape": "arrow", "policy": "zero-tails", "terms": {"4": simple}, "diffs": {}}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"arrow": str(SCENARIOS / "cat_arrow.json")},
        "complexes": {"far": "far.json"},
        "window_margin": 2,
        "suites": ["sod"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 0
    [item] = report["items"]
    assert item["id"] == "sod/far" and item["verdict"] == "pass", item
    assert item["details"]["tc_termwise_contractible"] is True


def test_sod_on_the_square_needs_no_joint_contraction_solve(tmp_path):
    """The complete resolution of the simple module at each vertex of the
    square, with identity structure maps, passes the sod suite without the
    contraction solve over the whole shape, which peaks at 1.09 GiB here."""
    assert not hasattr(derlab.complexes, "contraction_on_window")
    scen = tmp_path / "square.json"
    scen.write_text(json.dumps({
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"square": str(SCENARIOS / "cat_square.json")},
        "diagrams": {"simple": str(SCENARIOS / "diag_square_simple.json")},
        "suites": ["sod"],
    }))
    report, code = run_scenario(str(scen))
    assert code == 0
    [item] = report["items"]
    assert item["id"] == "sod/res(simple)" and item["verdict"] == "pass"
    assert item["details"]["tc_null_on_window"] is True


def test_regression_sod_and_crosscheck_need_no_contraction_solve(tmp_path):
    """Every termwise-contractibility answer in the regression sod and
    crosscheck suites is True and certified by a contraction built from
    generator lifts, so the contraction solve is never called."""
    assert not hasattr(derlab.complexes, "contraction_on_window")
    base = json.loads((SCENARIOS / "regression.json").read_text())
    for suite in ("sod", "crosscheck"):
        scen = dict(base, suites=[suite])
        for key in ("algebra", "categories", "functors", "diagrams", "complexes"):
            scen[key] = {k: str(SCENARIOS / v) for k, v in base[key].items()} if isinstance(base[key], dict) else str(SCENARIOS / base[key])
        path = tmp_path / f"regression-{suite}.json"
        path.write_text(json.dumps(scen))
        report, code = run_scenario(str(path))
        assert code == 0, report
        assert report["items"] and all(it["verdict"] == "pass" for it in report["items"]), report["items"]


def _one_document_scenario(tmp_path, kind, doc):
    """A validate-only scenario over the point and arrow shapes whose one
    algebra, category, functor, diagram or complex document is doc; for
    kind "scenario", doc is merged into the scenario, or replaces it if it
    is not a mapping."""
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    scen = {
        "algebra": str(SCENARIOS / "dual_numbers.json"),
        "categories": {"point": str(SCENARIOS / "cat_point.json"), "arrow": str(SCENARIOS / "cat_arrow.json")},
        "suites": ["validate"],
    }
    if kind == "algebra":
        scen["algebra"] = "doc.json"
    elif kind == "category":
        scen["categories"]["arrow"] = "doc.json"
    elif kind == "functor":
        scen["functors"] = {"f": "doc.json"}
    elif kind == "scenario":
        scen = {**scen, **doc} if isinstance(doc, dict) else doc
    else:
        scen["diagrams" if kind == "diagram" else "complexes"] = {"x": "doc.json"}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    return path


_FREE = {"dim": 2, "action": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]}
_FREE_POINT = {"objects": {"*": _FREE}, "morphisms": {}}
_NILPOTENT = [[0, 0], [1, 0]]
_IDENTITY = [[1, 0], [0, 1]]


def _point(dim, action):
    return {"shape": "point", "objects": {"*": {"dim": dim, "action": action}}, "morphisms": {}}


def _complex(policy, terms, diffs):
    return {"shape": "point", "policy": policy, "terms": terms, "diffs": diffs}


MALFORMED = {
    "huge-action-entry": ("diagram", _point(1, [[[1]], [[2**70]]])),
    "huge-diff-entry": ("complex", _complex("zero-tails", {"0": _FREE_POINT, "1": _FREE_POINT}, {"0": {"*": [[2**70, 0], [0, 0]]}})),
    "string-entry": ("diagram", _point(1, [[["a"]], [[0]]])),
    "null-dim": ("diagram", _point(None, [[[1]], [[0]]])),
    "action-not-a-list": ("diagram", _point(1, 5)),
    "objects-not-a-mapping": ("diagram", {"shape": "point", "objects": [], "morphisms": {}}),
    "diff-not-a-module-map": ("complex", _complex({"periodic": {"period": 1}}, {"0": _FREE_POINT}, {"0": {"*": [[0, 1], [0, 0]]}})),
    "diff-squares-to-nonzero": ("complex", _complex({"periodic": {"period": 1}}, {"0": _FREE_POINT}, {"0": {"*": [[1, 0], [0, 1]]}})),
    "period-zero": ("complex", _complex({"periodic": {"period": 0}}, {"0": _FREE_POINT}, {"0": {"*": _NILPOTENT}})),
    "periodic-without-terms": ("complex", _complex({"periodic": {"period": 1}}, {}, {})),
    "period-two-one-diff": ("complex", _complex({"periodic": {"period": 2}}, {"0": _FREE_POINT, "1": _FREE_POINT}, {"0": {"*": _NILPOTENT}})),
    "degree-not-an-integer": ("complex", _complex("zero-tails", {"x": _FREE_POINT}, {})),
    "dim-disagrees-with-action": ("diagram", _point(2, [[[1]], [[0]]])),
    "negative-period": ("complex", _complex({"periodic": {"period": -1}}, {"0": _FREE_POINT}, {"0": {"*": _NILPOTENT}})),
    "fractional-entry": ("diagram", _point(1, [[[1.5]], [[0]]])),
    "fractional-algebra-unit": ("algebra", {**json.loads((SCENARIOS / "dual_numbers.json").read_text()), "unit": [1.5, 0]}),
    "morphism-not-a-mapping": ("category", {"objects": ["0", "1"], "morphisms": [5]}),
    "functor-objects-not-a-mapping": ("functor", {"dom": "point", "cod": "arrow", "objects": 5}),
    "functor-objects-a-list-of-pairs": ("functor", {"dom": "arrow", "cod": "point", "objects": ["0*", "1*"], "morphisms": {"e0": "1_*"}}),
    "seed-not-an-integer": ("scenario", {"seed": "abc"}),
    "budget-not-an-integer": ("scenario", {"budget": 1.5}),
    "window-margin-not-an-integer": ("scenario", {"window_margin": None}),
    "window-margin-negative": ("scenario", {"window_margin": -1}),
    "seed-negative": ("scenario", {"seed": -1}),
    "budget-negative": ("scenario", {"budget": -1}),
    "suite-listed-twice": ("scenario", {"suites": ["validate", "validate"]}),
    "scenario-not-an-object": ("scenario", ["validate"]),
    "categories-not-a-mapping": ("scenario", {"categories": []}),
    "document-path-not-a-string": ("scenario", {"diagrams": {"x": 5}}),
    "suites-not-a-list": ("scenario", {"suites": 5}),
    "suite-name-a-list": ("scenario", {"suites": [["kan"]]}),
    "suite-name-an-object": ("scenario", {"suites": [{"kan": 1}]}),
    "policy-not-a-policy": ("complex", _complex(5, {"0": _FREE_POINT, "1": _FREE_POINT}, {"0": {"*": _IDENTITY}})),
    "policy-periodic-without-period": ("complex", _complex("periodic", {"0": _FREE_POINT, "1": _FREE_POINT}, {"0": {"*": _IDENTITY}})),
    "category-objects-a-string": ("category", {"objects": "01", "morphisms": [{"name": "e0", "src": "0", "tgt": "1"}]}),
    "algebra-basis-a-string": ("algebra", {**json.loads((SCENARIOS / "dual_numbers.json").read_text()), "basis": "1x"}),
    "algebra-dim-not-the-basis-size": ("algebra", {**json.loads((SCENARIOS / "dual_numbers.json").read_text()), "dim": 7}),
    "degree-key-with-leading-zero": ("complex", _complex("zero-tails", {"0": _FREE_POINT, "00": _FREE_POINT}, {})),
    "degree-key-with-underscore": ("complex", _complex("zero-tails", {"1_0": _FREE_POINT}, {})),
    "diff-degree-key-with-sign": ("complex", _complex("zero-tails", {"0": _FREE_POINT, "1": _FREE_POINT}, {"+0": {"*": _NILPOTENT}})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(tmp_path, capsys, case):
    kind, doc = MALFORMED[case]
    scen = _one_document_scenario(tmp_path, kind, doc)
    report, code = run_scenario(str(scen))
    assert code == 2
    assert report["items"] == [] and "malformed" in report["error"]
    assert "wall_time_ms" in report["meta"]
    assert main(["run", str(scen)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _repeat_key(text, key, first):
    """text with key given the value first just before its own entry."""
    return text.replace(f'"{key}": ', f'"{key}": {first}, "{key}": ', 1)


@pytest.mark.parametrize("kind", ["algebra", "complex", "scenario"])
def test_a_repeated_key_is_an_input_error(tmp_path, capsys, kind):
    """json.load alone keeps the last of two equal keys: the algebra would
    load as F_2, the complex with one term, the scenario with seed 0."""
    free = json.dumps(_FREE_POINT)
    doc = {"complex": _complex("zero-tails", {}, {})}.get(kind, {})
    scen = _one_document_scenario(tmp_path, kind, doc)
    if kind == "algebra":
        (tmp_path / "doc.json").write_text(_repeat_key((SCENARIOS / "dual_numbers.json").read_text(), "p", 3))
    elif kind == "complex":
        (tmp_path / "doc.json").write_text(json.dumps(doc).replace('"terms": {}', f'"terms": {{"0": {free}, "0": {free}}}'))
    else:
        scen.write_text(_repeat_key(scen.read_text(), "suites", '["validate", "sod"]'))
    report, code = run_scenario(str(scen))
    assert code == 2 and report["items"] == []
    assert "duplicate key" in report["error"]
    assert main(["run", str(scen)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_explain_refuses_a_report_with_a_repeated_key(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text('{"items": [], "items": [{"id": "a", "suite": "validate", "verdict": "pass"}]}')
    assert main(["explain", str(out), "a"]) == 2
    assert "duplicate key 'items'" in capsys.readouterr().err


def test_unreadable_document_is_an_input_error(tmp_path, capsys):
    scen = _one_document_scenario(tmp_path, "diagram", {})
    (tmp_path / "doc.json").write_text("{not json")
    report, code = run_scenario(str(scen))
    assert code == 2
    assert report["items"] == [] and "doc.json" in report["error"]
    assert "wall_time_ms" in report["meta"]
    assert main(["run", str(scen)]) == 2
    scen.write_bytes(b"\xff\xfe")  # a scenario that is not UTF-8
    report, code = run_scenario(str(scen))
    assert code == 2 and "cannot read scenario" in report["error"]
    assert "wall_time_ms" in report["meta"]
    assert main(["run", str(scen)]) == 2
    assert "Traceback" not in capsys.readouterr().err


_FUZZ_BASES = [
    json.loads((SCENARIOS / name).read_text())
    for name in ("diag_k_point.json", "diag_socle_arrow.json", "diag_stalk0_simple.json", "diag_free_at0.json")
]
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**70, -(2**70), 1.5, "a", None, True, [], {}, [[1]], [[1, 0], [0, 1]]]).map(copy.deepcopy),
)


def _paths(node, prefix, entries_only=False):
    children = sorted(node.items()) if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else []
    if not entries_only or isinstance(node, int):
        yield prefix
    for key, child in children:
        yield from _paths(child, prefix + (key,), entries_only)


def _mutate(draw, base, fewest=1, entries_only=False, values=_FUZZ_VALUES):
    """base with fewest to three nodes below its root (only integer entries
    when entries_only, and those only replaced) replaced by values, deleted
    or appended to."""
    doc = {"root": copy.deepcopy(base)}
    rnd = draw(st.randoms(use_true_random=False))  # uniform over nodes; sampled_from favours the first
    for _ in range(draw(st.integers(fewest, 3))):
        paths = [q for q in _paths(doc["root"], ("root",), entries_only) if len(q) > 1]
        if not paths:
            break
        path = rnd.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace"] if entries_only else ["replace", "delete", "append"]))
        if op == "delete":
            del parent[key]
        elif op == "append" and isinstance(parent[key], list):
            parent[key].append(draw(values))
        else:
            parent[key] = draw(values)
    return doc["root"]


@st.composite
def _mutated_diagram_document(draw):
    """A fixture diagram document with one to three nodes below its root
    replaced, deleted or appended to."""
    return _mutate(draw, draw(st.sampled_from(_FUZZ_BASES)))


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_diagram_document())
def test_loader_fuzz_always_reports(tmp_path, doc):
    """Mutated diagram documents give a report and a documented exit code,
    never an escaping exception."""
    scen = _one_document_scenario(tmp_path, "diagram", doc)
    data = json.loads(scen.read_text())
    data["suites"] = ["validate", "gorenstein-report"]
    scen.write_text(json.dumps(data))
    report, code = run_scenario(str(scen))
    assert code in (0, 1, 2, 3)
    assert ("error" in report) == (code == 2)
    assert isinstance(report["items"], list)


_FREE_ARROW = json.loads((SCENARIOS / "diag_free_at0.json").read_text())
# each document kind with its base documents, and the fixtures a scenario
# loads beside it (added to its point and arrow shapes) so that every suite
# has something to run on it
_SUITE_FUZZ = {
    "diagram": (
        _FUZZ_BASES + [json.loads((SCENARIOS / "diag_square_simple.json").read_text())],
        {"categories": {"square": "cat_square.json"}, "functors": {"at0": "fun_at0.json", "to_point": "fun_to_point.json"}},
    ),
    "complex": (
        [
            json.loads((SCENARIOS / "cx_two_periodic.json").read_text()),
            _complex("zero-tails", {"0": _FREE_POINT, "1": _FREE_POINT}, {"0": {"*": _IDENTITY}}),
            {"shape": "arrow", "terms": {"0": _FREE_ARROW, "1": _FREE_ARROW}, "diffs": {"0": {"0": _IDENTITY, "1": _IDENTITY}}},
        ],
        {},
    ),
    "functor": (
        [json.loads((SCENARIOS / f"fun_{name}.json").read_text()) for name in ("at0", "at1", "to_point")],
        {"diagrams": {"k": "diag_k_point.json", "socle": "diag_socle_arrow.json"}},
    ),
}


@st.composite
def _mutated_document(draw):
    """(kind, a diagram, complex or functor document with up to three nodes
    mutated; half the time only integer entries, set to small integers, so
    that the document keeps its structure and often still loads)."""
    kind = draw(st.sampled_from(sorted(_SUITE_FUZZ)))
    base = draw(st.sampled_from(_SUITE_FUZZ[kind][0]))
    if draw(st.booleans()):
        return kind, _mutate(draw, base, fewest=0, entries_only=True, values=st.integers(-3, 3))
    return kind, _mutate(draw, base)


def _validate_loaded_objects(scen):
    """Raise unless every diagram and complex the scenario loads passes its
    own validation (functors validate when they are built)."""
    s = Session(json.loads(scen.read_text()), scen.parent)
    s.load()
    for d in s.diagrams.values():
        d.validate()
    for c in s.complexes.values():
        for k in range(-s.margin - 1, s.margin + 2):
            c.term(k).validate()
            c.diff(k).validate()  # beside d^(k-1), also checks d o d = 0


@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_document())
def test_suite_fuzz_always_reports(tmp_path, case):
    """Every suite over a mutated diagram, complex or functor document gives
    a report and a documented exit code, and no pass item unless every
    loaded object validates."""
    kind, doc = case
    scen = _one_document_scenario(tmp_path, kind, doc)
    data = json.loads(scen.read_text())
    for key, table in _SUITE_FUZZ[kind][1].items():
        data[key] = {**data.get(key, {}), **{name: str(SCENARIOS / rel) for name, rel in table.items()}}
    data["suites"] = list(SUITE_RUNNERS)
    scen.write_text(json.dumps(data))
    report, code = run_scenario(str(scen))
    assert code in (0, 1, 2, 3)
    assert ("error" in report) == (code == 2)
    if code != 2 and any(it["verdict"] == "pass" for it in report["items"]):
        _validate_loaded_objects(scen)


def test_the_ground_field_runs_every_suite(tmp_path):
    # F_2 with its zero radical declared once failed the self-injectivity
    # gate with "hstack of nothing"
    (tmp_path / "alg.json").write_text(json.dumps({"p": 2, "basis": ["1"], "dim": 1, "unit": [1], "mul": [[[1]]], "radical": []}))
    (tmp_path / "one.json").write_text(json.dumps({
        "shape": "arrow",
        "objects": {"0": {"dim": 1, "action": [[[1]]]}, "1": {"dim": 1, "action": [[[1]]]}},
        "morphisms": {"e0": [[1]]},
    }))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "algebra": "alg.json",
        "categories": {"arrow": str(SCENARIOS / "cat_arrow.json"), "point": str(SCENARIOS / "cat_point.json")},
        "functors": {"to_point": str(SCENARIOS / "fun_to_point.json")},
        "diagrams": {"one": "one.json"},
        "suites": list(SUITE_RUNNERS),
    }))
    report, code = run_scenario(str(scen))
    assert code == 0, report.get("error")
    assert report["summary"] == {"pass": 17, "fail": 0, "unknown": 0}
    assert {it["suite"] for it in report["items"]} == set(SUITE_RUNNERS)
    # no point-shaped diagram is loaded, so kan/left checks against j_!(Lambda)
    kan_left = [it for it in report["items"] if it["id"].startswith("kan/left/")]
    assert kan_left and all(it["details"]["adjunction_dims_checked"] >= 1 for it in kan_left)
    assert main(["run", str(scen), "--report", str(tmp_path / "report.json")]) == 0
