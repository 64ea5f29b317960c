import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from derlab.cli import explain, main, run_scenario

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


def test_regression_scenario_passes():
    report, code = run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0, json.dumps(report.get("summary"), indent=2)
    assert report["summary"]["fail"] == 0
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


def test_workers_flag_same_items():
    rep1, code1 = run_scenario(str(SCENARIOS / "regression.json"))
    rep2, code2 = run_scenario(str(SCENARIOS / "regression.json"), workers=3)
    assert code1 == code2 == 0
    assert [it["id"] for it in rep1["items"]] == [it["id"] for it in rep2["items"]]
    assert [it["verdict"] for it in rep1["items"]] == [it["verdict"] for it in rep2["items"]]


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


def test_main_explain(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["run", str(SCENARIOS / "regression.json"), "--report", str(out)])
    capsys.readouterr()
    code = main(["explain", str(out), "derivator-axioms/der1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "derivator-axioms/der1" in captured.out


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
