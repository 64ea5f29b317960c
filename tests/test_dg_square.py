"""The dg-model route past the arrow: scenarios/dg_square.json runs the
crosscheck and derivator-axioms suites over the square, along its identity
and its map to the point.  Its report (without `meta` and the echoed seed)
and each of its items keep the SHA-256 digests in
tests/dg_square_digests.json.  Only a change meant to alter these reports
records them again:

    PYTHONPATH=src python tests/test_dg_square.py
"""

import hashlib
import json
from pathlib import Path

from derlab.cli import run_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "dg_square.json"
DIGESTS = Path(__file__).resolve().parent / "dg_square_digests.json"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def dg_square_digests() -> dict:
    report, code = run_scenario(str(SCENARIO))
    assert code == 0, report["summary"]
    normalized = {k: v for k, v in report.items() if k not in ("meta", "seed", "scenario")}
    return {"digest": _sha(normalized), "items": {it["id"]: _sha(it) for it in report["items"]}}


def test_dg_square_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = dg_square_digests()
    assert got["items"] == recorded["items"]
    assert got["digest"] == recorded["digest"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(dg_square_digests(), sort_keys=True, indent=1) + "\n")
