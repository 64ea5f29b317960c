"""The semiorthogonal split past the arrow: scenarios/sod_square.json runs
the sod suite over the square, whose three degree levels take the
recursion of complexes.sod_decompose through three objects.  Its report
(without `meta` and the echoed seed), each of its items, and the bytes of
the split itself (the terms and differentials of the p-part and the
tc-part and the components of the map p-part -> x, on the suite's window)
keep the SHA-256 digests in tests/sod_square_digests.json.  Only a change
meant to alter these records them again:

    PYTHONPATH=src python tests/test_sod_square.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from derlab.cli import Session, run_scenario
from derlab.complexes import complete_resolution, sod_decompose

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "sod_square.json"
DIGESTS = Path(__file__).resolve().parent / "sod_square_digests.json"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _feed(h, a: np.ndarray) -> None:
    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())


def _feed_diagram(h, x) -> None:
    for o in x.shape.objects:
        for act in x.at(o).action:
            _feed(h, act.a)
    for f in x.shape.nonidentity_morphisms():
        _feed(h, x.mats[f].a)


def split_digest() -> str:
    """The bytes of the split of square_simple's complete resolution on the
    sod suite's window -m..m, with every differential each part has."""
    scenario = json.loads(SCENARIO.read_text())
    session = Session(scenario, SCENARIO.parent)
    session.load()
    m = session.margin
    res = sod_decompose(complete_resolution(session.diagrams["square_simple"]), -m, m)
    h = hashlib.sha256()
    for part, lo, hi in ((res.p_part, -m - 1, m + 1), (res.tc_part, -m - 2, m)):
        for k in range(lo, hi + 1):
            _feed_diagram(h, part.term(k))
            for o in part.shape.objects:
                _feed(h, part.diff(k).comps[o].a)
    for k in range(-m - 1, m + 2):
        for o in res.map_p.src.shape.objects:
            _feed(h, res.map_p.comp(k).comps[o].a)
    return h.hexdigest()


def sod_square_digests() -> dict:
    report, code = run_scenario(str(SCENARIO))
    assert code == 0, report["summary"]
    normalized = {k: v for k, v in report.items() if k not in ("meta", "seed", "scenario")}
    return {"digest": _sha(normalized), "items": {it["id"]: _sha(it) for it in report["items"]}, "split": split_digest()}


def test_sod_square_reports_and_split_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    got = sod_square_digests()
    assert got["items"] == recorded["items"]
    assert got["digest"] == recorded["digest"]
    assert got["split"] == recorded["split"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(sod_square_digests(), sort_keys=True, indent=1) + "\n")
