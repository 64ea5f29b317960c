"""Record the scenario-regression digests at the checked-out commit.

    python3 bench/record_digests.py

Writes bench/regression_digests.json: for every suite of
scenarios/regression.json, the digest of its one-suite report (without
`meta` and the echoed seed) at seed 0 and the digest of each report item.
Only a change that is meant to alter scenario reports should re-record it.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from workloads import ScenarioRegression  # noqa: E402

if __name__ == "__main__":
    digests = ScenarioRegression.record_digests(ROOT)
    with open(ScenarioRegression.digests_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"recorded {sum(len(d['items']) for d in digests.values())} items over {len(digests)} suites")
