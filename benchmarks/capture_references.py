"""Regenerate references/root_scan.json from the package in src/.

    PYTHONPATH=src python3 benchmarks/capture_references.py

Records `violation_threshold(m, k)` and `discord_12_peak(m, k)` for every
m in 0..64 and k in {0, 1}.  Run it only at a commit whose closed forms are
trusted: the root-scan gate compares every later commit with this file.
"""

import json
import subprocess
from pathlib import Path

from pacsqc.correlations import discord_12_peak, violation_threshold
from pacsqc.special import MAX_PHOTON_ORDER

OUT = Path(__file__).resolve().parent / "references" / "root_scan.json"


def main():
    keys = [(m, k) for m in range(MAX_PHOTON_ORDER + 1) for k in (0, 1)]
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=OUT.parent, capture_output=True, text=True)
    payload = {
        "captured_at": done.stdout.strip() or None,
        "references": {
            "threshold": {f"{m},{k}": violation_threshold(m, k) for m, k in keys},
            "peak": {f"{m},{k}": list(discord_12_peak(m, k)) for m, k in keys},
        },
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
