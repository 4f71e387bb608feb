"""Rewrite ``bench/golden.json`` from a traced suite result:

    python3 -m bench --seed 3 --trace --repeats 1
    python3 bench/golden.py bench/out/result-seed3.json

The file records, per workload at the default seed and full size, the
signature, the operation count and every per-layer count; a run at
that seed that leaves them prints a ``signature_drift`` note.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: find the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.spec import EXACT_UNITS, ROOT


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    result = json.loads(Path(argv[0]).read_text("utf-8"))
    golden = {
        "seed": result["header"]["seed"],
        "size": result["header"]["size"],
        "workloads": {
            name: {
                "signature": entry["signature"], "ops": entry["ops"],
                **{metric: value["value"] for metric, value
                   in entry["per_layer"].items()
                   if value["unit"] in EXACT_UNITS},
            }
            for name, entry in result["workloads"].items()
        },
    }
    path = ROOT / "bench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n", "utf-8")
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
