"""Write bench/reference.json: the final x of each bundled run and the
sigma_bar of each certify_grid model at the default seed.

The committed file was made from the package as it stood when the benchmark
was added; regenerate it only when a change is meant to alter these outputs.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from timing import OpClock
    from workloads import DEFAULT_SEED, REFERENCE_PATH

    reference = {"bundled_runs": {"x": {}}, "certify_grid": {
        "seed": DEFAULT_SEED, "sigma_bar": []}}
    # BundledRuns reads the file it is about to fill, so start from a stub
    REFERENCE_PATH.write_text(json.dumps(reference), encoding="utf-8")

    bundled = workloads.BundledRuns(DEFAULT_SEED)
    for (name, _, _), result in zip(bundled.problems, bundled.run_pass(OpClock())):
        reference["bundled_runs"]["x"][name] = result.x.tolist()
    grid = workloads.CertifyGrid(DEFAULT_SEED)
    for sigma_bar, _ in grid.run_pass(OpClock()):
        reference["certify_grid"]["sigma_bar"].append(sigma_bar)

    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
