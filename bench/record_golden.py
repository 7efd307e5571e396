"""Record golden.json: a checksum of the count sequence for every (h, n_max)
that the count workloads can choose and that the Catalan and Fibonacci
oracles do not already determine.

    python3 bench/record_golden.py

Each sequence comes from count --method all, so the five methods agreed on it
when it was recorded.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import (  # noqa: E402
    GOLDEN_PATH, CountLargeH, CrosscheckSmallH, Session, count_argv, sequence_checksum,
)


def main() -> int:
    counts = {}
    for workload in (CrosscheckSmallH, CountLargeH):
        for h, n_max in workload.golden_keys():
            rc, out, err = Session().cli(count_argv(h, n_max, "all", "text"))
            if rc != 0:
                sys.exit(f"count --h {h} --n-max {n_max} failed: {err}")
            counts[f"{h},{n_max}"] = sequence_checksum(out.strip().split(","))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"hash": "sha256 of the comma-joined counts", "counts": counts}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
