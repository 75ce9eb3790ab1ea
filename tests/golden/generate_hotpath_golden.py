"""Regenerate ``hotpath_golden.json`` from the current implementation.

Run this ONLY on a commit whose hot path is trusted.  It was first
recorded on the scalar implementation the vectorized one must match;
that implementation is kept as the test-only oracle in
``tests/reference/``, and the randomized tests in ``tests/hotpath/``
compare against it directly:

    PYTHONPATH=src python -m tests.golden.generate_hotpath_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from .hotpath_scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "hotpath_golden.json"


def main() -> None:
    golden = {}
    for name, fn in SCENARIOS.items():
        print(f"recording {name} ...")
        golden[name] = fn()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
