"""Self-test of the benchmark at tiny sizes (about half a minute).

Checks that every metric BENCHMARK.json names is printed, with its unit,
by both kinds of run; that the output parses; and that the correctness
gate turns an injected wrong SLS value and an injected exception into a
failed result and a non-zero exit.  Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rm3_cots_ssd", "fleet_ndp", "aged_update")


def run(*args: str):
    """Run the benchmark; return (exit code, parsed last line, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "1", *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stdout


def expect(condition: bool, message: str, failures: List[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def check_metrics(
    result: Dict, declared: List[Dict], label: str, failures: List[str]
) -> None:
    for workload in WORKLOADS:
        for metric in declared:
            key = f"{workload}/{metric['name']}"
            entry = result["metrics"].get(key)
            expect(
                entry is not None
                and entry.get("unit") == metric["unit"]
                and isinstance(entry.get("value"), (int, float))
                and math.isfinite(entry["value"]),
                f"{label}: {key} printed as a number in {metric['unit']}",
                failures,
            )
    expected = len(WORKLOADS) * len(declared)
    expect(
        len(result["metrics"]) == expected,
        f"{label}: exactly {expected} metrics, no others",
        failures,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: List[str] = []

    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        label = f"--trace {trace}"
        code, result, _ = run("--workload", "all", "--trace", trace)
        expect(code == 0 and result["correct"], f"{label}: all workloads correct", failures)
        expect(
            result["failed"] == 0 and result["attempted"] > 0,
            f"{label}: attempted {result['attempted']}, failed {result['failed']}",
            failures,
        )
        check_metrics(result, declared, label, failures)

    code, result, _ = run("--workload", "rm3_cots_ssd", "--inject", "wrong_value")
    expect(
        code != 0 and not result["correct"] and result["failed"] >= 1
        and not result["metrics"],
        "an injected wrong SLS value fails the run, with no numbers",
        failures,
    )

    code, result, out = run("--workload", "all", "--inject", "raise")
    per_workload = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    expect(
        code != 0 and not result["correct"]
        and result["failed"] == result["attempted"] > 0,
        "an injected exception fails the run and counts every request",
        failures,
    )
    expect(
        len(per_workload) == len(WORKLOADS) + 1
        and "InjectedFault" in out,
        "every workload still runs and records the exception",
        failures,
    )

    print(f"selftest: {'FAILED' if failures else 'passed'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
