"""The tier-1 contract stays consistent across ROADMAP, CI and pyproject.

Tier-1 is the gate every PR is judged against; these checks fail loudly
when the documented command, the CI workflow and the pytest config
drift apart — the wall-clock audit's "assert the tier-1 command in
ROADMAP still matches CI" guard.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1_COMMAND = "python -m pytest -x -q"


def test_roadmap_documents_tier1_command():
    roadmap = (REPO / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md lost its Tier-1 verify line"
    assert TIER1_COMMAND in match.group(1), match.group(1)
    assert "PYTHONPATH=src" in match.group(1), match.group(1)


def test_ci_runs_the_same_tier1_command():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert TIER1_COMMAND in ci, "CI no longer runs the ROADMAP tier-1 command"
    assert "PYTHONPATH: src" in ci, "CI tier-1 step lost PYTHONPATH=src"


def test_ci_coverage_job_enforces_serving_floor():
    """The coverage job measures the serving tiers — including the
    live-update write path's workload and FTL halves — with a >=85%
    floor and uploads the report as an artifact."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "--cov=repro.serving" in ci
    assert "--cov=repro.cluster" in ci
    assert "--cov=repro.workload" in ci
    assert "--cov=repro.ftl" in ci
    assert "--cov-fail-under=85" in ci
    assert "upload-artifact" in ci


def test_ci_runs_cluster_bench_smoke():
    """The cluster routing contract is exercised on every push, and the
    JSON assert keeps the report shape honest."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_cluster.py --smoke" in ci
    assert "BENCH_cluster.json" in ci


def test_ci_runs_updates_bench_smoke():
    """The live-update interference contract (p99 degrades under naive
    interleaving, off-peak batching recovers it) runs on every push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_updates.py --smoke" in ci
    assert "BENCH_updates.json" in ci
    assert "p99_recovered_x" in ci


def test_ci_runs_layout_bench_smoke():
    """The frequency-layout contract (fewer flash page reads per bag
    than modulo, migration recovering the post-shift gap) runs on every
    push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_layout.py --smoke" in ci
    assert "BENCH_layout.json" in ci
    assert "page_read_reduction_x" in ci
    assert "shift_recovery_frac" in ci


def test_ci_runs_hotpath_bench_smoke():
    """The hot-path bench is the only non-test consumer of the scalar
    oracles in ``tests/reference``; CI runs it so its sim-identity
    asserts and the JSON shape check exercise them on every push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_hotpath.py --smoke" in ci
    assert "BENCH_hotpath.json" in ci
    assert "'cache_filter' in r and 'fig6_style' in r" in ci


def test_pyproject_declares_slow_marker_and_cov_extra():
    pyproject = (REPO / "pyproject.toml").read_text()
    assert 'slow' in pyproject and "markers" in pyproject
    assert "pytest-cov" in pyproject, "[test] extra lost pytest-cov"
