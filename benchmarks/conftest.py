"""Benchmark harness helpers.

Each paper table/figure has one benchmark that runs its experiment in
fast mode, attaches the headline metrics to ``benchmark.extra_info`` and
asserts the paper's qualitative claims (a benchmark whose shape is wrong
is worse than a slow one).

Profiling recipe for perf PRs
-----------------------------

Wall-clock work on the simulator should start from a profile, not a
guess.  Any benchmark in this directory doubles as a profiling driver::

    PYTHONPATH=src python -m cProfile -o out.prof benchmarks/bench_hotpath.py --smoke
    python -c "import pstats; pstats.Stats('out.prof').sort_stats('tottime').print_stats(25)"

Read ``tottime`` first (self time: the interpreter hot spots) and
``cumtime`` second (who drives them).  The hot-path contract lives in
``bench_hotpath.py``.  Production ``src/`` keeps one implementation of
each hot operation; the scalar references it replaced live in the
test-only package ``tests/reference`` (``ScalarSsdSlsBackend``,
``ScalarNdpSlsBackend``, the per-page FTL read, the dict caches and
update overlay).  The equivalence tests pin them to production, and
``bench_hotpath.py`` imports them as its "before" side, so a perf change
can still be measured as a before/after ratio with bit-identical
simulated results.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """pedantic single-shot run for multi-second experiment benches."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def attach_rows(benchmark, result, keys):
    """Store selected row fields in extra_info for the report."""
    benchmark.extra_info["experiment"] = result.experiment
    compact = []
    for row in result.rows:
        compact.append({k: row[k] for k in keys if k in row})
    benchmark.extra_info["rows"] = compact
