"""Test-only scalar oracles for the simulator's hot operations.

Each module keeps the per-row form a production hot path replaced,
verbatim: ``caches`` (host caches), ``backends`` (SSD op and NDP split),
``ftl`` (multi-page read), ``data`` (update overlay) and ``resources``
(the event-driven stations the closed-form ones replaced).  The equivalence
tests and ``benchmarks/bench_hotpath.py`` compare against them;
production code never imports this package.  Do not optimize it.
"""
