"""The benchmark harness under bench/ binds package functions by name: the
tracer wraps every TARGETS path and the runner reads every CACHES entry.  A
rename in the package must fail here, not in a benchmark run.  bench/ is only
read."""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import runner
        import tracer
        yield runner, tracer
    finally:
        sys.path.remove(str(BENCH))


def test_every_target_resolves(bench):
    _, tracer = bench
    for key, module, path, _ in tracer.TARGETS:
        _, obj = tracer._resolve(module, path)
        assert callable(tracer._function(obj)), key


def test_every_cache_is_a_module_level_lru_cache(bench):
    runner, _ = bench
    for name, cached in runner.CACHES.items():
        assert hasattr(cached, "cache_info") and hasattr(cached, "__wrapped__"), name
        module = sys.modules[cached.__module__]
        assert module.__name__.startswith("quiver_fmo.")
        assert getattr(module, cached.__name__) is cached, name


def test_timed_targets_outside_caches_are_plain_functions(bench):
    # the completeness check subtracts cache hits only for CACHES entries, so
    # any other timed target must reach its code on every call
    runner, tracer = bench
    for key, module, path, mode in tracer.TARGETS:
        if mode not in ("hot", "span") or key in runner.CACHES:
            continue
        fn = tracer._function(tracer._resolve(module, path)[1])
        assert inspect.isfunction(fn) and not hasattr(fn, "__wrapped__"), key


def test_generator_targets_are_generator_functions(bench):
    # the tracer drives a gen target through its generator frame (gi_frame),
    # so a plain function returning an iterator would break the traced run
    _, tracer = bench
    for key, module, path, mode in tracer.TARGETS:
        if mode == "gen":
            fn = tracer._function(tracer._resolve(module, path)[1])
            assert inspect.isgeneratorfunction(fn), key
