"""Every test starts from empty package caches.

The library caches whole verdicts (the f = 1 theorem cores, involution
reports, restriction routes), so a value cached by one test must not outlive
it into another, where a monkeypatch may have changed what the cached
function computes.
"""

import sys

import pytest


def package_caches():
    """Every functools.lru_cache bound at the top level of a loaded
    quiver_fmo module."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "quiver_fmo" or name.startswith("quiver_fmo."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    seen[id(value)] = value
    return list(seen.values())


@pytest.fixture(autouse=True)
def fresh_package_caches():
    for cache in package_caches():
        cache.cache_clear()
