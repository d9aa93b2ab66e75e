"""Properties that hold across every module of dcspin."""
import importlib
import pkgutil

import dcspin


def _lru_caches():
    """(qualified name, wrapper) of every functools.lru_cache in dcspin,
    at module level and on classes."""
    for info in pkgutil.iter_modules(dcspin.__path__, "dcspin."):
        module = importlib.import_module(info.name)
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type) and c.__module__ == info.name]
        for scope in scopes:
            for obj in scope.values():
                if callable(getattr(obj, "cache_parameters", None)):
                    yield f"{obj.__module__}.{obj.__qualname__}", obj


def test_every_lru_cache_is_bounded():
    """An unbounded cache grows for the life of the process; every cache in
    the package holds a fixed number of entries."""
    caches = dict(_lru_caches())
    assert "dcspin.waveform._span_plan" in caches
    unbounded = [name for name, f in caches.items() if f.cache_parameters()["maxsize"] is None]
    assert unbounded == []
