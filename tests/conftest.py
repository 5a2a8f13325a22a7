import importlib
import pkgutil

import pytest

import qhall


@pytest.fixture
def qhall_memos() -> dict:
    """Every lru_cache'd function defined in a qhall module, by
    "module.name"."""
    memos = {}
    for info in pkgutil.iter_modules(qhall.__path__):
        module = importlib.import_module(f"qhall.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = obj
    return memos


@pytest.fixture
def cold_memos(qhall_memos):
    """Every qhall memo emptied before and after, so that no row cached
    before a planted fault serves it, and no planted row outlives its
    test."""
    for memo in qhall_memos.values():
        memo.cache_clear()
    yield
    for memo in qhall_memos.values():
        memo.cache_clear()
