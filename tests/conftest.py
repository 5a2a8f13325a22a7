import importlib
import pkgutil

import pytest

import qhall
from qhall.cartan import A3
from qhall.ratfunc import IntPoly, RatFunc
from qhall.verify import Session, run_suite


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


@pytest.fixture
def cold_a3_verify(cold_memos):
    """A3 after a verify of its f, u and ti suites on empty memos, at
    weight bound 3 and T~ degree 2; the memos are emptied again after
    the test."""
    session = Session(datum=A3, weight_bound=3, ttilde_degree=2)
    for suite in ("f", "u", "ti"):
        assert all(r.ok for r in run_suite(session, suite)), suite
    return A3


@pytest.fixture
def one_object_per_coefficient():
    """A check that every Q(v) value or Laurent polynomial met anywhere in
    its argument (nested tuples, lists, dicts, elements) is the first
    object met of its value, and that some value is met twice; it returns
    how many were met."""
    return _one_object_per_coefficient


def _one_object_per_coefficient(values) -> int:
    first: dict = {}
    count = 0

    def walk(x):
        nonlocal count
        if isinstance(x, (RatFunc, IntPoly)):
            count += 1
            assert first.setdefault((type(x), x), x) is x, x
        elif isinstance(x, dict):
            for pair in x.items():
                walk(pair)
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
        elif hasattr(x, "terms"):
            walk(x.terms)

    walk(values)
    assert count > len(first)
    return count
