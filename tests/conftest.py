"""Shared fixtures (the §V example, small markets, strategies) and the
asyncio test runner.

The service tests are ``async def`` functions.  The image has no
pytest-asyncio, so a minimal equivalent lives here: coroutine test
functions are auto-marked ``asyncio`` (the marker is registered in
pyproject) and executed on a fresh event loop via :func:`asyncio.run`.
If pytest-asyncio is installed it takes precedence untouched — the
hook below bows out.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

try:  # defer to the real plugin when the environment has it
    import pytest_asyncio  # noqa: F401

    _HAVE_PYTEST_ASYNCIO = True
except ImportError:
    _HAVE_PYTEST_ASYNCIO = False


def pytest_collection_modifyitems(items):
    for item in items:
        if isinstance(item, pytest.Function) and inspect.iscoroutinefunction(
            item.function
        ):
            item.add_marker(pytest.mark.asyncio)


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    if _HAVE_PYTEST_ASYNCIO:
        return None
    func = pyfuncitem.obj
    if not inspect.iscoroutinefunction(func):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(func(**kwargs))
    return True

from repro.amm import Pool, PoolRegistry, StableSwapPool, WeightedPool
from repro.core import ArbitrageLoop, PriceMap, Token
from repro.data import paper_market, section5_loop, section5_prices, section5_snapshot
from repro.data.snapshot import MarketSnapshot


@pytest.fixture
def tokens_xyz():
    return Token("X"), Token("Y"), Token("Z")


@pytest.fixture
def s5_loop():
    """Fresh §V loop (pools are mutable; never share across tests)."""
    return section5_loop()


@pytest.fixture
def s5_prices():
    return section5_prices()


@pytest.fixture
def s5_snapshot():
    return section5_snapshot()


@pytest.fixture
def no_arb_loop(tokens_xyz):
    """A 3-loop with *no* arbitrage: pools agree on consistent prices.

    Relative prices are 2, 1/2, 1 around the loop; with fees the
    round-trip rate is (1-fee)^3 < 1.
    """
    x, y, z = tokens_xyz
    pools = [
        Pool(x, y, 100.0, 200.0, pool_id="na-xy"),
        Pool(y, z, 200.0, 100.0, pool_id="na-yz"),
        Pool(z, x, 100.0, 100.0, pool_id="na-zx"),
    ]
    return ArbitrageLoop([x, y, z], pools)


@pytest.fixture(
    params=[
        pytest.param((Pool, {}), id="cpmm"),
        pytest.param((WeightedPool, {"weight0": 0.7, "weight1": 0.3}), id="g3m"),
        pytest.param((StableSwapPool, {"amplification": 120.0}), id="stableswap"),
    ]
)
def family_pool(request, tokens_xyz):
    """A fresh 100 X / 200 Y pool (id ``t-xy``) of each family, its
    family parameters off their defaults — the subject of the tests of
    behaviour every family shares through ``TwoTokenPool``."""
    cls, params = request.param
    x, y, _ = tokens_xyz
    return cls(x, y, 100.0, 200.0, pool_id="t-xy", **params)


@pytest.fixture
def small_registry(tokens_xyz):
    x, y, z = tokens_xyz
    registry = PoolRegistry()
    registry.create(x, y, 100.0, 200.0, pool_id="r-xy")
    registry.create(y, z, 300.0, 200.0, pool_id="r-yz")
    registry.create(z, x, 200.0, 400.0, pool_id="r-zx")
    return registry


@pytest.fixture(scope="session")
def default_market():
    """The default §VI-scale market (expensive; share per session,
    treat as read-only — tests that mutate pools must copy())."""
    return paper_market()


@pytest.fixture
def simple_prices(tokens_xyz):
    x, y, z = tokens_xyz
    return PriceMap({x: 2.0, y: 10.2, z: 20.0})


def _disjoint_triangles(b_reserves):
    """Disjoint CPMM triangles ``{name}a -> {name}b -> {name}c``, one
    per ``name: b_reserve`` item: every pool 1000/1000 except each
    ``{name}-ab`` pool's ``b`` reserve, every price 1.0.  Each
    triangle's forward loop is its profitable one, worth more the
    larger that reserve."""
    registry, prices = PoolRegistry(), {}
    for name, b_reserve in b_reserves.items():
        a, b, c = (Token(f"{name}{suffix}") for suffix in "abc")
        registry.add(Pool(a, b, 1000.0, b_reserve, pool_id=f"{name}-ab"))
        registry.add(Pool(b, c, 1000.0, 1000.0, pool_id=f"{name}-bc"))
        registry.add(Pool(c, a, 1000.0, 1000.0, pool_id=f"{name}-ca"))
        prices.update({a: 1.0, b: 1.0, c: 1.0})
    return MarketSnapshot(registry, PriceMap(prices))


@pytest.fixture(scope="session")
def disjoint_triangles():
    """Factory of disjoint-triangle markets (session-scoped, so
    hypothesis tests may take it too)."""
    return _disjoint_triangles
