"""Unit tests for the shared-memory market layer (:mod:`repro.market.shm`).

Covers the segment lifecycle (create / attach / close / unlink, all
idempotent), the seqlock protocol (``write_block`` epoch bracketing,
``wait_for_epoch``, ``read_consistent`` torn-read retries — driven
deterministically through the view's ``_spin_hook`` test seam), the
reserve-less :class:`PoolHandle`, and the pickle contract that lets
spawn-started shards receive segment *names* instead of markets.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.amm import FAMILY_CPMM, FAMILY_G3M, PoolRegistry
from repro.amm.weighted import WeightedPool
from repro.core import Token
from repro.market import MarketArrays, SharedMarketArrays, pool_handles
from repro.market.shm import (
    _LAYOUT_VERSION,
    SEGMENT_PREFIX,
    PoolHandle,
    SegmentLayoutError,
    SharedMarketView,
)
from repro.service import BlockWork

X, Y, Z = Token("X"), Token("Y"), Token("Z")


@pytest.fixture
def registry():
    registry = PoolRegistry()
    registry.create(X, Y, 1_000.0, 2_000.0, pool_id="xy")
    registry.create(Y, Z, 3_000.0, 1_500.0, pool_id="yz")
    registry.create(Z, X, 900.0, 1_800.0, pool_id="zx")
    return registry


@pytest.fixture
def shared(registry):
    arrays = SharedMarketArrays(registry)
    yield arrays
    arrays.unlink()


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_create_matches_private_columns(self, registry, shared):
        private = MarketArrays(registry)
        for column in ("reserve0", "reserve1", "fee", "weight0", "weight1"):
            np.testing.assert_array_equal(
                getattr(shared, column), getattr(private, column)
            )
        assert shared.nbytes == private.nbytes
        assert shared.segment_name.startswith(SEGMENT_PREFIX)
        assert shared.segment_nbytes > shared.nbytes  # header + alignment

    def test_view_attaches_same_columns(self, shared):
        view = shared.view()
        try:
            assert len(view) == len(shared)
            np.testing.assert_array_equal(view.reserve0, shared.reserve0)
            np.testing.assert_array_equal(view.fee, shared.fee)
            assert view.private_nbytes == 0
        finally:
            view.close()

    def test_view_sees_writes_without_copying(self, shared):
        view = shared.view()
        try:
            row = shared.pool_index["xy"]
            with shared.write_block():
                shared.reserve0[row] = 123.5
            assert view.reserve0[row] == 123.5
        finally:
            view.close()

    def test_view_columns_are_read_only(self, shared):
        view = shared.view()
        try:
            with pytest.raises((ValueError, RuntimeError)):
                view.reserve0[0] = 1.0
        finally:
            view.close()

    def test_close_and_unlink_idempotent(self, registry):
        arrays = SharedMarketArrays(registry)
        view = arrays.view()
        view.close()
        view.close()
        arrays.close()
        arrays.close()
        # columns survive a close as private copies
        assert arrays.reserve0[0] == 1_000.0
        assert view.reserve0[0] == 1_000.0
        arrays.unlink()
        arrays.unlink()
        with pytest.raises(FileNotFoundError):
            SharedMarketView(arrays.segment_name, arrays.tokens)

    def test_attach_rejects_foreign_segment(self, registry, shared):
        # a view built for the wrong token universe must fail loudly
        with pytest.raises(ValueError, match="tokens"):
            SharedMarketView(shared.segment_name, (X, Y))

    def test_attach_rejects_stale_layout_version(self, shared):
        # a segment written by a build with a different column layout
        # must raise the typed error naming both versions, not map
        # reserves at wrong offsets
        header = np.ndarray((5,), dtype=np.int64, buffer=shared._shm.buf)
        header[1] = _LAYOUT_VERSION - 1  # pretend an old build wrote it
        try:
            with pytest.raises(SegmentLayoutError) as excinfo:
                SharedMarketView(shared.segment_name, shared.tokens)
            message = str(excinfo.value)
            assert f"version {_LAYOUT_VERSION - 1}" in message
            assert f"version {_LAYOUT_VERSION}" in message
            assert "recreate" in message
            # the typed error is still a ValueError for old handlers
            assert isinstance(excinfo.value, ValueError)
        finally:
            header[1] = _LAYOUT_VERSION

    def test_attach_rejects_bad_magic(self, shared):
        header = np.ndarray((5,), dtype=np.int64, buffer=shared._shm.buf)
        original = int(header[0])
        header[0] = 0x1234
        try:
            with pytest.raises(SegmentLayoutError, match="magic"):
                SharedMarketView(shared.segment_name, shared.tokens)
        finally:
            header[0] = original

    def test_view_pickle_reattaches(self, shared):
        view = shared.view()
        try:
            blob = pickle.dumps(view)
            # the pickle carries (segment name, tokens) — never columns
            assert len(blob) < 1_000
            clone = pickle.loads(blob)
            try:
                np.testing.assert_array_equal(clone.reserve0, shared.reserve0)
                assert clone.pool_index is None  # dropped from the pickle
            finally:
                clone.close()
        finally:
            view.close()


# ----------------------------------------------------------------------
# seqlock
# ----------------------------------------------------------------------


class TestSeqlock:
    def test_write_block_epoch_bracketing(self, shared):
        assert shared.epoch == 0
        with shared.write_block():
            assert shared.epoch == 1  # odd: mid-write
        assert shared.epoch == 2  # even: committed

    def test_write_block_commits_on_error(self, shared):
        with pytest.raises(RuntimeError, match="boom"):
            with shared.write_block():
                raise RuntimeError("boom")
        assert shared.epoch % 2 == 0  # readers must never wedge

    def test_wait_for_epoch_immediate(self, shared):
        view = shared.view()
        try:
            with shared.write_block():
                pass
            assert view.wait_for_epoch(2) == 0
            assert view.epoch_waits == 0
        finally:
            view.close()

    def test_wait_for_epoch_spins_until_commit(self, shared):
        view = shared.view()
        try:
            def writer_catches_up():
                view._spin_hook = None
                with shared.write_block():
                    pass

            view._spin_hook = writer_catches_up
            assert view.wait_for_epoch(2) == 1
            assert view.epoch_waits == 1
        finally:
            view.close()

    def test_read_consistent_stable(self, shared):
        view = shared.view()
        try:
            row = shared.pool_index["xy"]
            assert view.read_consistent(lambda: float(view.reserve0[row])) == 1_000.0
            assert view.torn_retries == 0
        finally:
            view.close()

    def test_read_consistent_retries_torn_read(self, shared):
        view = shared.view()
        try:
            row = shared.pool_index["xy"]

            def concurrent_writer():
                # fires between the reader's epoch check and its pass:
                # the first pass is torn and must be discarded
                view._spin_hook = None
                with shared.write_block():
                    shared.reserve0[row] = 777.0

            view._spin_hook = concurrent_writer
            value = view.read_consistent(lambda: float(view.reserve0[row]))
            assert value == 777.0  # the retried pass, never the chimera
            assert view.torn_retries == 1
        finally:
            view.close()

    def test_read_consistent_waits_out_odd_epoch(self, shared):
        view = shared.view()
        try:
            row = shared.pool_index["xy"]
            shared._epoch[0] += 1  # writer "mid-block"
            shared.reserve0[row] = 555.0

            def writer_commits():
                view._spin_hook = None
                shared._epoch[0] += 1

            view._spin_hook = writer_commits
            value = view.read_consistent(lambda: float(view.reserve0[row]))
            assert value == 555.0
            assert view.torn_retries == 1
        finally:
            view.close()


# ----------------------------------------------------------------------
# pool handles
# ----------------------------------------------------------------------


class TestPoolHandle:
    def test_topology_only(self, registry):
        handle = PoolHandle(registry["xy"])
        assert handle.pool_id == "xy"
        assert X in handle and Y in handle and Z not in handle
        assert handle.tokens == (X, Y)
        assert handle.family == FAMILY_CPMM
        assert "xy" in repr(handle)

    def test_weighted_pool_keeps_family(self):
        pool = WeightedPool(X, Y, 1_000.0, 2_000.0, weight0=0.8, weight1=0.2,
                            pool_id="wp")
        assert PoolHandle(pool).family == FAMILY_G3M

    def test_no_reserve_state(self, registry):
        # reserves live in the columns alone (the scalar route
        # materialises pool objects from them); a handle that leaked
        # onto an object-reading path must fail loudly, never quote
        # stale state
        handle = PoolHandle(registry["xy"])
        for attribute in ("reserve0", "reserve1", "fee", "weight0"):
            with pytest.raises(AttributeError):
                getattr(handle, attribute)

    def test_pool_handles_map(self, registry):
        handles = pool_handles(registry)
        assert set(handles) == {"xy", "yz", "zx"}
        assert all(isinstance(h, PoolHandle) for h in handles.values())


# ----------------------------------------------------------------------
# work items
# ----------------------------------------------------------------------


def test_shared_block_work_pickles_small():
    # BlockWork carries rows and (token index, price) ticks, never
    # market state — the pickle must stay a few hundred bytes
    # regardless of market size
    work = BlockWork(
        block=7,
        epoch=14,
        rows=tuple(range(8)),
        ticks=((0, 1.25), (1, 0.5)),
        t_ingest=0.0,
        t_dispatch=0.0,
    )
    assert len(pickle.dumps(work)) < 600
