"""Zero-copy shared-memory market state for multi-process shards.

A process-backed service must not pay N× memory for N shards.  This
module keeps ONE copy of the market in a named
``multiprocessing.shared_memory`` segment and lets every shard process
map it read-only:

* :class:`SharedMarketArrays` — the **single writer**'s end.  A
  :class:`~repro.market.MarketArrays` whose columns live inside a
  named segment; the ingest stage applies each block's events to its
  private pool objects and copies the dirty rows in
  (:meth:`~repro.market.MarketArrays.pull`) under :meth:`write_block`,
  which brackets the copy with an odd/even **epoch counter** (a
  seqlock): odd while a write is in progress, even once committed,
  monotonically increasing.
* :class:`SharedMarketView` — a shard's **reader** end.  Every
  column — static *and* mutable — is a zero-copy read-only numpy view
  of the segment; per-shard private market state is zero bytes.
  Consistency comes from :meth:`SharedMarketView.read_consistent`,
  which brackets each batch-kernel pass with the seqlock's epoch
  check: a pass that raced the writer (epoch odd, or changed while
  the kernels ran) is discarded and re-run, and both retry flavours
  are counted (``epoch_waits`` for "writer not there yet",
  ``torn_retries`` for "writer moved underneath the read") for the
  metrics pipeline.
* :class:`PoolHandle` — a reserve-less stand-in for a
  :class:`~repro.amm.pool.Pool` carrying only loop topology and pool
  family, so shards can rebind their loops without holding any reserve
  state at all (the batch kernels read reserves from the columns, and
  the scalar route materialises pool objects from them on demand).

Consistency contract (why torn reads are harmless *and* retried): the
writer applies blocks in stream order and a shard processes its routed
blocks in stream order, so by the time a shard handles the **last**
block that dirties one of its loops, no later committed write touches
that loop's rows — a consistent read then sees exactly the final
values, which is all the quiesced-book parity guarantee needs.
Retrying torn reads additionally makes every *intermediate* quote a
pure function of one committed prefix of the stream, so mid-stream
quotes are real quotes, not chimeras of two blocks.

Memory-ordering caveat: CPython bytecode plus x86-TSO keeps the
epoch/data store order the seqlock relies on; on weakly-ordered
architectures the pure-Python protocol is best-effort (the quiescence
argument above still holds, only mid-stream torn-read detection
weakens).

Lifecycle: the creator's segment is registered with the stdlib
``resource_tracker`` (so even a SIGKILLed run is swept), readers
attach **untracked** (pre-3.13 the tracker double-registers attaches
and then warns/unlinks spuriously — exactly the leak noise this module
exists to avoid), and clean paths unlink deterministically via
:meth:`SharedMarketArrays.unlink`, an ``atexit`` guard, or the
service's ``ProcessShardPool.close()`` cleanup hook.
"""

from __future__ import annotations

import atexit
import secrets
import sys
import time
import weakref
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Iterable, Mapping

import numpy as np

from ..amm.families import pool_family
from ..core.types import Token
from .arrays import MarketArrays

__all__ = [
    "PoolHandle",
    "SegmentLayoutError",
    "SharedMarketArrays",
    "SharedMarketView",
    "pool_handles",
]

#: Prefix of every segment this module creates — the CI ``/dev/shm``
#: leak check greps for it after the serve smoke.
SEGMENT_PREFIX = "repro_mkt_"

_MAGIC = 0x5250524F_53484D31  # "RPRO" "SHM1"
#: Version 2: the ``constant_product`` bool column became the ``family``
#: int8 code plus the ``amp`` (stableswap amplification) float column.
#: Bumped whenever the column set, dtypes, or order change — an attach
#: across versions raises :class:`SegmentLayoutError` instead of
#: misreading reserves at wrong offsets.
_LAYOUT_VERSION = 2
#: int64 header slots: magic, layout version, n_pools, n_tokens, epoch.
_N_HEADER = 5
_EPOCH_SLOT = 4
_ALIGN = 64

#: Column payload layout, in segment order.  ``mutable`` columns are
#: the ones the writer's per-block ``pull`` touches (readers bracket
#: their kernel passes with the epoch check); ``static`` columns never
#: change after creation.  Both sides map every column zero-copy.
_MUTABLE_COLUMNS = (
    ("reserve0", np.float64),
    ("reserve1", np.float64),
    ("fee", np.float64),
    ("fee_num", np.int64),
)
_STATIC_COLUMNS = (
    ("weight0", np.float64),
    ("weight1", np.float64),
    ("amp", np.float64),
    ("token0_idx", np.int64),
    ("token1_idx", np.int64),
    ("family", np.int8),
)


class SegmentLayoutError(ValueError):
    """A shared-market segment's header does not match this build's
    layout — wrong magic (not a shared market at all) or a different
    layout version (created by an older/newer build, so the column
    offsets and dtypes this reader would map are wrong).  The segment
    must be recreated by the same build that attaches it; reserves are
    never read at mismatched offsets.
    """

#: Reader spin discipline: pure yields first, then a short sleep so a
#: lagging writer never busy-burns a whole core.
_SPIN_YIELDS = 64
_SPIN_SLEEP_S = 5e-5


def _layout(n_pools: int) -> tuple[dict[str, tuple[int, np.dtype]], int]:
    """Byte offsets of every column for an ``n_pools``-row segment."""
    offsets: dict[str, tuple[int, np.dtype]] = {}
    cursor = _N_HEADER * 8
    for name, dtype in _MUTABLE_COLUMNS + _STATIC_COLUMNS:
        cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
        offsets[name] = (cursor, np.dtype(dtype))
        cursor += np.dtype(dtype).itemsize * n_pools
    return offsets, max(cursor, _N_HEADER * 8 + _ALIGN)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker tracking.

    Pre-3.13 ``SharedMemory(name=...)`` registers the *attach* with
    the resource tracker too, which then warns about (and unlinks!)
    segments it never owned when the attaching process exits.  3.13+
    has ``track=False``; earlier interpreters get the standard
    suppress-the-registration workaround.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ----------------------------------------------------------------------
# reserve-less pool handles
# ----------------------------------------------------------------------


class PoolHandle:
    """Loop-topology stand-in for a pool: identity and pool family.

    Exactly enough for loop validation (``token in pool``), kernel
    compilation (``pool_id`` / ``token0`` / ``family`` drive row and
    kernel-group selection), materialising a pool object from the
    columns (:meth:`~repro.market.BatchEvaluator.evaluate_many`'s
    scalar route), and result assembly — and nothing else.  Reserves,
    fees, weights, and amplifications live in the columns alone: a
    handle that leaks onto an object-reading path fails loudly with
    ``AttributeError`` instead of silently quoting stale state.
    """

    __slots__ = ("pool_id", "token0", "token1", "family")

    def __init__(self, pool):
        self.pool_id = pool.pool_id
        self.token0 = pool.token0
        self.token1 = pool.token1
        self.family = pool_family(pool)

    @property
    def tokens(self) -> tuple[Token, Token]:
        return (self.token0, self.token1)

    def __contains__(self, token: Token) -> bool:
        return token == self.token0 or token == self.token1

    def __repr__(self) -> str:
        return (
            f"PoolHandle({self.token0.symbol}/{self.token1.symbol}, "
            f"id={self.pool_id!r})"
        )


def pool_handles(pools: Iterable) -> dict[str, PoolHandle]:
    """``pool_id -> PoolHandle`` map, the registry stand-in that
    :func:`~repro.replay.apply.rebind_loops` accepts for shard
    workers."""
    return {pool.pool_id: PoolHandle(pool) for pool in pools}


# ----------------------------------------------------------------------
# writer side
# ----------------------------------------------------------------------

_OWNED: "weakref.WeakSet[SharedMarketArrays]" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _cleanup_owned() -> None:  # pragma: no cover - exit path
    for segment in list(_OWNED):
        try:
            segment.unlink()
        except Exception:
            pass


class SharedMarketArrays(MarketArrays):
    """The single-writer end of a shared-memory market.

    A :class:`MarketArrays` whose ten columns are numpy views into a
    named ``SharedMemory`` segment, plus the seqlock epoch counter in
    the segment header.  Only one process may ever mutate it (the
    service's ingest stage); every shard maps a
    :class:`SharedMarketView` of the same segment.
    """

    __slots__ = ("_shm", "_epoch", "_owner", "_closed", "_unlinked", "__weakref__")

    def __init__(self, pools: Iterable, *, name: str | None = None):
        global _ATEXIT_INSTALLED
        super().__init__(pools)
        layout, total = _layout(len(self))
        segment_name = (
            name if name is not None
            else SEGMENT_PREFIX + secrets.token_hex(6)
        )
        # created *tracked*: if this process dies without unlinking
        # (even SIGKILL), the stdlib resource tracker sweeps the
        # segment — the atexit/close paths below are the quiet ones
        self._shm = shared_memory.SharedMemory(
            create=True, name=segment_name, size=total
        )
        self._owner = True
        self._closed = False
        self._unlinked = False
        header = np.ndarray((_N_HEADER,), dtype=np.int64, buffer=self._shm.buf)
        header[:] = (_MAGIC, _LAYOUT_VERSION, len(self), len(self.tokens), 0)
        self._epoch = header[_EPOCH_SLOT:_EPOCH_SLOT + 1]
        for column, (offset, dtype) in layout.items():
            view = np.ndarray(
                (len(self),), dtype=dtype, buffer=self._shm.buf, offset=offset
            )
            view[:] = getattr(self, column)
            setattr(self, column, view)
        _OWNED.add(self)
        if not _ATEXIT_INSTALLED:
            atexit.register(_cleanup_owned)
            _ATEXIT_INSTALLED = True

    # -- seqlock -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current seqlock epoch (even = committed, odd = mid-write)."""
        return int(self._epoch[0])

    @contextmanager
    def write_block(self):
        """Bracket one block's column writes as a seqlock write.

        The epoch goes odd before the first store and even after the
        last, so readers either wait or retry instead of gathering a
        half-written block.  Committed in ``finally`` even when the
        write raises — the run is being torn down at that point and a
        permanently-odd epoch would wedge every spinning reader.
        """
        if self._epoch[0] & 1:  # pragma: no cover - defensive
            raise RuntimeError("nested write_block (single-writer protocol)")
        self._epoch[0] += 1
        try:
            yield
        finally:
            self._epoch[0] += 1

    # -- lifecycle -----------------------------------------------------

    @property
    def segment_name(self) -> str:
        return self._shm.name

    @property
    def segment_nbytes(self) -> int:
        """Allocated size of the shared segment (header + columns)."""
        return self._shm.size

    def view(self) -> "SharedMarketView":
        """A new reader endpoint on this segment (one per shard: each
        view keeps its own seqlock retry counters)."""
        return SharedMarketView(
            self._shm.name, self.tokens, pool_index=self.pool_index
        )

    def close(self) -> None:
        """Drop the mapping (columns survive as private copies)."""
        if self._closed:
            return
        self._closed = True
        # numpy views pin the exported buffer; materialize them before
        # releasing the mapping so the object stays readable
        for column, _ in _MUTABLE_COLUMNS + _STATIC_COLUMNS:
            setattr(self, column, np.array(getattr(self, column)))
        self._epoch = np.array(self._epoch)
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the named segment (idempotent; closes first)."""
        self.close()
        if self._unlinked or not self._owner:
            return
        self._unlinked = True
        _OWNED.discard(self)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass


# ----------------------------------------------------------------------
# reader side
# ----------------------------------------------------------------------


class SharedMarketView:
    """One shard's read-only endpoint on a shared market segment.

    Duck-types the :class:`MarketArrays` surface the batch kernels
    evaluate against: every column — static and mutable alike — is a
    zero-copy read-only numpy view of the segment, so a view holds no
    per-shard market state at all.  Reads that must be consistent (a
    kernel pass over reserves and fees) go through
    :meth:`read_consistent`, which retries the pass whenever the
    writer's seqlock epoch moved underneath it.  Pickling carries only
    ``(segment name, tokens)`` — a few hundred bytes regardless of
    market size — and re-attaches on unpickle, which is what lets
    spawn-started shard processes receive segment names instead of
    pickled markets.
    """

    #: Kernel-facing price alignment, borrowed from the columnar twin
    #: (it only touches ``self.tokens``).
    price_vector = MarketArrays.price_vector

    def __init__(
        self,
        segment_name: str,
        tokens: Iterable[Token],
        *,
        pool_index: Mapping[str, int] | None = None,
    ):
        self.segment_name = segment_name
        self.tokens: tuple[Token, ...] = tuple(tokens)
        self.token_index: dict[Token, int] = {
            token: i for i, token in enumerate(self.tokens)
        }
        #: pool id -> row, needed only while compiling loops in the
        #: parent; dropped from the pickle (it dwarfs everything else).
        self.pool_index = dict(pool_index) if pool_index is not None else None
        #: lifetime seqlock counters (the worker ships per-block deltas
        #: in every ShardUpdate and these totals in its done message)
        self.epoch_waits = 0
        self.torn_retries = 0
        #: test seam: called after each epoch read inside the seqlock
        #: loops, letting the suite interleave a writer deterministically
        self._spin_hook = None
        self._attach()

    def _attach(self) -> None:
        self._shm = _attach_segment(self.segment_name)
        self._closed = False
        header = np.ndarray((_N_HEADER,), dtype=np.int64, buffer=self._shm.buf)
        if int(header[0]) != _MAGIC:
            raise SegmentLayoutError(
                f"segment {self.segment_name!r} is not a shared market "
                f"segment (magic 0x{int(header[0]) & (2**64 - 1):016x}, "
                f"expected 0x{_MAGIC:016x})"
            )
        if int(header[1]) != _LAYOUT_VERSION:
            raise SegmentLayoutError(
                f"segment {self.segment_name!r} uses shared-market layout "
                f"version {int(header[1])}, but this build reads version "
                f"{_LAYOUT_VERSION}; the column set changed between "
                "versions, so attaching would map reserves at wrong "
                "offsets — recreate the segment with the build that "
                "attaches it"
            )
        n = int(header[2])
        if int(header[3]) != len(self.tokens):
            raise ValueError(
                f"segment {self.segment_name!r} holds {int(header[3])} "
                f"tokens, view was built for {len(self.tokens)}"
            )
        self.n_pools = n
        self._epoch = header[_EPOCH_SLOT:_EPOCH_SLOT + 1]
        layout, _ = _layout(n)
        for column, dtype in _MUTABLE_COLUMNS + _STATIC_COLUMNS:
            offset, dt = layout[column]
            view = np.ndarray(
                (n,), dtype=dt, buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            setattr(self, column, view)

    # -- seqlock reads -------------------------------------------------

    @property
    def epoch(self) -> int:
        return int(self._epoch[0])

    def _spin(self, round_: int) -> None:
        if self._spin_hook is not None:
            self._spin_hook()
        time.sleep(0.0 if round_ < _SPIN_YIELDS else _SPIN_SLEEP_S)

    def wait_for_epoch(self, target: int, timeout_s: float = 30.0) -> int:
        """Spin until the writer has committed epoch ``target``.

        Returns the number of spin rounds (0 = writer was already
        there, the quiesced/inline case).  Times out — a reader must
        never hang forever on a writer that died mid-block.
        """
        waits = 0
        deadline: float | None = None
        while int(self._epoch[0]) < target:
            waits += 1
            if deadline is None:
                deadline = time.perf_counter() + timeout_s
            elif time.perf_counter() > deadline:  # pragma: no cover
                raise RuntimeError(
                    f"timed out waiting for shared-market epoch {target} "
                    f"(stuck at {int(self._epoch[0])})"
                )
            self._spin(waits)
        self.epoch_waits += waits
        return waits

    def read_consistent(self, fn, timeout_s: float = 30.0):
        """Run ``fn`` (which reads the mapped columns) at one stable
        committed epoch — the seqlock read.

        ``fn`` is re-run whenever the writer was mid-commit when it
        started (epoch odd) or committed underneath it (epoch moved),
        so a returned value is always a pure function of exactly one
        committed market state — never a chimera of two blocks.  Torn
        re-runs are discarded results, not corrupted state: the
        columns themselves are read-only and ``fn`` must be free of
        side effects a retry would double-apply.  Retries land in
        ``torn_retries``; the odd-epoch wait times out so a reader
        never hangs on a writer that died mid-block.
        """
        retries = 0
        deadline: float | None = None
        while True:
            e1 = int(self._epoch[0])
            if self._spin_hook is not None:
                self._spin_hook()
            if e1 & 1:
                # writer mid-commit: wait it out (bounded)
                retries += 1
                if deadline is None:
                    deadline = time.perf_counter() + timeout_s
                elif time.perf_counter() > deadline:  # pragma: no cover
                    raise RuntimeError(
                        "timed out waiting for an even shared-market epoch "
                        f"(stuck at {e1})"
                    )
                time.sleep(0.0 if retries < _SPIN_YIELDS else _SPIN_SLEEP_S)
                continue
            result = fn()
            if int(self._epoch[0]) == e1:
                self.torn_retries += retries
                return result
            retries += 1

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return self.n_pools

    @property
    def private_nbytes(self) -> int:
        """Bytes of per-shard private column state: zero — every
        column is a view of the shared segment.  (The worker reports
        its reserve-less pool handles separately.)"""
        return 0

    def __repr__(self) -> str:
        return (
            f"SharedMarketView({self.segment_name!r}, {self.n_pools} pools, "
            f"epoch {self.epoch}, waits={self.epoch_waits}, "
            f"torn={self.torn_retries})"
        )

    # -- lifecycle / pickling ------------------------------------------

    def close(self) -> None:
        """Detach from the segment (columns survive as private copies
        so the object stays readable after the mapping is gone)."""
        if self._closed:
            return
        self._closed = True
        for column, _ in _MUTABLE_COLUMNS + _STATIC_COLUMNS:
            setattr(self, column, np.array(getattr(self, column)))
        self._epoch = np.array(self._epoch)
        self._shm.close()

    def __getstate__(self) -> dict:
        return {"segment_name": self.segment_name, "tokens": self.tokens}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["segment_name"], state["tokens"])
