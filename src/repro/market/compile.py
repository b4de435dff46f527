"""Compile arbitrage loops into hop-index matrices over a MarketArrays.

A :class:`CompiledLoopGroup` is the bridge between loop *objects* and
the columnar market state: for every loop of one length it stores, per
hop of the base rotation, the pool's row in the arrays and the hop's
orientation (is the input token the pool's ``token0``?).  A rotation
is then just a cyclic column shift, so the batch kernels can evaluate
any rotation of every loop with pure gathers — no object traversal.

Loops are *eligible* for compilation when every hop's pool is present
in the arrays; only loops crossing foreign pools land in the fallback
set and keep the scalar path.  Grouping is by ``(length, mixed)``
where ``mixed`` asks the family registry whether any hop's family
lacks a closed form (:func:`repro.market.families.needs_chain_kernel`):
purely constant-product loops keep the closed-form kernel
(:mod:`repro.market.kernel`, bit-exact by construction), while loops
containing at least one non-CPMM hop — G3M (including weighted pools
whose weights happen to be equal, which the scalar path also treats
as G3M) or stableswap, in any combination — are grouped for the
iterative chain kernel (:mod:`repro.market.weighted_kernel`), which
dispatches per-hop lanes by family.  Mixed-family loops therefore
never fall back to the scalar path.  Grouping by loop length keeps
each matrix rectangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..amm.families import pool_family
from ..core.loop import ArbitrageLoop
from ..core.types import Token
from .arrays import MarketArrays
from .families import family_descriptor, needs_chain_kernel

__all__ = ["CompiledLoopGroup", "compile_loops"]


@dataclass(frozen=True)
class CompiledLoopGroup:
    """Hop-index matrices for all compiled loops of one length.

    Attributes
    ----------
    positions:
        Row ``k`` of the matrices describes ``loops[positions[k]]`` of
        the caller's loop sequence.
    loops:
        The loop objects, aligned with the matrix rows.
    length:
        Hop count ``n`` shared by every loop in the group.
    families:
        The set of family codes present across the group's hops
        (:data:`repro.amm.families.FAMILY_CPMM` and friends).
    pool_idx:
        ``(L, n)`` array: arrays-row of the pool serving hop ``j`` of
        the base rotation (start = ``loop.tokens[0]``).
    orient:
        ``(L, n)`` bool: True when hop ``j``'s input token is the
        pool's ``token0`` (so oriented reserves are ``(r0, r1)``).
    token_idx:
        ``(L, n)`` array: arrays token-column of ``loop.tokens[j]`` —
        the start token of rotation ``j``.
    symbol_rank:
        ``(L, n)`` array: rank of ``loop.tokens[j]`` among the loop's
        tokens sorted by symbol; the vectorized MaxPrice start
        selection uses it to reproduce ``max_price_token``'s
        ``(-price, symbol)`` tie-break.
    token_offset:
        Per loop, token → rotation offset (for fixed-start lookup).
    """

    positions: np.ndarray
    loops: tuple[ArbitrageLoop, ...]
    length: int
    families: frozenset[int]
    pool_idx: np.ndarray
    orient: np.ndarray
    token_idx: np.ndarray
    symbol_rank: np.ndarray
    token_offset: tuple[dict[Token, int], ...]

    @property
    def mixed(self) -> bool:
        """True when any hop's family lacks a closed form, so the
        group is quoted by the iterative chain kernel."""
        return needs_chain_kernel(self.families)

    def __len__(self) -> int:
        return len(self.loops)

    def max_price_offsets(
        self, price_matrix: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """MaxPrice's start offset for each of ``rows`` (all when
        ``None``), given their ``(len(rows), length)`` token prices.

        ``max_price_token``'s rule: highest price, ties to the smallest
        symbol.  Ranks are a per-row permutation, so masking
        non-maximal columns to ``length`` and taking argmin reproduces
        the ``(-price, symbol)`` sort exactly.  Rows holding a NaN
        price get an arbitrary offset: callers decide what a missing
        price means for them.
        """
        rank = self.symbol_rank if rows is None else self.symbol_rank[rows]
        row_max = price_matrix.max(axis=1)
        ranked = np.where(price_matrix == row_max[:, None], rank, self.length)
        return np.argmin(ranked, axis=1)

    def rows(self, sel: Sequence[int]) -> "CompiledLoopGroup":
        """Sub-group restricted to matrix rows ``sel`` (in order)."""
        rows = np.asarray(sel, dtype=np.intp)
        return CompiledLoopGroup(
            positions=self.positions[rows],
            loops=tuple(self.loops[k] for k in sel),
            length=self.length,
            families=self.families,
            pool_idx=self.pool_idx[rows],
            orient=self.orient[rows],
            token_idx=self.token_idx[rows],
            symbol_rank=self.symbol_rank[rows],
            token_offset=tuple(self.token_offset[k] for k in sel),
        )


def _loop_families(
    loop: ArbitrageLoop, arrays: MarketArrays
) -> frozenset[int] | None:
    """Family codes of a compilable loop's hops, ``None`` when a hop's
    pool is not in the arrays.  Unknown families fail loudly here (the
    descriptor lookup raises) rather than miscompiling to CPMM."""
    families = set()
    for pool in loop.pools:
        if pool.pool_id not in arrays.pool_index:
            return None
        code = pool_family(pool)
        family_descriptor(code)
        families.add(code)
    return frozenset(families)


def compile_loops(
    loops: Sequence[ArbitrageLoop], arrays: MarketArrays
) -> tuple[list[CompiledLoopGroup], list[int]]:
    """Split ``loops`` into compiled groups plus scalar-fallback positions.

    Returns ``(groups, fallback)`` where each group covers the eligible
    loops of one ``(length, mixed)`` combination (in input order)
    and ``fallback`` lists the positions of loops that must stay on the
    object path (a hop's pool missing from the arrays).
    """
    by_kind: dict[tuple[int, bool], list[int]] = {}
    kind_families: dict[tuple[int, bool], set[int]] = {}
    fallback: list[int] = []
    for position, loop in enumerate(loops):
        families = _loop_families(loop, arrays)
        if families is None:
            fallback.append(position)
        else:
            key = (len(loop), needs_chain_kernel(families))
            by_kind.setdefault(key, []).append(position)
            kind_families.setdefault(key, set()).update(families)

    groups: list[CompiledLoopGroup] = []
    for (length, _mixed), positions in sorted(by_kind.items()):
        count = len(positions)
        pool_idx = np.empty((count, length), dtype=np.intp)
        orient = np.empty((count, length), dtype=bool)
        token_idx = np.empty((count, length), dtype=np.intp)
        symbol_rank = np.empty((count, length), dtype=np.intp)
        token_offset: list[dict[Token, int]] = []
        group_loops: list[ArbitrageLoop] = []
        for k, position in enumerate(positions):
            loop = loops[position]
            group_loops.append(loop)
            ranked = sorted(range(length), key=lambda j: loop.tokens[j].symbol)
            for rank, j in enumerate(ranked):
                symbol_rank[k, j] = rank
            offsets: dict[Token, int] = {}
            for j in range(length):
                token_in = loop.tokens[j]
                pool = loop.pools[j]
                pool_idx[k, j] = arrays.pool_index[pool.pool_id]
                orient[k, j] = token_in == pool.token0
                token_idx[k, j] = arrays.token_index[token_in]
                offsets[token_in] = j
            token_offset.append(offsets)
        groups.append(
            CompiledLoopGroup(
                positions=np.asarray(positions, dtype=np.intp),
                loops=tuple(group_loops),
                length=length,
                families=frozenset(kind_families[(length, _mixed)]),
                pool_idx=pool_idx,
                orient=orient,
                token_idx=token_idx,
                symbol_rank=symbol_rank,
                token_offset=tuple(token_offset),
            )
        )
    return groups, fallback
