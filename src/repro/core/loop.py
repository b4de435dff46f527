"""Arbitrage-loop model.

An :class:`ArbitrageLoop` is an ordered cycle of tokens connected by
pools: ``tokens[0] --pools[0]--> tokens[1] --pools[1]--> ...
--pools[-1]--> tokens[0]``.  The loop stores *which pool* serves each
hop (there can be parallel pools between the same pair), so two loops
over the same tokens through different pools are distinct objects.

Key operations:

* :meth:`ArbitrageLoop.rotations` — the *n* rotations of an *n*-token
  loop; a rotation fixes the start token, which is exactly what the
  traditional / MaxPrice / MaxMax strategies iterate over;
* :meth:`ArbitrageLoop.composition` — collapse the loop into a single
  :class:`~repro.amm.composition.SwapComposition` (see S3);
* :meth:`ArbitrageLoop.log_rate_sum` — the paper's arbitrage criterion
  ``sum(log p_ij) > 0``.

Loops hash/compare by their *canonical* form (rotated so the
lexicographically smallest hop key comes first), so cycle enumeration
can deduplicate rotations of the same cycle while keeping direction:
a loop and its reverse are different objects (they use the pools in
opposite directions and generally only one direction is profitable).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DegenerateLoopError
from .types import Token

if TYPE_CHECKING:  # imported lazily at runtime to avoid package cycles
    from ..amm.composition import SwapComposition
    from ..amm.pool import Pool

__all__ = ["ArbitrageLoop", "Rotation"]


class Rotation:
    """One rotation of a loop: a fixed start token and hop order.

    A rotation of the 3-loop in the paper is e.g. ``X -> Y -> Z -> X``;
    the other rotations are ``Y -> Z -> X -> Y`` and ``Z -> X -> Y -> Z``.
    """

    __slots__ = ("_loop", "_offset")

    def __init__(self, loop: "ArbitrageLoop", offset: int):
        self._loop = loop
        self._offset = offset % len(loop)

    @property
    def loop(self) -> "ArbitrageLoop":
        return self._loop

    @property
    def offset(self) -> int:
        """Start position of this rotation in the loop's token order."""
        return self._offset

    @property
    def start_token(self) -> Token:
        return self._loop.tokens[self._offset]

    @property
    def tokens(self) -> tuple[Token, ...]:
        """Token sequence starting at the rotation's start token."""
        t = self._loop.tokens
        return t[self._offset:] + t[: self._offset]

    @property
    def pools(self) -> tuple[Pool, ...]:
        """Pools in the order this rotation traverses them."""
        p = self._loop.pools
        return p[self._offset:] + p[: self._offset]

    def hops(self) -> Iterator[tuple[Token, Token, Pool]]:
        """Yield ``(token_in, token_out, pool)`` per hop."""
        toks = self.tokens
        pools = self.pools
        n = len(toks)
        for i in range(n):
            yield toks[i], toks[(i + 1) % n], pools[i]

    def composition(self) -> "SwapComposition":
        """Collapse this rotation into one linear-fractional map.

        Only defined for constant-product hops: the linear-fractional
        family is not closed under weighted (G3M) swaps, so mixing one
        in raises ``TypeError`` instead of silently mis-pricing —
        generic loops use :mod:`repro.optimize.chain` instead.
        """
        from ..amm.composition import compose_hops
        from ..amm.families import FAMILY_CPMM, pool_family

        for pool in self.pools:
            if pool_family(pool) != FAMILY_CPMM:
                raise TypeError(
                    f"{pool!r} is not constant-product; use the chain-rule "
                    "optimizer for this rotation"
                )
        triples = []
        for token_in, _token_out, pool in self.hops():
            x, y = pool.reserves_oriented(token_in)
            triples.append((x, y, pool.fee))
        return compose_hops(triples)

    def simulate(self, amount_in: float) -> list[float]:
        """Hop-by-hop amounts ``[in, after hop 1, ..., out]`` without
        mutating pool state.  Cross-checks the composition algebra."""
        amounts = [amount_in]
        current = amount_in
        for token_in, _token_out, pool in self.hops():
            current = pool.quote_out(token_in, current)
            amounts.append(current)
        return amounts

    def __repr__(self) -> str:
        path = " -> ".join(t.symbol for t in self.tokens)
        return f"Rotation({path} -> {self.start_token.symbol})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rotation):
            return NotImplemented
        return self._loop == other._loop and self._offset == other._offset

    def __hash__(self) -> int:
        return hash((self._loop, self._offset))


class ArbitrageLoop:
    """An ordered token cycle with one pool per hop."""

    __slots__ = ("_tokens", "_pools", "__dict__")

    def __init__(self, tokens: Sequence[Token], pools: Sequence[Pool]):
        tokens = tuple(tokens)
        pools = tuple(pools)
        if len(tokens) < 2:
            raise DegenerateLoopError(
                f"a loop needs at least 2 tokens, got {len(tokens)}"
            )
        if len(tokens) != len(pools):
            raise DegenerateLoopError(
                f"{len(tokens)} tokens but {len(pools)} pools; a loop has "
                "exactly one pool per hop"
            )
        if len(set(tokens)) != len(tokens):
            raise DegenerateLoopError(
                f"loop tokens must be distinct, got {[t.symbol for t in tokens]}"
            )
        n = len(tokens)
        for i in range(n):
            token_in, token_out = tokens[i], tokens[(i + 1) % n]
            pool = pools[i]
            if token_in not in pool or token_out not in pool:
                raise DegenerateLoopError(
                    f"hop {token_in.symbol}->{token_out.symbol} does not match "
                    f"pool {pool!r}"
                )
        self._tokens = tokens
        self._pools = pools

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self._tokens

    @property
    def pools(self) -> tuple[Pool, ...]:
        return self._pools

    def __len__(self) -> int:
        return len(self._tokens)

    def rotations(self) -> tuple[Rotation, ...]:
        """All ``len(self)`` rotations (one per possible start token)."""
        return tuple(Rotation(self, i) for i in range(len(self)))

    def rotation_from(self, start: Token) -> Rotation:
        """The rotation starting at ``start``."""
        try:
            offset = self._tokens.index(start)
        except ValueError:
            raise DegenerateLoopError(f"{start} is not in {self!r}") from None
        return Rotation(self, offset)

    def reversed(self) -> "ArbitrageLoop":
        """The same cycle traversed in the opposite direction.

        Keeps the same start token; hop ``i`` of the reverse uses the
        pool of hop ``n-1-i`` of the original.
        """
        rev_tokens = (self._tokens[0],) + tuple(reversed(self._tokens[1:]))
        rev_pools = tuple(reversed(self._pools))
        return ArbitrageLoop(rev_tokens, rev_pools)

    # ------------------------------------------------------------------
    # canonical identity
    # ------------------------------------------------------------------

    @cached_property
    def _canonical_key(self) -> tuple:
        """Rotation-invariant, direction-sensitive identity key."""
        n = len(self._tokens)
        hop_keys = tuple(
            (self._tokens[i].symbol, self._pools[i].pool_id) for i in range(n)
        )
        best = min(range(n), key=lambda i: hop_keys[i:] + hop_keys[:i])
        return hop_keys[best:] + hop_keys[:best]

    @cached_property
    def rotation_key_statics(self) -> tuple:
        """Per-rotation static key material, computed once per loop.

        Entry ``offset`` is ``(static, hop_refs)``: ``static`` is the
        hashable reserve-independent identity of the rotation (per hop:
        pool id, input-token symbol, fee — all immutable), ``hop_refs``
        the ``(pool, token_in, is_token0)`` triples a caller needs to
        gather *only the reserves* per lookup.  ``is_token0`` is
        ``None`` for pools without the ``token0`` / ``reserve0``
        fast-path attributes.  The engine's reserve-keyed cache builds
        its keys from this instead of re-walking the hops every call.
        """
        n = len(self._tokens)
        statics = []
        for offset in range(n):
            static = []
            refs = []
            for i in range(n):
                token_in = self._tokens[(offset + i) % n]
                pool = self._pools[(offset + i) % n]
                static.append((pool.pool_id, token_in.symbol, pool.fee))
                token0 = getattr(pool, "token0", None)
                if token0 is not None and hasattr(pool, "reserve0"):
                    refs.append((pool, token_in, token_in == token0))
                else:
                    refs.append((pool, token_in, None))
            statics.append((tuple(static), tuple(refs)))
        return tuple(statics)

    @property
    def canonical_id(self) -> str:
        """Stable string identity: ``token/pool`` hops from the
        canonical rotation.  Rotation-invariant and direction-sensitive
        like ``__eq__``; the total order it induces is what makes
        profit-tied rankings (detect output, the service's opportunity
        book) deterministic across runs."""
        return "|".join(f"{sym}/{pid}" for sym, pid in self._canonical_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArbitrageLoop):
            return NotImplemented
        return self._canonical_key == other._canonical_key

    def __hash__(self) -> int:
        return hash(self._canonical_key)

    def __repr__(self) -> str:
        path = " -> ".join(t.symbol for t in self._tokens)
        return f"ArbitrageLoop({path} -> {self._tokens[0].symbol})"

    # ------------------------------------------------------------------
    # arbitrage analytics
    # ------------------------------------------------------------------

    def composition(self) -> SwapComposition:
        """Composition of the default rotation (start = ``tokens[0]``)."""
        return Rotation(self, 0).composition()

    def log_rate_sum(self) -> float:
        """``sum(log p_ij)`` around the loop (fee-adjusted).

        The paper's arbitrage criterion: the loop is an arbitrage loop
        iff this is strictly positive.  Rotation-invariant.
        """
        total = 0.0
        n = len(self._tokens)
        for i in range(n):
            pool = self._pools[i]
            total += math.log(pool.spot_price(self._tokens[i]))
        return total

    def is_arbitrage(self, tol: float = 0.0) -> bool:
        """True iff the loop currently admits risk-free profit."""
        return self.log_rate_sum() > tol
