"""Foundational value types shared across the library.

The types here are deliberately small and immutable:

* :class:`Token` — an interned token symbol with optional metadata;
* :class:`TokenAmount` — a (token, amount) pair with arithmetic;
* :class:`PriceMap` — an immutable mapping token -> USD price used to
  monetize arbitrage profits (the paper's CEX prices);
* :class:`ProfitVector` — per-token net profit of an arbitrage, with
  monetization against a :class:`PriceMap`.

Amounts are plain ``float``.  Uniswap V2 itself uses 112.112 fixed
point; the paper's analysis (and its reference numbers, e.g. "33.7$")
is done in real arithmetic, so floats reproduce it faithfully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import InvalidPriceError, MissingPriceError

__all__ = [
    "Token",
    "TokenAmount",
    "PriceMap",
    "ProfitVector",
    "is_valid_price",
]


def is_valid_price(price: float) -> bool:
    """The one rule for a usable CEX price: finite and ``>= 0``.
    :class:`PriceMap` and the service's ingest both apply it."""
    return math.isfinite(price) and price >= 0


@dataclass(frozen=True, order=True)
class Token:
    """A token identified by its symbol.

    Tokens compare and hash by symbol only, so ``Token("WETH")`` created
    in two places is the same node in the token graph.  ``decimals`` and
    ``address`` are carried for realism (snapshots serialized from
    chain-like data keep them) but do not affect identity.
    """

    symbol: str
    decimals: int = field(default=18, compare=False)
    address: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.symbol:
            raise ValueError("token symbol must be non-empty")
        if self.decimals < 0:
            raise ValueError(f"decimals must be >= 0, got {self.decimals}")

    def __str__(self) -> str:
        return self.symbol

    def __repr__(self) -> str:
        return f"Token({self.symbol!r})"


@dataclass(frozen=True)
class TokenAmount:
    """An amount of a specific token.

    Supports addition/subtraction with amounts of the same token and
    scalar multiplication, so strategy code reads like the paper's
    algebra (``delta_out - delta_in``).
    """

    token: Token
    amount: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.amount):
            raise ValueError(f"amount must be finite, got {self.amount}")

    def _check_same_token(self, other: "TokenAmount") -> None:
        if self.token != other.token:
            raise ValueError(
                f"cannot combine amounts of {self.token} and {other.token}"
            )

    def __add__(self, other: "TokenAmount") -> "TokenAmount":
        self._check_same_token(other)
        return TokenAmount(self.token, self.amount + other.amount)

    def __sub__(self, other: "TokenAmount") -> "TokenAmount":
        self._check_same_token(other)
        return TokenAmount(self.token, self.amount - other.amount)

    def __mul__(self, scalar: float) -> "TokenAmount":
        return TokenAmount(self.token, self.amount * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TokenAmount":
        return TokenAmount(self.token, -self.amount)

    def __str__(self) -> str:
        return f"{self.amount:g} {self.token.symbol}"


class PriceMap(Mapping[Token, float]):
    """Immutable token -> USD price mapping (the paper's CEX prices).

    Monetized profit is ``sum(price[t] * net_amount[t])``; this class is
    the single place where that lookup happens, raising
    :class:`~repro.core.errors.MissingPriceError` with a clear message
    when a token is not quoted.
    """

    __slots__ = ("_prices",)

    def __init__(self, prices: Mapping[Token, float] | Iterable[tuple[Token, float]]):
        items = dict(prices)
        for token, price in items.items():
            if not isinstance(token, Token):
                raise TypeError(f"PriceMap keys must be Token, got {token!r}")
            if not is_valid_price(price):
                raise InvalidPriceError(
                    f"price of {token} must be finite and >= 0, got {price}"
                )
        self._prices: dict[Token, float] = items

    @classmethod
    def from_symbols(cls, prices: Mapping[str, float]) -> "PriceMap":
        """Build a price map from ``{"WETH": 1650.0, ...}`` shorthand."""
        return cls({Token(sym): p for sym, p in prices.items()})

    def __getitem__(self, token: Token) -> float:
        try:
            return self._prices[token]
        except KeyError:
            raise MissingPriceError(
                f"no CEX price for token {token.symbol!r}"
            ) from None

    def __iter__(self) -> Iterator[Token]:
        return iter(self._prices)

    def __len__(self) -> int:
        return len(self._prices)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t.symbol}={p:g}" for t, p in self._prices.items())
        return f"PriceMap({inner})"

    def price_of(self, token: Token) -> float:
        """Alias for ``self[token]`` that reads well in strategy code."""
        return self[token]

    def with_price(self, token: Token, price: float) -> "PriceMap":
        """Return a copy with one price replaced (used by sweeps)."""
        updated = dict(self._prices)
        updated[token] = price
        return PriceMap(updated)

    def max_price_token(self, candidates: Iterable[Token]) -> Token:
        """Token with the highest CEX price among ``candidates``.

        This is the start-token selection rule of the MaxPrice strategy.
        Ties break deterministically by symbol so experiments are
        reproducible.
        """
        ranked = sorted(candidates, key=lambda t: (-self[t], t.symbol))
        if not ranked:
            raise ValueError("candidates must be non-empty")
        return ranked[0]


@dataclass(frozen=True)
class ProfitVector:
    """Net per-token profit of an arbitrage (possibly multiple tokens).

    The traditional / MaxMax strategies produce a vector with a single
    non-zero component; the ConvexOptimization strategy can keep a
    surplus of *every* loop token (paper §V keeps 5 Y and 7.7 Z).
    """

    amounts: tuple[TokenAmount, ...]

    @classmethod
    def from_mapping(cls, net: Mapping[Token, float]) -> "ProfitVector":
        ordered = tuple(
            TokenAmount(token, amount)
            for token, amount in sorted(net.items(), key=lambda kv: kv[0].symbol)
        )
        return cls(ordered)

    @classmethod
    def single(cls, token: Token, amount: float) -> "ProfitVector":
        """Profit held entirely in one token (fixed-start strategies)."""
        return cls((TokenAmount(token, amount),))

    @classmethod
    def zero(cls) -> "ProfitVector":
        return cls(())

    def as_mapping(self) -> dict[Token, float]:
        return {ta.token: ta.amount for ta in self.amounts}

    def monetize(self, prices: PriceMap) -> float:
        """Monetized profit: ``sum(P_t * pi_t)`` (paper's core metric)."""
        return sum(prices[ta.token] * ta.amount for ta in self.amounts)

    def nonzero(self, tol: float = 0.0) -> "ProfitVector":
        """Drop components with ``|amount| <= tol``."""
        return ProfitVector(
            tuple(ta for ta in self.amounts if abs(ta.amount) > tol)
        )

    def __str__(self) -> str:
        if not self.amounts:
            return "<no profit>"
        return " + ".join(str(ta) for ta in self.amounts)
