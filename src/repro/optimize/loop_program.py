"""Build the paper's convex programs (eq. 7 / eq. 8) from a loop.

Variable layout for an *n*-hop loop (hops indexed in loop order):

    v[2*i]     = delta-in of hop i   (input-token units of pool i)
    v[2*i + 1] = delta-out of hop i  (output-token units of pool i)

Objective (eq. 8): ``sum_j P_j * (out_{j-1} - in_j)`` where token *j*
is received from hop ``j-1 (mod n)`` and spent into hop ``j``.

Constraints:

* per hop: CPMM feasibility ``out_i <= F_i(in_i)`` (concave form of the
  paper's product constraint), or its G3M twin for weighted pools —
  other pool families raise :class:`UnsupportedPoolFamilyError`;
* per token: linking ``out_{j-1} >= in_j`` — these are the inequalities
  that distinguish eq. (8); eq. (7) instead imposes *equalities* for
  the non-start tokens (and the paper shows eq. (7) collapses to the
  1-D fixed-start problem);
* all variables >= 0.

The module also knows how to construct strictly feasible interior
points (needed by the barrier backend) and how to decode a solution
vector into per-token profits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..amm.families import FAMILY_CPMM, FAMILY_G3M, FAMILY_NAMES, pool_family
from ..core.errors import InfeasibleProgramError, UnsupportedPoolFamilyError
from ..core.loop import ArbitrageLoop, Rotation
from ..core.types import PriceMap, ProfitVector, Token
from .closed_form import optimize_rotation
from .program import (
    AffineConstraint,
    ConvexProgram,
    HopConstraint,
    LinearEquality,
    WeightedHopConstraint,
)

__all__ = ["LINKINGS", "LoopProgram", "build_loop_program"]

#: ``linking`` values of :func:`build_loop_program`: eq. (8), eq. (7)
LINKINGS = ("inequality", "equality")


@dataclass(frozen=True)
class LoopProgram:
    """A built convex program plus the metadata to interpret solutions."""

    program: ConvexProgram
    loop: ArbitrageLoop
    prices: PriceMap

    # ------------------------------------------------------------------
    # solution decoding
    # ------------------------------------------------------------------

    def hop_amounts(self, v: np.ndarray) -> list[tuple[float, float]]:
        """Per-hop ``(amount_in, amount_out)`` pairs from a solution."""
        n = len(self.loop)
        return [(float(v[2 * i]), float(v[2 * i + 1])) for i in range(n)]

    def profit_vector(self, v: np.ndarray, tol: float = 0.0) -> ProfitVector:
        """Per-token net profit ``out_{j-1} - in_j`` from a solution.

        ``tol`` clips solver noise *per token*, relative to that
        token's own flow through the loop (a global scale would wipe
        out real profits on loops whose reserves span many orders of
        magnitude — e.g. meme-token pools holding 1e10 units).
        """
        n = len(self.loop)
        net: dict[Token, float] = {}
        for j, token in enumerate(self.loop.tokens):
            received = float(v[2 * ((j - 1) % n) + 1])
            spent = float(v[2 * j])
            value = received - spent
            if tol > 0 and abs(value) <= tol * max(1.0, received, spent):
                continue  # solver noise: omit the component entirely
            net[token] = value
        return ProfitVector.from_mapping(net)

    def monetized_profit(self, v: np.ndarray) -> float:
        return self.profit_vector(v).monetize(self.prices)

    # ------------------------------------------------------------------
    # interior points (barrier starts)
    # ------------------------------------------------------------------

    def interior_point(self, shrink: float = 1e-6) -> np.ndarray:
        """A strictly feasible point for the eq.-8 program.

        Strategy: take the best fixed-start rotation's optimal path and
        shrink every hop output (and the next hop's input) by a factor
        ``(1 - shrink)``; if no rotation is profitable enough to leave
        strict slack in the start-token constraint, fall back to a
        tiny-input path.  Raises :class:`InfeasibleProgramError` when
        the loop admits no strict interior — which, by the paper's
        zero-solution theorem, happens exactly when there is no
        arbitrage in the loop.
        """
        candidates = []
        best = self._best_rotation()
        if best is not None:
            rotation, t_star = best
            candidates.append(self._shrunk_path(rotation, t_star, shrink))
        # Tiny-input fallbacks at several scales.
        min_reserve = min(
            pool.reserve_of(tok)
            for tok, _out, pool in Rotation(self.loop, 0).hops()
            for tok in [tok]
        )
        for scale in (1e-6, 1e-9, 1e-12):
            candidates.append(
                self._shrunk_path(Rotation(self.loop, 0), min_reserve * scale, shrink)
            )
        for candidate in candidates:
            if candidate is not None and self.program.is_strictly_feasible(candidate):
                return candidate
        raise InfeasibleProgramError(
            f"{self.loop!r} admits no strictly feasible interior point "
            "(no arbitrage in this loop direction)"
        )

    def _best_rotation(self):
        best = None
        best_value = 0.0
        for rotation in self.loop.rotations():
            result = optimize_rotation(rotation)
            if result.x <= 0.0:
                continue
            monetized = result.value * self.prices[rotation.start_token]
            if best is None or monetized > best_value:
                best = (rotation, result.x)
                best_value = monetized
        return best

    def _shrunk_path(self, rotation: Rotation, amount_in: float, shrink: float):
        """Hop amounts along ``rotation`` with multiplicative slack."""
        if amount_in <= 0.0:
            return None
        n = len(self.loop)
        offset = self.loop.tokens.index(rotation.start_token)
        v = np.zeros(2 * n)
        current = amount_in
        for k, (token_in, _token_out, pool) in enumerate(rotation.hops()):
            hop_index = (offset + k) % n
            v[2 * hop_index] = current
            out = pool.quote_out(token_in, current) * (1.0 - shrink)
            v[2 * hop_index + 1] = out
            current = out * (1.0 - shrink)
        return v


def build_loop_program(
    loop: ArbitrageLoop,
    prices: PriceMap,
    linking: str = "inequality",
) -> LoopProgram:
    """Construct the eq.-(8) (default) or eq.-(7) program for ``loop``.

    Parameters
    ----------
    loop:
        The arbitrage loop; its stored direction is the trade direction.
    prices:
        CEX prices quoting every loop token.
    linking:
        ``"inequality"`` builds eq. (8): every token may retain a
        surplus.  ``"equality"`` builds eq. (7): flow conservation is
        exact for every token except the first (the start token keeps
        ``out >= in``), reducing the search space to the fixed-start
        problem — kept for the ablation benchmark.
    """
    if linking not in LINKINGS:
        raise ValueError(f"linking must be 'inequality' or 'equality', got {linking!r}")

    n = len(loop)
    n_vars = 2 * n
    tokens = loop.tokens

    for token in tokens:
        prices[token]  # raise MissingPriceError early

    objective = np.zeros(n_vars)
    for j, token in enumerate(tokens):
        price = prices[token]
        objective[2 * ((j - 1) % n) + 1] += price  # received from hop j-1
        objective[2 * j] -= price  # spent into hop j

    inequalities = []
    equalities = []
    rotation0 = Rotation(loop, 0)
    for i, (token_in, token_out, pool) in enumerate(rotation0.hops()):
        x, y = pool.reserves_oriented(token_in)
        hop_name = f"hop-{i}:{token_in.symbol}->{token_out.symbol}"
        family = pool_family(pool)
        if family == FAMILY_CPMM:
            inequalities.append(
                HopConstraint(
                    x=x,
                    y=y,
                    gamma=1.0 - pool.fee,
                    idx_in=2 * i,
                    idx_out=2 * i + 1,
                    n_vars=n_vars,
                    name=hop_name,
                )
            )
        elif family == FAMILY_G3M:
            inequalities.append(
                WeightedHopConstraint(
                    x=x,
                    y=y,
                    gamma=1.0 - pool.fee,
                    ratio=pool.weight_ratio(token_in),
                    idx_in=2 * i,
                    idx_out=2 * i + 1,
                    n_vars=n_vars,
                    name=hop_name,
                )
            )
        else:
            raise UnsupportedPoolFamilyError(
                f"the convex program has no hop constraint for "
                f"{FAMILY_NAMES.get(family, f'family {family}')} pool "
                f"{pool.pool_id!r} ({hop_name} of {loop.canonical_id})"
            )

    for j, token in enumerate(tokens):
        coeffs = np.zeros(n_vars)
        coeffs[2 * ((j - 1) % n) + 1] = 1.0
        coeffs[2 * j] = -1.0
        if linking == "equality" and j != 0:
            equalities.append(
                LinearEquality(coeffs=coeffs, rhs=0.0, name=f"link-{token.symbol}")
            )
        else:
            inequalities.append(
                AffineConstraint(coeffs=coeffs, offset=0.0, name=f"link-{token.symbol}")
            )

    var_names = []
    for i, (token_in, token_out, _pool) in enumerate(rotation0.hops()):
        var_names.append(f"in{i}[{token_in.symbol}]")
        var_names.append(f"out{i}[{token_out.symbol}]")

    program = ConvexProgram(
        n_vars=n_vars,
        objective=objective,
        inequalities=inequalities,
        equalities=equalities,
        nonneg=True,
        var_names=tuple(var_names),
    )
    return LoopProgram(program=program, loop=loop, prices=prices)
