"""Round schedule for the dense coloring phase.

The density parameter is eps = 100^(-sqrt(ln D)) / (100 K) for max
degree D and a constant K. The dense phase runs ceil(sqrt(ln D)) steps;
step i is driven by gamma_i = 1 - 2 sqrt(delta_{i-1}) where the bound
pair (D_i, Z_i) evolves as

    D_0 = 3 eps D,  Z_0 = D / 2,
    D_{i+1} = 12 D_i sqrt(delta_i),  Z_{i+1} = D_i / sqrt(delta_i),

with delta_i = D_i / Z_i (so delta_i = 6 eps * 12^i in closed form).
All quantities are analytic bounds kept as doubles, never rounded to
integer counts. Natural logarithms throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError

# Default trade-off constant. Large values push every desk-scale input
# onto the fallback path, so the default is modest and tests pin the
# value they need explicitly.
DEFAULT_K = 16.0

# Activation probability of the initial coloring step (probability that
# a vertex tries a color at all).
ACTIVATION_PROB = 1.0 / 100.0


@dataclass(frozen=True)
class RoundParams:
    """Parameters after dense step i: bounds d (=D_i), z (=Z_i), their
    ratio delta, and the prefix fraction gamma used BY step i (None for
    the row describing the state before any dense step)."""

    d: float
    z: float
    delta: float
    gamma: float | None


@dataclass(frozen=True)
class ScheduleParams:
    k: float
    epsilon: float
    epsilon_overridden: bool
    num_dense_rounds: int
    rounds: tuple[RoundParams, ...]
    main_path: bool
    regularity_horizon: int

    def to_dict(self) -> dict:
        return {
            "K": self.k,
            "epsilon": self.epsilon,
            "epsilon_overridden": self.epsilon_overridden,
            "num_dense_rounds": self.num_dense_rounds,
            "main_path": self.main_path,
            "regularity_horizon": self.regularity_horizon,
            "rounds": [
                {"d": r.d, "z": r.z, "delta": r.delta, "gamma": r.gamma} for r in self.rounds
            ],
        }


def is_real(value) -> bool:
    """Whether ``value`` is a real number: bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_k(k: float) -> None:
    if not is_real(k):
        raise ValidationError(f"K must be a real number, got {k!r}")
    if not (math.isfinite(k) and k > 0):
        raise ValidationError(f"K must be positive and finite, got {k}")


def check_epsilon(epsilon: float, what: str = "epsilon", hint: str = "") -> float:
    """``epsilon`` as a float, which must be a real number in (0, 1/5);
    ``what`` names it in the error and ``hint`` ends the error."""
    if not is_real(epsilon):
        raise ValidationError(f"{what} must be a real number, got {epsilon!r}{hint}")
    eps = float(epsilon)
    if not 0.0 < eps < 0.2:
        raise ValidationError(f"{what} must be in (0, 1/5), got {eps}{hint}")
    return eps


def density_epsilon(delta_max: float, k: float) -> float:
    """eps = 100^(-sqrt(ln max_degree)) / (100 K)."""
    if delta_max < 1:
        raise ValidationError("max degree must be at least 1")
    _check_k(k)
    return 100.0 ** (-math.sqrt(math.log(delta_max))) / (100.0 * k)


def advance_params(d: float, z: float) -> tuple[float, float]:
    """One recurrence step: (d, z) -> (12 d sqrt(delta), d / sqrt(delta)).

    Requires 0 < d < z; at delta = d/z >= 1 the square-root scaling is
    meaningless and the step is a domain error. Note z' = sqrt(d * z).
    """
    if d <= 0 or z <= 0:
        raise ValidationError("bounds must be positive")
    if d >= z:
        raise ValidationError(f"recurrence needs d < z, got d={d}, z={z}")
    root = math.sqrt(d / z)
    return 12.0 * d * root, d / root


def regularity_ok(d: float, z: float, n: int, k: float) -> bool:
    """Regularity gate for one dense step: d*delta >= K ln n and delta <= 1/K."""
    if d <= 0 or z <= 0:
        raise ValidationError("bounds must be positive")
    if n < 1:
        raise ValidationError("vertex count must be at least 1")
    _check_k(k)
    delta = d / z
    return d * delta >= k * math.log(n) and delta <= 1.0 / k


def build_schedule(
    delta_max: float,
    n: int,
    k: float = DEFAULT_K,
    epsilon: float | None = None,
) -> ScheduleParams:
    """Compute the full per-round parameter table for a run.

    ``epsilon`` normally comes from the density formula; an explicit
    value overrides it (used for experiments where the formula would
    make every vertex sparse). ``main_path`` records the activation
    gate eps^4 * max_degree >= K ln n; when it is false the coloring
    engine routes the whole graph to the fallback.

    The table stops early if the ratio delta reaches 1, where the
    recurrence leaves its domain; the regularity horizon can never
    extend past that point for K >= 1.
    """
    if delta_max < 1:
        raise ValidationError("max degree must be at least 1")
    if n < 1:
        raise ValidationError("vertex count must be at least 1")
    _check_k(k)
    overridden = epsilon is not None
    if overridden:
        eps = check_epsilon(epsilon, "epsilon override")
    else:
        eps = check_epsilon(density_epsilon(delta_max, k), f"the density formula's epsilon at K={k}",
                            "; set it with --epsilon")

    num_rounds = math.ceil(math.sqrt(math.log(delta_max)))
    d0 = 3.0 * eps * delta_max
    z0 = delta_max / 2.0
    rounds = [RoundParams(d=d0, z=z0, delta=d0 / z0, gamma=None)]
    for _ in range(num_rounds):
        prev = rounds[-1]
        if prev.delta >= 1.0:
            break
        gamma = 1.0 - 2.0 * math.sqrt(prev.delta)
        d_next, z_next = advance_params(prev.d, prev.z)
        rounds.append(RoundParams(d=d_next, z=z_next, delta=d_next / z_next, gamma=gamma))

    horizon = 0
    for r in rounds:
        if regularity_ok(r.d, r.z, n, k):
            horizon += 1
        else:
            break
    horizon = min(horizon, len(rounds) - 1)

    main_path = eps**4 * delta_max >= k * math.log(n)
    return ScheduleParams(
        k=float(k),
        epsilon=eps,
        epsilon_overridden=overridden,
        num_dense_rounds=num_rounds,
        rounds=tuple(rounds),
        main_path=main_path,
        regularity_horizon=horizon,
    )
