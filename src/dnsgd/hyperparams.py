"""Hyperparameter bundles and the theoretical calculator.

theoretical_hyperparams converts a target stationarity epsilon plus problem
and network constants into the step size, batch size, iteration count, and
gossip depths under which the method is guaranteed to reach an epsilon/2
expected gradient norm. The guarantees assume a consensus contraction factor
rho small enough to satisfy a list of explicit inequalities; rho_guard checks
that list for a concrete rho and choose_k_for_guard finds the smallest gossip
depth satisfying it. The calculator's constants are fixed: C_K scales the
inner gossip depth, C_K_HAT the initial one, and RHO_MAX caps the worst-case
contraction factor of the inner depth.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .gossip import contraction_rho, min_rounds_for_rho

# Deepest gossip depth choose_k_for_guard tries.
K_MAX = 5000

# k_inner >= C_K log(max(m, 2)) / sqrt(gamma); k_init scales by C_K_HAT.
C_K = 2.0
C_K_HAT = 1.0
# Largest worst-case contraction factor of the inner depth: the descent
# preconditions require rho <= 1/2 and the consensus bound needs rho < 1.
RHO_MAX = 0.5


@dataclass(frozen=True)
class HyperParams:
    """Run-level hyperparameters.

    big_t may be zero (a run then records only its initial state); the
    calculator itself always emits big_t >= 1.
    """

    eta: float
    b: int
    big_t: int
    k_inner: int
    k_init: int
    epsilon: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for name, value, low in (
            ("b", self.b, 1),
            ("big_t", self.big_t, 0),
            ("k_inner", self.k_inner, 1),
            ("k_init", self.k_init, 1),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def lyapunov_constants(l0: float, l1: float, zeta: float) -> tuple[float, float]:
    """Weights (m0, m1) of the gradient-dependent consensus penalty."""
    if l0 < 0 or l1 < 0 or zeta < 0:
        raise ValueError("l0, l1, zeta must be non-negative")
    m0 = math.sqrt(2.0 * (l0 * l0 + l1 * l1 * zeta * zeta))
    m1 = math.sqrt(2.0) * l1
    return m0, m1


class RhoGuard(NamedTuple):
    """Outcome of the contraction-smallness precondition check."""

    ok: bool
    rho: float
    conditions: dict[str, bool]
    thresholds: dict[str, float]

    @property
    def min_threshold(self) -> float:
        return min(self.thresholds.values())


def _tracking_constants(
    rho: float, eta: float, l_f: float, l1: float
) -> tuple[float, float]:
    """Per-step amplification constants of the tracker error recursion."""
    m2 = (rho + 1.0) * l_f + rho * l_f * l1 * eta
    m3 = rho * l1 * (l1 * eta + 1.0) + l1
    return m2, m3


def rho_guard(
    rho: float,
    eta: float,
    l0: float,
    l1: float,
    zeta: float,
    sigma: float,
    b: int,
    m: int,
) -> RhoGuard:
    """Check the six descent preconditions for a concrete contraction rho.

    The tracker amplification constants depend on rho themselves, so all
    inequalities are evaluated at the supplied value (a self-consistency
    check rather than a solve). Thresholds report, per condition, the
    largest rho that would pass with these same amplification constants.
    """
    if rho < 0 or eta <= 0 or b < 1 or m < 1 or sigma < 0:
        raise ValueError("rho >= 0, eta > 0, b >= 1, m >= 1, sigma >= 0 required")
    l_f = l0 + l1 * zeta
    if l_f <= 0:
        raise ValueError("l0 + l1 * zeta must be positive")
    m0, m1 = lyapunov_constants(l0, l1, zeta)
    m2, m3 = _tracking_constants(rho, eta, l_f, l1)
    sq2 = math.sqrt(2.0)
    sqm = math.sqrt(m)
    inf = math.inf

    conditions: dict[str, bool] = {}
    thresholds: dict[str, float] = {}

    # Consensus penalty on the iterate term stays contractive.
    denom = 3.0 * (m0 + m1 * l_f * eta) + 2.0 * m2
    conditions["x_weight"] = 2.0 * sq2 * m0 + rho * denom <= 3.0 * m0
    thresholds["x_weight"] = (3.0 - 2.0 * sq2) * m0 / denom if denom > 0 else inf

    # Same for the gradient-proportional part (vacuous when l1 = 0).
    denom = 3.0 * m1 * (1.0 + l1 * eta) + 2.0 * m3
    conditions["grad_weight"] = 2.0 * sq2 * m1 + rho * denom <= 3.0 * m1
    thresholds["grad_weight"] = (3.0 - 2.0 * sq2) * m1 / denom if denom > 0 else inf

    conditions["v_weight"] = rho <= 0.5
    thresholds["v_weight"] = 0.5

    # Leakage into the gradient-norm coefficient stays below 1/8.
    denom = sqm * eta * (3.0 * m1 * (1.0 + l1 * eta) + 2.0 * m3)
    conditions["grad_coeff"] = rho * denom <= 0.125
    thresholds["grad_coeff"] = 0.125 / denom if denom > 0 else inf

    # Noise floor plus consensus leakage stays below eta * l_f / 4.
    noise = 2.0 * sigma / math.sqrt(m * b)
    denom = sqm * eta * (3.0 * (m0 + m1 * l_f * eta) + 2.0 * m2)
    budget = eta * l_f / 4.0 - noise
    conditions["noise_floor"] = noise + rho * denom <= eta * l_f / 4.0
    thresholds["noise_floor"] = (budget / denom if denom > 0 else inf) if budget > 0 else 0.0

    # Tracker error recursion remains a contraction.
    conditions["tracker_recursion"] = rho <= 1.0 / (1.0 + m * eta * l1)
    thresholds["tracker_recursion"] = 1.0 / (1.0 + m * eta * l1)

    return RhoGuard(
        ok=all(conditions.values()), rho=rho, conditions=conditions, thresholds=thresholds
    )


def choose_k_for_guard(
    lambda2: float,
    eta: float,
    l0: float,
    l1: float,
    zeta: float,
    sigma: float,
    b: int,
    m: int,
) -> int:
    """Smallest gossip depth whose worst-case rho passes rho_guard."""
    l_f = l0 + l1 * zeta
    if 2.0 * sigma / math.sqrt(m * b) >= eta * l_f / 4.0:
        raise ValueError(
            "noise floor condition cannot hold for any gossip depth: "
            "batch size too small for this sigma, eta, and l_f"
        )
    for k in range(1, K_MAX + 1):
        if rho_guard(contraction_rho(lambda2, k), eta, l0, l1, zeta, sigma, b, m).ok:
            return k
    raise ValueError(f"no gossip depth up to {K_MAX} passes the guard")


class TheoreticalParams(NamedTuple):
    """Calculator output: the HyperParams bundle plus its intermediates.

    guard is rho_guard evaluated at rho_actual and the chosen hyperparameters.
    """

    hp: HyperParams
    l_f: float
    m0: float
    m1: float
    delta_f: float
    delta_phi: float
    rho_actual: float
    guard: RhoGuard
    t_uncapped: int


def theoretical_hyperparams(
    epsilon: float,
    l0: float,
    l1: float,
    zeta: float,
    sigma: float,
    m: int,
    gamma: float,
    delta_f_estimate: float,
    *,
    g0_norm_sq: float,
    t_cap: int | None = None,
    k_mode: str = "formula",
) -> TheoreticalParams:
    """Hyperparameters guaranteeing an epsilon/2 expected gradient norm.

    eta = min(epsilon / (4 l_f + 1), 1 / (2 l1)); the batch size scales with
    sigma^2 / m; the iteration count with delta_phi / epsilon^2 where
    delta_phi budgets twice the initial objective gap (the init gossip depth
    k_init is chosen to make that budget valid). The inner gossip depth is
    ceil(C_K * log(max(m, 2)) / sqrt(gamma)), floored so the worst-case
    contraction factor is at most RHO_MAX.

    g0_norm_sq is sum_i ||grad f_i(x0)||^2 measured at the start point; with
    the noise it sets k_init. k_mode = "guard" additionally raises the inner
    depth until rho_guard passes. t_cap truncates the iteration count (the
    uncapped value is recorded).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    try:
        m = int(operator.index(m))
    except TypeError:
        raise ValueError(f"m must be a positive integer, got {m!r}") from None
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if l0 < 0 or l1 < 0 or zeta < 0 or sigma < 0:
        raise ValueError("l0, l1, zeta, sigma must be non-negative")
    if delta_f_estimate <= 0:
        raise ValueError("delta_f_estimate must be positive")
    if not math.isfinite(delta_f_estimate):
        raise ValueError(f"delta_f_estimate must be finite, got {delta_f_estimate}")
    if k_mode not in ("formula", "guard"):
        raise ValueError(f"k_mode must be 'formula' or 'guard', got {k_mode!r}")
    if g0_norm_sq < 0:
        raise ValueError("g0_norm_sq must be non-negative")
    if not math.isfinite(g0_norm_sq):
        raise ValueError(f"g0_norm_sq must be finite, got {g0_norm_sq}")

    l_f = l0 + l1 * zeta
    if l_f <= 0:
        raise ValueError("l0 + l1 * zeta must be positive")
    m0, m1 = lyapunov_constants(l0, l1, zeta)

    eta = epsilon / (4.0 * l_f + 1.0)
    if l1 > 0:
        eta = min(eta, 1.0 / (2.0 * l1))

    if sigma > 0:
        b1 = 256.0 * (4.0 * l_f + 1.0) ** 2 * sigma * sigma / (m * l_f * l_f * epsilon * epsilon)
        b2 = 1024.0 * l1 * l1 * sigma * sigma / (m * l_f * l_f)
        b = max(1, math.ceil(max(b1, b2)))
    else:
        b = 1

    delta_phi = 2.0 * delta_f_estimate
    t1 = 8.0 * (4.0 * l_f + 1.0) * delta_phi / (epsilon * epsilon)
    t2 = 16.0 * l1 * delta_phi / epsilon if l1 > 0 else 0.0
    t_uncapped = max(1, math.ceil(max(t1, t2)))
    big_t = min(t_uncapped, t_cap) if t_cap is not None else t_uncapped

    lambda2 = 1.0 - gamma
    k_formula = math.ceil(C_K * math.log(max(m, 2)) / math.sqrt(gamma))
    k_inner = max(1, k_formula, min_rounds_for_rho(lambda2, RHO_MAX))
    if k_mode == "guard":
        k_inner = max(k_inner, choose_k_for_guard(lambda2, eta, l0, l1, zeta, sigma, b, m))

    drive = math.sqrt(m * sigma * sigma / b + g0_norm_sq)
    if drive == 0.0:
        k_init = 1
    else:
        rho_target = math.sqrt(m) * delta_f_estimate / (2.0 * math.sqrt(2.0) * eta * drive)
        k_init = max(1, math.ceil(C_K_HAT * min_rounds_for_rho(lambda2, rho_target)))

    hp = HyperParams(
        eta=eta, b=int(b), big_t=int(big_t), k_inner=int(k_inner), k_init=int(k_init),
        epsilon=float(epsilon),
    )
    rho_actual = contraction_rho(lambda2, k_inner)
    return TheoreticalParams(
        hp=hp, l_f=l_f, m0=m0, m1=m1, delta_f=float(delta_f_estimate),
        delta_phi=delta_phi, rho_actual=rho_actual,
        guard=rho_guard(rho_actual, eta, l0, l1, zeta, sigma, b, m), t_uncapped=int(t_uncapped),
    )
