"""Hyperparameter bundles and the theoretical calculator.

theoretical_hyperparams converts a target stationarity epsilon, a problem
instance and the network's mixing matrix into the step size, batch size,
iteration count, and gossip depths under which the method is guaranteed to
reach an epsilon/2 expected gradient norm. The guarantees assume a consensus
contraction factor rho small enough to satisfy a list of explicit
inequalities; rho_guard checks that list for a concrete rho and
choose_k_for_guard finds the smallest gossip depth satisfying it; the
calculator never picks a shallower inner depth. The rho of a depth is its
exact gossip.contraction on the matrix's own spectrum, and one search
(_shallowest_depth) finds both depths.

Every function here reads the problem's constants (l0, l1, zeta, sigma, m)
from its ProblemInstance, whose fields make_problem has held to their
problems.PARAMS rules and whose l_f = problems.lf_effective(p) it has made
sure is positive, and the spectrum from its MixingMatrix, so none of them is
checked again here. Each HyperParams field's type and range is one FIELDS
rule (a problems.Param), which config parsing, HyperParams and rho_guard apply.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .gossip import contraction
from .problems import COUNT, POSITIVE, Param, ProblemInstance, check_fields, lf_effective
from .topology import MixingMatrix

# Deepest gossip depth the depth search tries; the exp_pair benchmark problem
# on a path at m = 1024 needs 11069, its formula depth.
K_MAX = 2**16

# k_inner >= C_K log(max(m, 2)) / sqrt(gamma).
C_K = 2.0

# The largest contraction a depth search accepts past its start (the guard's
# v_weight limit): below it contraction falls as k grows on every graph measured,
# 2 to 512 agents; above 0.98 it need not (1.2 at depth 2 on a 256-path).
RHO_SEARCH_MAX = 0.5

# Each HyperParams field's rule, which config parsing and __post_init__ both
# apply; auto.epsilon and a sweep's target_epsilon are held to the epsilon rule.
FIELDS = {
    "eta": POSITIVE,
    "b": COUNT,
    "big_t": Param(True, "an integer >= 0", lambda v: v >= 0),
    "k_inner": COUNT,
    "k_init": COUNT,
    "epsilon": POSITIVE,
}


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
        check_fields(FIELDS, vars(self))


def lyapunov_constants(p: ProblemInstance) -> tuple[float, float]:
    """Weights (m0, m1) of the gradient-dependent consensus penalty."""
    m0 = math.sqrt(2.0 * (p.l0 * p.l0 + p.l1 * p.l1 * p.zeta * p.zeta))
    m1 = math.sqrt(2.0) * p.l1
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


def _largest_rho(budget: float, denom: float) -> float:
    """Largest rho with rho * denom <= budget, for denom >= 0."""
    if denom > 0:
        return budget / denom
    return math.inf if budget >= 0 else -math.inf


def rho_guard(rho: float, p: ProblemInstance, eta: float, b: int) -> RhoGuard:
    """Check the six descent preconditions for a concrete contraction rho.

    Each condition is rho <= its threshold: the largest rho that passes with
    the amplification constants evaluated at the supplied rho (they depend on
    rho themselves, so this is a self-consistency check rather than a solve).
    eta and b are held to their FIELDS rules.
    """
    check_fields(FIELDS, {"eta": eta, "b": b})
    l1, sigma, m = p.l1, p.sigma, p.m
    l_f = lf_effective(p)
    m0, m1 = lyapunov_constants(p)
    m2, m3 = _tracking_constants(rho, eta, l_f, l1)
    sqm = math.sqrt(m)
    slack = 3.0 - 2.0 * math.sqrt(2.0)
    x_denom = 3.0 * (m0 + m1 * l_f * eta) + 2.0 * m2
    grad_denom = 3.0 * m1 * (1.0 + l1 * eta) + 2.0 * m3
    noise_budget = eta * l_f / 4.0 - 2.0 * sigma / math.sqrt(m * b)
    thresholds = {
        # consensus penalty on the iterate term stays contractive
        "x_weight": _largest_rho(slack * m0, x_denom),
        # same for the gradient-proportional part (vacuous when l1 = 0)
        "grad_weight": _largest_rho(slack * m1, grad_denom),
        "v_weight": 0.5,
        # leakage into the gradient-norm coefficient stays below 1/8
        "grad_coeff": _largest_rho(0.125, sqm * eta * grad_denom),
        # noise floor plus consensus leakage stays below eta * l_f / 4
        "noise_floor": _largest_rho(noise_budget, sqm * eta * x_denom),
        # tracker error recursion remains a contraction
        "tracker_recursion": 1.0 / (1.0 + m * eta * l1),
    }
    conditions = {name: rho <= limit for name, limit in thresholds.items()}
    return RhoGuard(
        ok=all(conditions.values()), rho=rho, conditions=conditions, thresholds=thresholds
    )


def _shallowest_depth(
    mix: MixingMatrix, passes: Callable[[float], bool], what: str, start: int = 1
) -> int:
    """Smallest depth k >= start whose rho = contraction(mix, k) passes, and
    past start also has rho <= RHO_SEARCH_MAX.

    For passes monotone in rho the passing depths past start are a tail, so
    probing start, start + 1, start + 3, ... until one passes and bisecting
    the last gap finds, in O(log K_MAX) probes, what a linear scan finds.
    """
    def ok(k: int) -> bool:
        rho = contraction(mix, k)
        return (k == start or rho <= RHO_SEARCH_MAX) and passes(rho)

    failed, width = start - 1, 1  # every depth from start to failed fails
    while not ok(k := min(failed + width, K_MAX)):
        if k == K_MAX:
            raise ValueError(
                f"no gossip depth up to {K_MAX} passes {what}; give hyperparams instead of auto"
            )
        failed, width = k, 2 * width
    return bisect.bisect_left(range(failed + 1, k), True, key=ok) + failed + 1


def choose_k_for_guard(
    mix: MixingMatrix, p: ProblemInstance, eta: float, b: int, start: int = 1
) -> int:
    """Smallest gossip depth k >= start whose contraction on mix passes rho_guard."""
    if 2.0 * p.sigma / math.sqrt(p.m * b) >= eta * lf_effective(p) / 4.0:
        raise ValueError(
            "noise floor condition cannot hold for any gossip depth: "
            "batch size too small for this sigma, eta, and l_f"
        )
    return _shallowest_depth(mix, lambda rho: rho_guard(rho, p, eta, b).ok, "rho_guard", start)


class TheoreticalParams(NamedTuple):
    """Calculator output: the HyperParams bundle plus its intermediates.

    guard is rho_guard evaluated at the chosen hyperparameters and
    guard.rho = gossip.contraction(mix, hp.k_inner).
    """

    hp: HyperParams
    l_f: float
    m0: float
    m1: float
    delta_f: float
    delta_phi: float
    guard: RhoGuard
    t_uncapped: int


def theoretical_hyperparams(
    p: ProblemInstance, mix: MixingMatrix, epsilon: float, delta_f_estimate: float, *,
    g0_norm_sq: float, t_cap: int | None = None,
) -> TheoreticalParams:
    """Hyperparameters guaranteeing an epsilon/2 expected gradient norm on p.

    p supplies l0, l1, zeta, sigma and m, and mix the spectrum its agents mix
    with. eta = min(epsilon / (4 l_f + 1), 1 / (2 l1)) with
    l_f = lf_effective(p); the batch size scales with sigma^2 / m; the
    iteration count with delta_phi / epsilon^2 where delta_phi budgets twice
    the initial objective gap. The inner gossip depth is the larger of
    ceil(C_K * log(max(m, 2)) / sqrt(mix.gamma)) and the smallest depth whose
    contraction passes rho_guard, so the returned guard always passes. The
    init depth k_init, which makes the delta_phi budget valid, is the first
    (by _shallowest_depth) whose contraction is at most sqrt(m) delta_f /
    (2 sqrt(2) eta drive), drive^2 = m sigma^2 / b + g0_norm_sq (1 without
    drive). ValueError when no depth up to K_MAX passes either rule.

    g0_norm_sq is sum_i ||grad f_i(x0)||^2 measured at the start point. t_cap
    truncates the iteration count (the uncapped value is recorded). epsilon,
    delta_f_estimate and g0_norm_sq are checked here; p's fields were checked
    by make_problem and mix's spectrum by metropolis_mixing.
    """
    check_fields(FIELDS, {"epsilon": epsilon})
    if delta_f_estimate <= 0:
        raise ValueError("delta_f_estimate must be positive")
    if not math.isfinite(delta_f_estimate):
        raise ValueError(f"delta_f_estimate must be finite, got {delta_f_estimate}")
    if g0_norm_sq < 0:
        raise ValueError("g0_norm_sq must be non-negative")
    if not math.isfinite(g0_norm_sq):
        raise ValueError(f"g0_norm_sq must be finite, got {g0_norm_sq}")

    l1, sigma, m = p.l1, p.sigma, p.m
    l_f = lf_effective(p)
    m0, m1 = lyapunov_constants(p)

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

    k_formula = math.ceil(C_K * math.log(max(m, 2)) / math.sqrt(mix.gamma))
    k_inner = choose_k_for_guard(mix, p, eta, b, start=k_formula)

    drive, k_init = math.sqrt(m * sigma * sigma / b + g0_norm_sq), 1
    if drive > 0.0:
        rho_target = math.sqrt(m) * delta_f_estimate / (2.0 * math.sqrt(2.0) * eta * drive)
        k_init = _shallowest_depth(
            mix, lambda rho: rho <= rho_target, f"the k_init target rho <= {rho_target:.3g}"
        )

    hp = HyperParams(
        eta=eta, b=int(b), big_t=int(big_t), k_inner=int(k_inner), k_init=int(k_init),
        epsilon=float(epsilon),
    )
    return TheoreticalParams(
        hp=hp, l_f=l_f, m0=m0, m1=m1, delta_f=float(delta_f_estimate), delta_phi=delta_phi,
        guard=rho_guard(contraction(mix, k_inner), p, eta, b), t_uncapped=int(t_uncapped),
    )
