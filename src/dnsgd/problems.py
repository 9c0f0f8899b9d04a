"""Synthetic problem families with relaxed smoothness certificates.

Each instance consists of a shared base objective plus per-agent linear
offsets b_i with sum_i b_i = 0 and ||b_i|| <= zeta:

    f_i(x) = f_base(x) + <b_i, x>.

Because the offsets cancel in the average, the global objective equals
f_base, its infimum is analytic, and ||grad f_i(x) - grad f(x)|| equals
||b_i|| at every x.

Families:
    exp_pair   f_base(x) = (1/d) sum_j (exp(r x_j) + exp(-r x_j)) / 2
    poly_even  f_base(x) = (a / p) sum_j x_j^p, even p >= 4
    quadratic  f_base(x) = (c / 2) ||x||^2

The relaxed smoothness condition certified at construction is

    ||grad f(x) - grad f(y)|| <= (l0 + l1 ||grad f(x)||) ||x - y||

for ||x - y|| <= 1/l1 (unrestricted when l1 = 0), sampled over the box
||x||_inf <= box_radius. A certificate draws its pairs and evaluates their
gradients once, then tests each candidate l0 on those arrays.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .streams import StreamKey, derive_stream

# The parameters each family takes, in its maker's argument order.
FAMILY_PARAMS = {
    "exp_pair": ("rate",),
    "poly_even": ("power", "scale"),
    "quadratic": ("curvature",),
}
FAMILIES = tuple(FAMILY_PARAMS)

# exp(x) overflows float64 near 709.8; reject arguments beyond this bound.
EXP_ARG_MAX = 700.0

_OFFSET_HAIRCUT = 1.0 - 1e-13

# Sampled pairs per certification pass of a numerically certified family.
CERTIFY_TRIALS = 1500

# Relative slack on the bound before a sampled pair counts as a violation.
RATIO_TOL = 1e-9


class ProblemInstance(NamedTuple):
    family: str
    d: int
    m: int
    l0: float
    l1: float
    zeta: float
    sigma: float
    offsets: np.ndarray
    family_params: dict[str, float]
    f_star: float
    box_radius: float


def _check_point(p: ProblemInstance, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != p.d:
        raise ValueError(f"point must have shape ({p.d},) or (n, {p.d}), got {x.shape}")
    return x


class ExpRangeError(ValueError):
    """An exp_pair argument left the safe range; row is the first row of x out of it."""

    def __init__(self, row: int):
        super().__init__(
            "argument out of safe range for the exponential family "
            f"(|rate * x_j| exceeds {EXP_ARG_MAX})"
        )
        self.row = row


def _exp_guard(rate: float, x: np.ndarray) -> None:
    scaled = np.abs(rate * x)
    if scaled.max(initial=0.0) > EXP_ARG_MAX:
        rows = scaled.reshape(-1, x.shape[-1]).max(axis=1) > EXP_ARG_MAX
        raise ExpRangeError(int(np.argmax(rows)))


def f_base(p: ProblemInstance, x: np.ndarray) -> float | np.ndarray:
    """Objective at a point (d,), or row by row at a row matrix (n, d) as an (n,) array."""
    x = _check_point(p, x)
    if p.family == "exp_pair":
        r = p.family_params["rate"]
        _exp_guard(r, x)
        f = np.cosh(r * x).mean(axis=-1)
    elif p.family == "poly_even":
        a = p.family_params["scale"]
        power = p.family_params["power"]
        f = (a / power) * np.sum(x**power, axis=-1)
    else:
        c = p.family_params["curvature"]
        f = 0.5 * c * np.vecdot(x, x)
    return float(f) if x.ndim == 1 else f


def grad_base(p: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient at a point (d,), or row by row at a row matrix (n, d)."""
    x = _check_point(p, x)
    if p.family == "exp_pair":
        r = p.family_params["rate"]
        _exp_guard(r, x)
        return (r / p.d) * np.sinh(r * x)
    if p.family == "poly_even":
        a = p.family_params["scale"]
        power = p.family_params["power"]
        return a * x ** (power - 1)
    c = p.family_params["curvature"]
    return c * x


def _check_agent(p: ProblemInstance, i: int) -> None:
    if not 0 <= i < p.m:
        raise ValueError(f"agent index {i} out of range for m = {p.m}")


def f_local(p: ProblemInstance, i: int, x: np.ndarray) -> float | np.ndarray:
    _check_agent(p, i)
    x = _check_point(p, x)
    f = f_base(p, x) + x @ p.offsets[i]
    return float(f) if x.ndim == 1 else f


def grad_local(p: ProblemInstance, i: int, x: np.ndarray) -> np.ndarray:
    _check_agent(p, i)
    return grad_base(p, x) + p.offsets[i]


def sample_grad(
    p: ProblemInstance, x_rows: np.ndarray, b: int, rng: np.random.Generator
) -> np.ndarray:
    """Minibatch stochastic gradients of all m agents, row i at x_rows[i].

    Each underlying draw is the exact gradient plus spherical Gaussian noise
    with total variance sigma^2. The b-draw average is itself Gaussian with
    per-coordinate variance sigma^2 / (b d), so it is drawn directly at that
    scale; the caller's sample counter still advances by b. The noise is one
    (m, d) block drawn from rng, row i for agent i; none when sigma = 0.

    Verification tolerances: over n independent calls the empirical mean of a
    row must match grad_local to within 5 sigma / sqrt(b d n) per coordinate,
    and the empirical mean of ||g_i - grad_local||^2 must match sigma^2 / b to
    within 5 sqrt(2 / (n d)) relative (both are 5-standard-error bands).
    """
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"batch size must be a positive integer, got {b!r}")
    if np.shape(x_rows) != (p.m, p.d):
        raise ValueError(f"agent matrix must have shape ({p.m}, {p.d}), got {np.shape(x_rows)}")
    g = grad_base(p, x_rows) + p.offsets
    if p.sigma > 0.0:
        g = g + rng.standard_normal((p.m, p.d)) * (p.sigma / math.sqrt(b * p.d))
    return g


def lf_effective(l0: float, l1: float, zeta: float) -> float:
    """Smoothness constant of the average objective: l0 + l1 * zeta."""
    if l0 < 0 or l1 < 0 or zeta < 0:
        raise ValueError("l0, l1, zeta must be non-negative")
    return l0 + l1 * zeta


class SmoothnessReport(NamedTuple):
    """Result of sampling the relaxed smoothness condition.

    worst_ratio is gap / bound at the worst pair (inf when the bound is zero
    but the gradient gap is not). implied_l0 is the largest l0 that any
    sampled pair actually requires given l1, useful for calibrating
    certificates.
    """

    passed: bool
    worst_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    worst_gap: float
    worst_bound: float
    violations: int
    trials: int
    implied_l0: float


def _smoothness_probe_pairs(dim: int, l1: float, region: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic axis-aligned probe pairs (x rows, y rows), including steps from zero.

    For symmetric separable objectives the binding pairs sit on coordinate
    axes at full admissible step length; probing them directly makes the
    sampled certificate reproducible across seeds. The pairs run over axis j,
    then base point u, then sign s, with x = s u e_j and y = s (u + step) e_j.
    """
    step = min(1.0 / l1, region) if l1 > 0 else region / 3.0
    base_points = np.linspace(0.0, max(region - step, 0.0), num=6)
    axes = min(dim, 8)
    axis = np.repeat(np.arange(axes), 12)
    u = np.tile(np.repeat(base_points, 2), axes)
    sign = np.tile([1.0, -1.0], 6 * axes)
    x = np.zeros((axis.size, dim))
    y = np.zeros((axis.size, dim))
    rows = np.arange(axis.size)
    x[rows, axis] = sign * u
    y[rows, axis] = sign * (u + step)
    return x, y


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _sample_pairs(dim: int, l1: float, region: float, trials: int, seed: int, extra_pairs=()):
    """The pairs check_relaxed_smooth tests, less those with x == y; they depend on l1, not l0.

    Returns x rows, y rows, their distances and the pair count before the drop.
    """
    gen = derive_stream(StreamKey(seed, "smoothness", 0, 0))
    rmax = min(1.0 / l1, 2.0 * region * math.sqrt(dim)) if l1 > 0 else None

    xs = np.empty((trials, dim))
    ys = np.empty((trials, dim))
    if rmax is None:
        for t in range(trials):
            xs[t] = gen.uniform(-region, region, size=dim)
            ys[t] = gen.uniform(-region, region, size=dim)
    else:
        directions = np.empty((trials, dim))
        # Every tenth pair uses the full admissible distance.
        dist = np.full(trials, rmax)
        for t in range(trials):
            xs[t] = gen.uniform(-region, region, size=dim)
            directions[t] = gen.standard_normal(dim)
            if t % 10 != 0:
                dist[t] = gen.uniform(0.0, rmax)
        norms = _row_norms(directions)
        zero = norms == 0.0
        directions[zero] = 0.0
        directions[zero, 0] = 1.0
        norms[zero] = 1.0
        directions /= norms[:, None]
        ys = xs + dist[:, None] * directions
        # Halve the distance of the pairs still outside the box, up to 32
        # times; a pair that never gets inside falls back to y = x.
        outside = np.arange(trials)
        for _ in range(32):
            outside = outside[~(np.abs(ys[outside]).max(axis=1) <= region)]
            if outside.size == 0:
                break
            dist[outside] *= 0.5
            ys[outside] = xs[outside] + dist[outside, None] * directions[outside]
        else:
            ys[outside] = xs[outside]

    probe_x, probe_y = _smoothness_probe_pairs(dim, l1, region)
    extra = np.asarray(extra_pairs, dtype=np.float64).reshape(-1, 2, dim)
    x_rows = np.concatenate([xs, probe_x, extra[:, 0]])
    y_rows = np.concatenate([ys, probe_y, extra[:, 1]])
    dist = _row_norms(x_rows - y_rows)
    moved = dist != 0.0
    return x_rows[moved], y_rows[moved], dist[moved], len(moved)


def _gradient_gaps(grad: Callable[[np.ndarray], np.ndarray], x_rows, y_rows):
    """||grad(x) - grad(y)|| and ||grad(x)|| per pair, from one grad call per side."""
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(grad(x_rows), dtype=np.float64)
        gy = np.asarray(grad(y_rows), dtype=np.float64)
        gap = _row_norms(gx - gy)
        gx_norm = _row_norms(gx)
    if not (np.isfinite(gap).all() and np.isfinite(gx_norm).all()):
        raise ValueError("gradient norms on the box overflow float64; shrink the box or the rate")
    return gap, gx_norm


def _violates(gap, gx_norm, dist, l0: float, l1: float) -> np.ndarray:
    """Pairs whose gradient gap exceeds the relaxed smoothness bound beyond RATIO_TOL."""
    return gap > (l0 + l1 * gx_norm) * dist * (1.0 + RATIO_TOL) + 1e-12


def check_relaxed_smooth(
    grad: Callable[[np.ndarray], np.ndarray],
    dim: int,
    l0: float,
    l1: float,
    region: float = 5.0,
    trials: int = 1000,
    seed: int = 0,
    extra_pairs: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> SmoothnessReport:
    """Sample the relaxed smoothness condition for a gradient map.

    Draws ``trials`` admissible pairs (x, y) with ||x - y|| <= 1/l1 inside the
    box ||x||_inf <= region (unrestricted distances when l1 = 0), adds
    deterministic axis probes and any caller-supplied pairs, and evaluates

        gap = ||grad(x) - grad(y)||  vs  bound = (l0 + l1 ||grad(x)||) ||x - y||.

    The sample (_sample_pairs) does not depend on l0, and the gradients
    (_gradient_gaps) are evaluated once: grad maps an (n, dim) row matrix to its
    row gradients and is called once on all x rows and once on all y rows,
    skipping pairs with x == y. It raises ValueError when a gradient norm
    overflows float64. A pair violates when gap > bound * (1 + RATIO_TOL) +
    1e-12. Pairs are ranked by (ratio, gap); the first worst one is the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if l0 < 0 or l1 < 0:
        raise ValueError("l0 and l1 must be non-negative")
    x_rows, y_rows, dist, count = _sample_pairs(dim, l1, region, trials, seed, extra_pairs)
    gap, gx_norm = _gradient_gaps(grad, x_rows, y_rows)
    bound = (l0 + l1 * gx_norm) * dist
    violations = int(np.count_nonzero(_violates(gap, gx_norm, dist, l0, l1)))
    ratio = np.divide(gap, bound, out=np.where(gap > 0.0, math.inf, 0.0), where=bound > 0.0)

    if gap.size:
        top = np.flatnonzero(ratio == ratio.max())
        worst = int(top[np.argmax(gap[top])])
        witness = (x_rows[worst].copy(), y_rows[worst].copy())
        worst_ratio, worst_gap, worst_bound = (
            float(ratio[worst]), float(gap[worst]), float(bound[worst])
        )
        implied = float((gap / dist - l1 * gx_norm).max())
    else:
        witness = (np.zeros(dim), np.zeros(dim))
        worst_ratio = worst_gap = worst_bound = implied = 0.0
    return SmoothnessReport(
        passed=violations == 0, worst_ratio=worst_ratio, witness_x=witness[0],
        witness_y=witness[1], worst_gap=worst_gap, worst_bound=worst_bound,
        violations=violations, trials=count, implied_l0=implied,
    )


def _make_offsets(d: int, m: int, zeta: float, seed: int) -> np.ndarray:
    if zeta == 0.0 or m == 1:
        return np.zeros((m, d))
    gen = derive_stream(StreamKey(seed, "offsets", 0, 0))
    raw = gen.standard_normal((m, d))
    raw -= raw.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(raw, axis=1)
    top = norms.max()
    if top == 0.0:
        return np.zeros((m, d))
    # Slight haircut keeps every norm strictly <= zeta under rounding.
    return raw * (zeta / top * _OFFSET_HAIRCUT)


@functools.cache
def _certified_l0(
    family: str, params: tuple[tuple[str, float], ...], d: int, l1: float, l0_start: float,
    box_radius: float, seed: int,
) -> float:
    """Raise l0_start until the sampled check passes for the family's base objective.

    One sample and one gradient evaluation serve every candidate. A failing l0
    is raised to 1.2 times the largest l0 that a violating pair implies (and by
    at least 5%), so implied l0s that are rounding noise never inflate it.
    Memoized on these scalar inputs, so rebuilding a problem for another agent
    count (as a sweep does) reuses the certificate of the same m = 1 stub.
    """
    # the stub only feeds grad_base, which reads family, d and family_params
    stub = ProblemInstance(
        family=family, d=d, m=1, l0=0.0, l1=l1, zeta=0.0, sigma=0.0, offsets=np.zeros((1, d)),
        family_params=dict(params), f_star=0.0, box_radius=box_radius,
    )
    x_rows, y_rows, dist, _ = _sample_pairs(d, l1, box_radius, CERTIFY_TRIALS, seed)
    gap, gx_norm = _gradient_gaps(lambda x: grad_base(stub, x), x_rows, y_rows)
    implied = gap / dist - l1 * gx_norm
    l0 = l0_start
    for _ in range(6):
        violating = _violates(gap, gx_norm, dist, l0, l1)
        if not violating.any():
            return l0
        l0 = max(l0 * 1.05, float(implied[violating].max()) * 1.2)
    raise RuntimeError(
        f"smoothness certification did not stabilize (last l0 = {l0}); "
        "the candidate constants are far from admissible on this box"
    )


def _validate_common(d: int, m: int, zeta: float, sigma: float, box_radius: float) -> None:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"agent count must be a positive integer, got {m!r}")
    if zeta < 0:
        raise ValueError("zeta must be non-negative")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if box_radius <= 0:
        raise ValueError("box_radius must be positive")


def _make_family(
    family: str,
    params: dict[str, float],
    d: int,
    m: int,
    zeta: float,
    sigma: float,
    seed: int,
    box_radius: float,
    *,
    l0_start: float,
    l1: float,
    f_star: float,
) -> ProblemInstance:
    """Instance with seeded offsets and l0 covering every agent's objective.

    l0_start is raised by numeric certification of the base objective over
    the box, except for the quadratic, whose l0_start is exact; then
    l1 * max_i ||b_i|| is added to cover the offset objectives.
    """
    offsets = _make_offsets(d, m, zeta, seed)
    l0 = l0_start
    if family != "quadratic":
        l0 = _certified_l0(family, tuple(params.items()), d, l1, l0_start, box_radius, seed)
    max_off = float(np.linalg.norm(offsets, axis=1).max(initial=0.0))
    inst = ProblemInstance(
        family=family, d=d, m=m, l0=l0 + l1 * max_off, l1=l1, zeta=float(zeta),
        sigma=float(sigma), offsets=offsets, family_params=params, f_star=f_star,
        box_radius=float(box_radius),
    )
    inst.offsets.setflags(write=False)
    return inst


def make_exp_pair(
    d: int, rate: float, m: int, zeta: float, sigma: float, seed: int, box_radius: float = 5.0
) -> ProblemInstance:
    """Averaged symmetric exponential family with growth rate ``rate``.

    l1 is rate / log(2); l0 starts from the curvature bound rate^2 / d and is
    raised by numeric certification over the box, then adjusted by
    l1 * max_i ||b_i|| to cover the offset objectives.
    """
    _validate_common(d, m, zeta, sigma, box_radius)
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _make_family(
        "exp_pair", {"rate": float(rate)}, d, m, zeta, sigma, seed, box_radius,
        l0_start=rate * rate / d, l1=rate / math.log(2.0), f_star=1.0,
    )


def make_poly_even(
    d: int, power: int, scale: float, m: int, zeta: float, sigma: float, seed: int,
    box_radius: float = 5.0,
) -> ProblemInstance:
    """Even-power monomial family f_base(x) = (scale / power) sum_j x_j^power."""
    _validate_common(d, m, zeta, sigma, box_radius)
    if not isinstance(power, (int, np.integer)) or power < 4 or power % 2 != 0:
        raise ValueError(f"power must be an even integer >= 4, got {power!r}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    # Curvature/gradient ratio is (power - 1)/|x_j|; splitting at |x_j| = 1
    # gives the candidate pair (scale * (power - 1), power - 1).
    return _make_family(
        "poly_even", {"power": float(power), "scale": float(scale)}, d, m, zeta, sigma, seed,
        box_radius, l0_start=scale * (power - 1), l1=float(power - 1), f_star=0.0,
    )


def make_quadratic(
    d: int, curvature: float, m: int, zeta: float, sigma: float, seed: int,
    box_radius: float = 5.0,
) -> ProblemInstance:
    """Quadratic family with exact constants l0 = curvature, l1 = 0."""
    _validate_common(d, m, zeta, sigma, box_radius)
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    return _make_family(
        "quadratic", {"curvature": float(curvature)}, d, m, zeta, sigma, seed, box_radius,
        l0_start=float(curvature), l1=0.0, f_star=0.0,
    )


def dissimilarity_measured(p: ProblemInstance, trials: int = 32, seed: int = 0) -> float:
    """Largest observed ||grad f_i(x) - grad f(x)|| over sampled points.

    For linear-offset instances this equals max_i ||b_i|| at every x.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = derive_stream(StreamKey(seed, "dissimilarity", 0, 0))
    g = grad_base(p, gen.uniform(-p.box_radius, p.box_radius, size=(trials, p.d)))[:, None]
    gap = (g + p.offsets) - g  # grad f_i(x) - grad f(x): (trials, m, d)
    return float(_row_norms(gap).max(initial=0.0))
