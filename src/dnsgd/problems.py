"""Synthetic problem families with proved relaxed smoothness constants.

Each instance consists of a shared base objective plus per-agent linear
offsets b_i with sum_i b_i = 0 and ||b_i|| <= zeta:

    f_i(x) = f_base(x) + <b_i, x>.

Because the offsets cancel in the average, the global objective equals
f_base, its infimum is analytic, and ||grad f_i(x) - grad f(x)|| equals
||b_i|| at every x.

A family is one FAMILIES entry (a Family record): its parameter names, its
value and gradient maps and its constants (l0, l1, f_star) in closed form.
Every numeric problem field (d, m, zeta, sigma, box_radius and each family
parameter) has one PARAMS rule, a Param giving its type and range, which
config parsing and make_problem (through check_fields) both apply.

Families, with constants that are tight (equality at the pair x, x + z named):
    exp_pair   f_base(x) = (1/d) sum_j (exp(r x_j) + exp(-r x_j)) / 2
               l1 = r / ln 2, l0 = 3 r^2 / (4 d ln 2); x = 0, z = (ln 2 / r) e_j
    poly_even  f_base(x) = (a / p) sum_j x_j^p, even p >= 4, k = p - 1
               l1 = k, l0 = 2 a t^(k-1), t = 1 / (k (2^(1/(k-1)) - 1)); x = t e_j, z = e_j / k
    quadratic  f_base(x) = (c / 2) ||x||^2; l1 = 0, l0 = c

On all of R^d they satisfy the relaxed smoothness condition

    ||grad f(x + z) - grad f(x)|| <= (l0 + l1 ||grad f(x)||) ||z||  for ||z|| <= 1/l1.

Proof. grad f_base applies one odd map g (r sinh(r u) / d or a u^k) to each
coordinate, and g has nonnegative Taylor coefficients; term by term of the
binomial expansion, |g(u + z) - g(u)| <= g(|u| + |z|) - g(|u|), whether the
step moves outward, inward or across zero. With v = |u| this bound is convex
in s = |z| and zero at s = 0, while (l0 + l1 g(v)) s is linear, so the step
s = 1/l1 binds, where the condition reads l0 >= l1 (g(v + 1/l1) - 2 g(v)): that
is 3 r^2 e^(-r v) / (4 d ln 2) for exp_pair, largest at v = 0, and for
poly_even it is largest at v = t. In d dimensions |z_j| <= ||z|| <= 1/l1, so each
coordinate keeps its bound, and ||g(x + z) - g(x)|| <= l0 ||z|| + l1 ||g(x) * z||
<= (l0 + l1 ||g(x)||) ||z||. An offset adds b_i to every gradient, so
make_problem raises l0 by l1 max_i ||b_i|| to cover each f_i.
check_relaxed_smooth samples the condition for any gradient map on a box.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .streams import StreamKey, derive_stream

# exp(x) overflows float64 near 709.8; reject arguments beyond this bound.
EXP_ARG_MAX = 700.0

_OFFSET_HAIRCUT = 1.0 - 1e-13

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


def _exp_arg(rate: float, x: np.ndarray) -> np.ndarray:
    """The exp_pair argument rate * x; ExpRangeError when it leaves the safe range."""
    rx = rate * x
    scaled = np.abs(rx)
    if np.maximum.reduce(scaled, axis=None, initial=0.0) > EXP_ARG_MAX:
        rows = scaled.max(axis=-1) > EXP_ARG_MAX
        raise ExpRangeError(int(np.argmax(rows)))
    return rx


class Param(NamedTuple):
    """A numeric field's rule: an integer or a number, for which holds is true.

    An integer field stays an int in a parsed config, so its echo reads 4, not 4.0.
    Every rule compares so that NaN breaks it.
    """

    integer: bool
    rule: str
    holds: Callable[[float], bool]

    def error(self, value) -> str | None:
        """How value breaks this rule, or None if it keeps it."""
        kind = numbers.Integral if self.integer else numbers.Real
        if isinstance(value, kind) and not isinstance(value, bool) and self.holds(value):
            return None
        return f"must be {self.rule}, got {value!r}"


def check_fields(rules: dict[str, Param], values: dict[str, object]) -> None:
    """ValueError naming the first of values, by name, that breaks its rule in rules."""
    for name, value in values.items():
        error = rules[name].error(value)
        if error is not None:
            raise ValueError(f"{name} {error}")


POSITIVE = Param(False, "a finite number > 0", lambda v: 0 < v < math.inf)
COUNT = Param(True, "an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = Param(False, "a finite number >= 0", lambda v: 0 <= v < math.inf)

# Each numeric problem field's rule, which config parsing and make_problem both
# apply; the family parameters are the names that FAMILIES entries take.
PARAMS = {
    "d": COUNT,
    "m": COUNT,
    "zeta": _NON_NEGATIVE,
    "sigma": _NON_NEGATIVE,
    "box_radius": POSITIVE,
    "rate": POSITIVE,
    # every even integer up to 2**53 is a float64, which make_problem converts it to
    "power": Param(
        True, "an even integer from 4 to 2**53", lambda v: 4 <= v <= 2**53 and v % 2 == 0
    ),
    "scale": POSITIVE,
    "curvature": POSITIVE,
}


class Family(NamedTuple):
    """A problem family: its parameter names in config order, its maps and its constants.

    value(params, x) is f_base and gradient(params, d) builds grad_base's map,
    both row by row over any (..., d) stack and unchecked. constants(params, d)
    is the proved (l0, l1, f_star) of f_base (see the module docstring).
    """

    params: tuple[str, ...]
    value: Callable[[dict[str, float], np.ndarray], np.ndarray]
    gradient: Callable[[dict[str, float], int], Callable[[np.ndarray], np.ndarray]]
    constants: Callable[[dict[str, float], int], tuple[float, float, float]]


def _exp_gradient(q: dict[str, float], d: int) -> Callable[[np.ndarray], np.ndarray]:
    r = q["rate"]
    coef = r / d
    return lambda x: coef * np.sinh(_exp_arg(r, x))


def _poly_gradient(q: dict[str, float], d: int) -> Callable[[np.ndarray], np.ndarray]:
    a, k = q["scale"], q["power"] - 1
    return lambda x: a * x**k


def _quadratic_gradient(q: dict[str, float], d: int) -> Callable[[np.ndarray], np.ndarray]:
    c = q["curvature"]
    return lambda x: c * x


def _poly_constants(q: dict[str, float], d: int) -> tuple[float, float, float]:
    # t^(k-1) leaves float64 near power 1950; numpy makes it inf, which make_problem rejects
    a, k = q["scale"], q["power"] - 1
    t = 1.0 / (k * math.expm1(math.log(2.0) / (k - 1)))
    with np.errstate(over="ignore"):
        return float(2.0 * a * np.float64(t) ** (k - 1)), k, 0.0


FAMILIES = {
    "exp_pair": Family(
        ("rate",), lambda q, x: np.cosh(_exp_arg(q["rate"], x)).mean(axis=-1), _exp_gradient,
        lambda q, d: (3.0 * q["rate"] * q["rate"] / (4.0 * d * math.log(2.0)),
                      q["rate"] / math.log(2.0), 1.0),
    ),
    "poly_even": Family(
        ("power", "scale"),
        lambda q, x: (q["scale"] / q["power"]) * np.sum(x ** q["power"], axis=-1),
        _poly_gradient, _poly_constants,
    ),
    "quadratic": Family(
        ("curvature",), lambda q, x: 0.5 * q["curvature"] * _sum_squares(x), _quadratic_gradient,
        lambda q, d: (q["curvature"], 0.0, 0.0),
    ),
}


def f_base(p: ProblemInstance, x: np.ndarray) -> float | np.ndarray:
    """Objective at a point (d,), or row by row at a row matrix (n, d) as an (n,) array."""
    x = _check_point(p, x)
    f = FAMILIES[p.family].value(p.family_params, x)
    return float(f) if x.ndim == 1 else f


def _gradient(p: ProblemInstance) -> Callable[[np.ndarray], np.ndarray]:
    """grad_base's map with the family's coefficients bound; it does not check its argument."""
    return FAMILIES[p.family].gradient(p.family_params, p.d)


def grad_base(p: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient at a point (d,), or row by row at a row matrix (n, d)."""
    return _gradient(p)(_check_point(p, x))


def _noise_scale(p: ProblemInstance, b: int) -> float:
    """Standard deviation per coordinate of a b-sample minibatch's oracle noise."""
    return p.sigma / math.sqrt(b * p.d)


def _oracle(p: ProblemInstance) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray]:
    """sample_grad's map with p bound: (x, noise) -> (grad_base(x) + offsets) + noise.

    x is an (m, d) agent matrix or an (S, m, d) stack of them, and noise the
    matching block of scaled noise, None when sigma = 0. It does not check
    its arguments.
    """
    grad, offsets = _gradient(p), p.offsets
    if p.sigma > 0.0:
        return lambda x, noise: grad(x) + offsets + noise
    return lambda x, noise: grad(x) + offsets


def sample_grad(
    p: ProblemInstance, x_rows: np.ndarray, b: int, rng: np.random.Generator
) -> np.ndarray:
    """Minibatch stochastic gradients of all m agents, row i at x_rows[i].

    Each underlying draw is the exact gradient plus spherical Gaussian noise
    with total variance sigma^2. The b-draw average is itself Gaussian with
    per-coordinate variance sigma^2 / (b d), so it is drawn directly at that
    scale; the caller's sample counter still advances by b. The noise is
    exactly one (m, d) standard_normal block from rng, row i for agent i, and
    nothing is drawn when sigma = 0. A run reads the same blocks from a seed's
    oracle stream, iteration t's block being the t-th, and evaluates them with
    the same map (_oracle).

    Verification tolerances: over n independent calls the empirical mean of a
    row must match grad_base(p, x_rows[i]) + p.offsets[i] to within
    5 sigma / sqrt(b d n) per coordinate, and the empirical mean of the squared
    distance from it must match sigma^2 / b to within 5 sqrt(2 / (n d))
    relative (both are 5-standard-error bands).
    """
    check_fields({"b": COUNT}, {"b": b})
    if np.shape(x_rows) != (p.m, p.d):
        raise ValueError(f"agent matrix must have shape ({p.m}, {p.d}), got {np.shape(x_rows)}")
    x = np.asarray(x_rows, dtype=np.float64)
    noise = rng.standard_normal((p.m, p.d)) * _noise_scale(p, b) if p.sigma > 0.0 else None
    return _oracle(p)(x, noise)


def lf_effective(p: ProblemInstance) -> float:
    """Smoothness constant of the average objective: l0 + l1 * zeta, positive for every instance."""
    return p.l0 + p.l1 * p.zeta


class SmoothnessReport(NamedTuple):
    """Result of sampling the relaxed smoothness condition.

    worst_ratio is gap / bound at the worst pair (inf when the bound is zero
    but the gradient gap is not). implied_l0 is the largest l0 that any
    sampled pair actually requires given l1.
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
    sampled check reproducible across seeds. The pairs run over axis j,
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


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """Sums of squares along the last axis by numpy's pairwise add.reduce.

    Every recorded norm takes this one rule, whose order, unlike a BLAS dot
    product's, does not depend on the BLAS kernel.
    """
    return np.add.reduce(a * a, axis=-1)


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_sum_squares(a))


def _sample_pairs(dim: int, l1: float, region: float, trials: int, seed: int, extra_pairs=()):
    """The pairs check_relaxed_smooth tests, less those with x == y; they depend on l1, not l0.

    The random pairs are three bulk draws from the seed's smoothness stream,
    in this order: the x rows, uniform(-region, region, (trials, dim)); the
    directions, standard_normal((trials, dim)); and one uniform(0, rmax, n)
    for the distances of the n pairs with t % 10 != 0 (every tenth pair uses
    the full admissible distance rmax). When l1 = 0 they are two uniform
    (trials, dim) draws, the x rows and then the y rows.

    Returns x rows, y rows, their distances and the pair count before the drop.
    """
    gen = derive_stream(StreamKey(seed, "smoothness"))
    xs = gen.uniform(-region, region, (trials, dim))
    if l1 > 0:
        rmax = min(1.0 / l1, 2.0 * region * math.sqrt(dim))
        directions = gen.standard_normal((trials, dim))
        dist = np.full(trials, rmax)
        drawn = np.arange(trials) % 10 != 0
        dist[drawn] = gen.uniform(0.0, rmax, np.count_nonzero(drawn))
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
    else:
        ys = gen.uniform(-region, region, (trials, dim))

    probe_x, probe_y = _smoothness_probe_pairs(dim, l1, region)
    extra = np.asarray(extra_pairs, dtype=np.float64).reshape(-1, 2, dim)
    x_rows = np.concatenate([xs, probe_x, extra[:, 0]])
    y_rows = np.concatenate([ys, probe_y, extra[:, 1]])
    dist = _row_norms(x_rows - y_rows)
    moved = dist != 0.0
    return x_rows[moved], y_rows[moved], dist[moved], len(moved)


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

    The sample is _sample_pairs, three bulk draws from the seed's smoothness
    stream. grad maps an (n, dim) row matrix to its row gradients and is
    called once on all x rows and once on all y rows, skipping pairs with
    x == y. It raises ValueError when a gradient norm overflows float64. A
    pair violates when gap > bound * (1 + RATIO_TOL) + 1e-12. Pairs are
    ranked by (ratio, gap); the first worst one is the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if l0 < 0 or l1 < 0:
        raise ValueError("l0 and l1 must be non-negative")
    x_rows, y_rows, dist, count = _sample_pairs(dim, l1, region, trials, seed, extra_pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(grad(x_rows), dtype=np.float64)
        gap = _row_norms(gx - np.asarray(grad(y_rows), dtype=np.float64))
        gx_norm = _row_norms(gx)
    if not (np.isfinite(gap).all() and np.isfinite(gx_norm).all()):
        raise ValueError("gradient norms on the box overflow float64; shrink the box or the rate")
    bound = (l0 + l1 * gx_norm) * dist
    violations = int(np.count_nonzero(gap > bound * (1.0 + RATIO_TOL) + 1e-12))
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
    gen = derive_stream(StreamKey(seed, "offsets"))
    raw = gen.standard_normal((m, d))
    raw -= raw.mean(axis=0, keepdims=True)
    norms = _row_norms(raw)
    top = norms.max()
    if top == 0.0:
        return np.zeros((m, d))
    # Slight haircut keeps every norm strictly <= zeta under rounding.
    return raw * (zeta / top * _OFFSET_HAIRCUT)


def make_problem(
    family: str, d: int, m: int, zeta: float, sigma: float, seed: int, box_radius: float = 5.0,
    **params: float,
) -> ProblemInstance:
    """Instance of a FAMILIES entry with seeded offsets and l0 covering every agent's objective.

    params are the family's parameters by name; they, d, m, zeta, sigma and
    box_radius are held to their PARAMS rules. l1 and f_star are the family's;
    l0 is its proved l0 plus l1 * max_i ||b_i|| to cover the offset objectives.
    box_radius is where runs count box exits and check-smoothness samples; the
    constants hold everywhere. ValueError unless 0 < l0 + l1 * zeta < inf (an
    exp_pair rate below about 1e-162 underflows it; a poly_even power above
    about 1950 overflows it).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    spec = FAMILIES[family]
    if sorted(params) != sorted(spec.params):
        raise ValueError(f"family {family!r} takes parameters {spec.params}, got {tuple(params)}")
    check_fields(
        PARAMS, {"d": d, "m": m, "zeta": zeta, "sigma": sigma, "box_radius": box_radius, **params}
    )
    params = {name: float(params[name]) for name in spec.params}
    l0, l1, f_star = spec.constants(params, d)
    offsets = _make_offsets(d, m, zeta, seed)
    offsets.setflags(write=False)
    l0 += l1 * float(_row_norms(offsets).max(initial=0.0))
    l_f = l0 + l1 * zeta  # lf_effective, which the calculator divides by
    if not 0.0 < l_f < math.inf:
        raise ValueError(f"l_f = l0 + l1 zeta must be finite and > 0 for {family} with {params}, "
                         f"got {l_f}")
    return ProblemInstance(
        family=family, d=d, m=m, l0=l0, l1=l1, zeta=float(zeta),
        sigma=float(sigma), offsets=offsets, family_params=params, f_star=f_star,
        box_radius=float(box_radius),
    )


def dissimilarity_measured(p: ProblemInstance, trials: int = 32, seed: int = 0) -> float:
    """Largest observed ||grad f_i(x) - grad f(x)|| over sampled points.

    For linear-offset instances this equals max_i ||b_i|| at every x.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = derive_stream(StreamKey(seed, "dissimilarity"))
    g = grad_base(p, gen.uniform(-p.box_radius, p.box_radius, size=(trials, p.d)))[:, None]
    gap = (g + p.offsets) - g  # grad f_i(x) - grad f(x): (trials, m, d)
    return float(_row_norms(gap).max(initial=0.0))
