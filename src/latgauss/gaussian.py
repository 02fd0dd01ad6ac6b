"""Standard normal CDF/quantile and Gaussian measure of convex bodies.

The measure gamma_n is the standard Gaussian probability measure on R^n
with density (2*pi)^(-n/2) * exp(-|x|^2 / 2). Closed forms exist for axis
boxes (product of interval measures), halfspaces, centered balls
(chi-square CDF) and the full space; everything else goes through the
seeded Monte Carlo estimator.

Scale calibration rests on one fact: for a body K with the origin inside
and gauge g, the dilate sK is the sublevel set {g <= s}, so
gamma_n(sK) = P(g(X) <= s) is the distribution function of g(X). A
target measure is therefore a quantile of the gauge: a root of the closed
form where one exists, an order statistic of the seeded draw otherwise.

All confidence half-widths use the two-sided 99% convention, z = 2.576.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .convex import AxisBox, Ball, ConvexBody, FullSpace, Halfspace
from .errors import CalibrationError, InvalidBodyError, UnsupportedBodyError

Z99 = 2.576  # two-sided 99% normal quantile, one convention everywhere

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Monte Carlo shard size: each shard draws an independent substream from
# (seed, shard index), so any shard schedule aggregates to the same count.
MC_SHARD_SIZE = 1 << 15


@dataclass(frozen=True)
class MeasureEstimate:
    """A probability with provenance: exact closed form or Monte Carlo."""

    value: float
    method: str  # "exact" | "monte-carlo"
    half_width: float = 0.0
    samples: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"measure must lie in [0, 1], got {self.value}")
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")
        if self.method not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact" and self.half_width != 0.0:
            raise ValueError("exact estimates carry zero half_width")


# ---------------------------------------------------------------------------
# One-dimensional machinery
# ---------------------------------------------------------------------------

def std_normal_cdf(x):
    """Phi(x); accepts scalars or arrays, absolute error well below 1e-12."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("cdf input must not be NaN")
    if np.ndim(x) == 0 and not np.all(np.isfinite(arr)):
        raise ValueError("cdf input must be finite")
    out = 0.5 * special.erfc(-arr / _SQRT2)
    return float(out) if np.ndim(x) == 0 else out


def std_normal_pdf(x):
    arr = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if np.ndim(x) == 0 else out


def std_normal_quantile(p):
    """Phi^{-1}(p) for p in (0, 1); scalars or arrays, via scipy's ndtri."""
    arr = np.asarray(p, dtype=float)
    if np.any(~((arr > 0.0) & (arr < 1.0))):
        raise ValueError("quantile input must lie strictly in (0, 1)")
    out = special.ndtri(arr)
    return float(out) if np.ndim(p) == 0 else out


# Width of the origin-centered interval carrying standard normal mass 1/2.
_THETA = 2.0 * std_normal_quantile(0.75)


def theta() -> float:
    """Width of the origin-centered interval carrying standard normal mass 1/2.

    Equals 2 * Phi^{-1}(3/4), about 1.3489795.
    """
    return _THETA


def measure_interval(lo: float, hi: float) -> float:
    """gamma_1([lo, hi]); endpoints may be -inf / +inf."""
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
    return float(0.5 * special.erfc(-hi / _SQRT2) - 0.5 * special.erfc(-lo / _SQRT2))


# ---------------------------------------------------------------------------
# Measures of bodies
# ---------------------------------------------------------------------------

def measure_exact(body: ConvexBody) -> MeasureEstimate:
    """Closed-form gamma_n for axis boxes, halfspaces, centered balls, full space."""
    if isinstance(body, AxisBox):
        per_axis = 2.0 * std_normal_cdf(body.semiwidths) - 1.0
        value = float(np.prod(per_axis))
    elif isinstance(body, Halfspace):
        value = std_normal_cdf(body.offset / float(np.linalg.norm(body.normal)))
    elif isinstance(body, Ball):
        if not body.symmetric:
            raise UnsupportedBodyError(
                "no closed form for off-center balls -- use measure_mc")
        value = float(special.gammainc(body.dim / 2.0, body.radius**2 / 2.0))
    elif isinstance(body, FullSpace):
        value = 1.0
    else:
        raise UnsupportedBodyError(
            f"no closed form for kind {body.kind!r} -- use measure_mc")
    return MeasureEstimate(value=min(max(value, 0.0), 1.0), method="exact")


def _normal_shards(dim: int, samples: int, seed: int):
    """Seeded standard normal draw, one (n, dim) array per shard.

    Each shard of MC_SHARD_SIZE points draws its own substream from
    (seed, shard index), so any shard schedule aggregates to the same draw.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    for shard, start in enumerate(range(0, samples, MC_SHARD_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard,)))
        yield rng.standard_normal((min(MC_SHARD_SIZE, samples - start), dim))


def mc_fraction(dim: int, membership, samples: int, seed: int) -> tuple[float, float]:
    """(hit fraction, 99% half-width) of standard normal points under a
    membership predicate; deterministic given (seed, shard layout).

    ``membership`` takes a (k, dim) shard and returns k booleans, the
    contract of ``contains_many`` and of every ``OracleBody`` predicate.
    """
    hits = sum(int(np.count_nonzero(membership(pts)))
               for pts in _normal_shards(dim, samples, seed))
    p = hits / samples
    hw = Z99 * math.sqrt(p * (1.0 - p) / samples)
    return p, hw


def measure_mc(body: ConvexBody, samples: int, seed: int) -> MeasureEstimate:
    """Hit fraction of i.i.d. standard normal points; deterministic per seed.

    half_width is the 99% binomial half-width 2.576 * sqrt(p(1-p)/samples).
    """
    p, hw = mc_fraction(body.dim, body.contains_many, samples, seed)
    return MeasureEstimate(value=p, method="monte-carlo", half_width=hw, samples=samples)


def measure_auto(body: ConvexBody, samples: int = 1 << 16, seed: int = 0) -> MeasureEstimate:
    """Exact measure when a closed form exists, Monte Carlo otherwise."""
    try:
        return measure_exact(body)
    except UnsupportedBodyError:
        return measure_mc(body, samples, seed)


def calibrate_scale(body: ConvexBody, target: float, samples: int = 1 << 16,
                    seed: int = 0) -> float:
    """Scale s with gamma_n(s * body) = target: the target-quantile of g(X).

    Closed-form bodies (those ``measure_exact`` accepts) get one bracketed
    root, solved to machine precision. Every other body gets the
    ceil(target * samples)-th smallest gauge of the seeded draw that
    ``mc_fraction`` uses, so ``measure_mc(body.scale(s), samples, seed)``
    hits at least that many points. That branch needs ``gauge_many``, which
    is defined only for centrally symmetric bodies: an off-center ball, an
    asymmetric H-polytope or a non-symmetric oracle raises InvalidBodyError.
    An OracleBody gauge costs about 40 membership passes over the draw.
    Raises CalibrationError when no scale reaches the target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    if not body.contains(np.zeros(body.dim)):
        raise InvalidBodyError("calibration needs the origin inside the body")
    try:
        measure_exact(body)
    except UnsupportedBodyError:
        gauges = np.concatenate([body.gauge_many(pts)
                                 for pts in _normal_shards(body.dim, samples, seed)])
        k = math.ceil(target * samples)
        return float(np.partition(gauges, k - 1)[k - 1])

    def excess(s: float) -> float:
        return measure_exact(body.scale(s)).value - target

    lo = hi = 1.0
    for _ in range(64):
        if excess(lo) > 0.0:
            lo /= 2.0
        elif excess(hi) < 0.0:
            hi *= 2.0
        else:
            return float(optimize.brentq(excess, lo, hi, xtol=1e-300,
                                         rtol=4.0 * np.finfo(float).eps))
    raise CalibrationError(f"target {target} unreachable by scaling a {body.kind}")
