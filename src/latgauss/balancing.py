"""Sign balancing of vector sequences and the associated extremal constants.

The balancing radius of a sequence u_1..u_k against a symmetric body V is
the smallest r such that some choice of signs puts e_1*u_1 + ... + e_k*u_k
inside r*V, i.e. the minimum V-gauge of a signed sum. The module computes
it exactly (2^k enumeration), heuristically (greedy plus single flips), and
searches for worst-case inputs on the boundary of U to produce certified
lower bounds for the sup-over-sequences constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexBody, Ellipsoid
from .errors import (DimensionMismatchError, EnumerationCapExceededError,
                     InvalidLatticeError, ResolutionTooCoarseError,
                     UnsupportedBodyError)
from . import lattice as lat

MAX_EXHAUSTIVE = 24
# sign rows cached for the low block of an exhaustive scan: 2^16 x 16 floats
_LOW_BITS = 16

# Resolved parameterization of the closed-form ellipsoid constants: the
# coefficients alpha multiply coordinates, E = {x : sum (alpha_i x_i)^2 <= 1},
# so an ellipsoid with semiaxes a_i corresponds to alpha_i = 1/a_i. The 1-d
# brute force pins this down (see tests); recorded in comparison metadata.
ELLIPSOID_FORMULA_CONVENTION = (
    "coefficients are reciprocal semiaxes: E = {x : sum((alpha_i*x_i)^2) <= 1}")


@dataclass(frozen=True)
class SignAssignment:
    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class BalanceResult:
    radius: float
    signs: SignAssignment
    inputs: np.ndarray


@functools.lru_cache(maxsize=None)
def _sign_rows(m: int) -> np.ndarray:
    """Read-only (2^m, m) array of every +-1 row in lexicographic order.

    Row c holds the bits of c, most significant first, as +1 for 0 and -1
    for 1. For m < 16 it is a view of the 16-bit table, whose first 2^m rows
    end in exactly these m columns, so all entries share its 8 MB.
    """
    if m < _LOW_BITS:
        return _sign_rows(_LOW_BITS)[:1 << m, _LOW_BITS - m:]
    codes = np.arange(1 << m)[:, None]
    rows = 1.0 - 2.0 * ((codes >> np.arange(m - 1, -1, -1)) & 1)
    rows.flags.writeable = False
    return rows


def _check_inputs(vectors, body: ConvexBody) -> np.ndarray:
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("vectors must form a (k, n) array")
    if v.shape[0] == 0:
        raise ValueError("balancing needs at least one vector")
    if v.shape[1] != body.dim:
        raise DimensionMismatchError("vector dimension does not match the body")
    if not body.symmetric:
        raise UnsupportedBodyError("balancing needs a symmetric gauge body")
    return v


def balance_exhaustive(vectors, body: ConvexBody) -> BalanceResult:
    """Exact minimum V-gauge over all sign patterns (first sign fixed +1).

    Central symmetry of the gauge halves the search; ties break toward the
    lexicographically first pattern (+1 before -1) among the 2^(k-1) scanned.
    The free signs split into a high block of k-1-lo signs and a low block of
    the last lo = min(k-1, 16) signs. The partial sums of each block are
    formed once, and each high pattern is scanned as one 2^lo-row gauge call
    on the low sums plus its high sum, so working memory is O(2^16 * n)
    whatever k is. The sums are added in a different order than a direct
    signed sum, so the radius may differ from it in the last ulps.
    """
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    if k > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive balancing capped at {MAX_EXHAUSTIVE} vectors, got {k}")
    lo = min(k - 1, _LOW_BITS)
    hi = k - 1 - lo
    low_rows, high_rows = _sign_rows(lo), _sign_rows(hi)
    low = low_rows @ v[1 + hi:]
    high = v[0] + high_rows @ v[1:1 + hi]
    # high patterns ascend in the outer loop and argmin returns the first
    # hit, so the strict < keeps the lexicographically first minimum
    best_r, best_h, best_j = math.inf, 0, 0
    for h in range(1 << hi):
        gauges = body.gauge_many(low + high[h])
        j = int(np.argmin(gauges))
        if gauges[j] < best_r:
            best_r, best_h, best_j = float(gauges[j]), h, j
    pattern = np.concatenate(([1.0], high_rows[best_h], low_rows[best_j]))
    return BalanceResult(best_r, SignAssignment(tuple(int(s) for s in pattern)), v)


def balance_heuristic(vectors, body: ConvexBody, restarts: int = 16,
                      seed: int = 0) -> BalanceResult:
    """Greedy sign choice on a random order plus single-flip descent.

    Prefix gauges only steer the greedy pass; the objective is the final-sum
    gauge. The result is a feasible pattern, so its radius always dominates
    the exhaustive minimum.
    """
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    best: BalanceResult | None = None
    for restart in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        order = rng.permutation(k)
        signs = np.ones(k)
        acc = np.zeros(body.dim)
        for i in order:
            plus, minus = body.gauge_many(np.stack((acc + v[i], acc - v[i])))
            signs[i] = 1.0 if plus <= minus else -1.0
            acc += signs[i] * v[i]
        # local descent on the final sum, first improvement in index order:
        # one gauge call scores the flip of every index from i on
        improved = True
        while improved:
            improved = False
            total = signs @ v
            current = body.gauge(total)
            i = 0
            while i < k:
                flipped = body.gauge_many(total - 2.0 * signs[i:, None] * v[i:])
                better = np.flatnonzero(flipped < current - 1e-12)
                if better.size == 0:
                    break
                i += int(better[0])
                signs[i] = -signs[i]
                current = float(flipped[better[0]])
                improved = True
                total = signs @ v
                i += 1
        radius = float(body.gauge(signs @ v))
        if best is None or radius < best.radius:
            best = BalanceResult(radius, SignAssignment(tuple(int(s) for s in signs)), v)
    return best


def _boundary_point(body: ConvexBody, direction: np.ndarray) -> np.ndarray:
    g = body.gauge(direction)
    if g <= 0:
        raise UnsupportedBodyError("worst-case search needs a bounded input body")
    return direction / g


# Perturbation schedule of the worst-case searches: passes of halving step
# size, each trying this many random probes (per vector for beta).
_BETA_PASSES, _BETA_PROBES = 4, 6
_ALPHA_PASSES, _ALPHA_PROBES = 3, 4


def beta_lower_bound_search(n: int, u_body: ConvexBody, v_body: ConvexBody,
                            restarts: int = 32, seed: int = 0) -> tuple[float, np.ndarray]:
    """Certified lower bound on the sup-over-sequences balancing constant.

    Maximizes the exact balancing radius over n-vector sequences on the
    boundary of U (the objective is positively homogeneous per input, so
    interior points never help) via random restarts and shrinking random
    perturbations. Returns (radius, witness vectors).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if u_body.dim != v_body.dim:
        raise DimensionMismatchError("input and target bodies must share a dimension")
    d = u_body.dim
    best_r = -math.inf
    best_v: np.ndarray | None = None
    for restart in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        vecs = np.stack([_boundary_point(u_body, rng.standard_normal(d))
                         for _ in range(n)])
        radius = balance_exhaustive(vecs, v_body).radius
        step = 0.5
        for _ in range(_BETA_PASSES):
            for i in range(n):
                for _ in range(_BETA_PROBES):
                    cand = vecs.copy()
                    cand[i] = _boundary_point(u_body, vecs[i] + step * rng.standard_normal(d))
                    r = balance_exhaustive(cand, v_body).radius
                    if r > radius:
                        radius, vecs = r, cand
            step *= 0.5
        if radius > best_r:
            best_r, best_v = radius, vecs
    return float(best_r), best_v


def beta_ellipsoid_formula(alphas) -> float:
    """Closed-form balancing constant of the euclidean ball against the
    ellipsoid parameterized by ``alphas``: sqrt(alpha_1^2 + ... + alpha_n^2).

    See ELLIPSOID_FORMULA_CONVENTION for what alphas parameterize.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be a vector of positive finite reals")
    return float(np.sqrt(np.sum(a * a)))


def ellipsoid_for_formula(alphas) -> Ellipsoid:
    """Ellipsoid body matching the formula parameterization (semiaxes 1/alpha)."""
    a = np.asarray(alphas, dtype=float)
    return Ellipsoid(1.0 / a)


def alpha_lower_bound_search(n: int, u_body: ConvexBody, v_body: ConvexBody,
                             restarts: int = 8, seed: int = 0,
                             resolution: int = 8) -> tuple[float, lat.Lattice]:
    """Certified lower bound on sup over lattices of mu(L, V) / lambda_n(L, U).

    The ratio for each candidate lattice uses the certified covering-radius
    LOWER bracket over the exact nth minimum, so the returned value never
    overshoots the true supremum. Random bases plus shrinking perturbation.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > 3:
        raise ValueError("alpha search is capped at n <= 3 (covering brackets)")
    if u_body.dim != v_body.dim or u_body.dim != n:
        raise DimensionMismatchError("bodies must live in dimension n")

    def ratio(basis: np.ndarray) -> float:
        try:
            l = lat.Lattice(basis)
            lower, _ = lat.covering_radius(l, v_body, resolution)
        except (InvalidLatticeError, ResolutionTooCoarseError, EnumerationCapExceededError):
            return -math.inf
        return lower / lat.nth_minimum(l, u_body)

    best_r = -math.inf
    best_l: lat.Lattice | None = None
    for restart in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        basis = rng.standard_normal((n, n))
        r = ratio(basis)
        for _ in range(50):
            if math.isfinite(r):
                break
            basis = rng.standard_normal((n, n))
            r = ratio(basis)
        else:
            raise RuntimeError("could not draw a usable random lattice")
        step = 0.4
        for _ in range(_ALPHA_PASSES):
            for _ in range(_ALPHA_PROBES):
                cand = basis + step * rng.standard_normal((n, n))
                rc = ratio(cand)
                if rc > r:
                    r, basis = rc, cand
            step *= 0.5
        if r > best_r:
            best_r, best_l = r, lat.Lattice(basis)
    return float(best_r), best_l
