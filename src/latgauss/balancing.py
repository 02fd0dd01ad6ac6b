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
from .gaussian import substream

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
    return v


def _exhaustive_scan(stack: np.ndarray, body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Minimum gauge and its pattern code for each sequence of a (c, k, n) stack.

    The first sign is fixed +1; code bit k-2-j holds sign j+1 (set means -1),
    and ties break toward the lowest code. The free signs split into a high
    block of k-1-lo signs and a low block of the last lo = min(k-1, 16)
    signs. The partial sums of each block are formed once per sequence, and
    each high pattern is scanned as one gauge call on the low sums plus its
    high sum, for as many sequences at once as keep the call within 2^16
    rows. Working memory is O(2^16 * n) whatever k and c are.
    """
    c, k, n = stack.shape
    lo = min(k - 1, _LOW_BITS)
    hi = k - 1 - lo
    low_rows, high_rows = _sign_rows(lo), _sign_rows(hi)
    per = (1 << _LOW_BITS) >> lo
    radii = np.full(c, math.inf)
    codes = np.zeros(c, dtype=np.int64)
    for s in range(0, c, per):
        part = stack[s:s + per]
        low = low_rows @ part[:, 1 + hi:]
        high = part[:, :1] + high_rows @ part[:, 1:1 + hi]
        best_r, best_c = radii[s:s + per], codes[s:s + per]
        rows = np.arange(len(part))
        # high patterns ascend in the outer loop and argmin returns the first
        # hit, so the strict < keeps the lowest code among equal minima
        for h in range(1 << hi):
            gauges = body.gauge_many((low + high[:, h, None]).reshape(-1, n))
            gauges = gauges.reshape(len(part), -1)
            j = np.argmin(gauges, axis=1)
            r = gauges[rows, j]
            better = r < best_r
            best_r[better] = r[better]
            best_c[better] = (h << lo) | j[better]
    return radii, codes


def balance_exhaustive(vectors, body: ConvexBody) -> BalanceResult:
    """Exact minimum V-gauge over all sign patterns (first sign fixed +1).

    Central symmetry of the gauge halves the search; ties break toward the
    lexicographically first pattern (+1 before -1) among the 2^(k-1) scanned.
    The scan is a meet-in-the-middle block scan (see ``_exhaustive_scan``)
    in O(2^16 * n) memory. The sums are added in a different order than a
    direct signed sum, so the radius may differ from it in the last ulps.
    """
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    if k > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive balancing capped at {MAX_EXHAUSTIVE} vectors, got {k}")
    radii, codes = _exhaustive_scan(v[None], body)
    code = int(codes[0])
    signs = (1,) + tuple(1 - 2 * ((code >> s) & 1) for s in range(k - 2, -1, -1))
    return BalanceResult(float(radii[0]), SignAssignment(signs), v)


def balance_heuristic(vectors, body: ConvexBody, restarts: int = 16,
                      seed: int = 0) -> BalanceResult:
    """Greedy sign choice on a random order plus single-flip descent.

    Prefix gauges only steer the greedy pass; the objective is the final-sum
    gauge. The result is a feasible pattern, so its radius always dominates
    the exhaustive minimum.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    best: BalanceResult | None = None
    for restart in range(restarts):
        rng = substream(seed, restart)
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
        # the last pass flipped nothing, so current is the gauge of signs @ v
        radius = float(current)
        if best is None or radius < best.radius:
            best = BalanceResult(radius, SignAssignment(tuple(int(s) for s in signs)), v)
    return best


_UNBOUNDED_INPUT = "worst-case search needs a bounded input body"


def _boundary_points(body: ConvexBody, directions: np.ndarray) -> np.ndarray:
    """Rows of ``directions`` scaled onto the boundary of ``body``, up to the
    first row along which the body is unbounded (gauge <= 0)."""
    g = body.gauge_many(directions)
    unbounded = np.flatnonzero(g <= 0)
    m = int(unbounded[0]) if unbounded.size else len(g)
    return directions[:m] / g[:m, None]


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

    The probes of one vector are tried in order and the first that raises
    the radius is kept. Their noise does not depend on which is kept, so
    all of them are scored from the current vectors in one stacked scan;
    after a probe is kept, only the probes after it are scored again. The
    radii, the witness and the error on an unbounded U are those of trying
    the probes one at a time.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if u_body.dim != v_body.dim:
        raise DimensionMismatchError("input and target bodies must share a dimension")
    d = u_body.dim
    best_r = -math.inf
    best_v: np.ndarray | None = None
    for restart in range(restarts):
        rng = substream(seed, restart)
        vecs = _boundary_points(u_body, rng.standard_normal((n, d)))
        if len(vecs) < n:
            raise UnsupportedBodyError(_UNBOUNDED_INPUT)
        radius = balance_exhaustive(vecs, v_body).radius
        step = 0.5
        for _ in range(_BETA_PASSES):
            for i in range(n):
                noise = step * rng.standard_normal((_BETA_PROBES, d))
                p = 0
                while p < _BETA_PROBES:
                    points = _boundary_points(u_body, vecs[i] + noise[p:])
                    cands = np.repeat(vecs[None], len(points), axis=0)
                    cands[:, i] = points
                    radii, _ = _exhaustive_scan(cands, v_body)
                    up = np.flatnonzero(radii > radius)
                    if up.size:
                        t = int(up[0])
                        radius, vecs = float(radii[t]), cands[t]
                        p += t + 1
                    elif p + len(points) < _BETA_PROBES:
                        # the next probe's direction is unbounded in U
                        raise UnsupportedBodyError(_UNBOUNDED_INPUT)
                    else:
                        break
            step *= 0.5
        if radius > best_r:
            best_r, best_v = radius, vecs
    return float(best_r), best_v


def _formula_alphas(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be a vector of positive finite reals")
    return a


def beta_ellipsoid_formula(alphas) -> float:
    """Closed-form balancing constant of the euclidean ball against the
    ellipsoid parameterized by ``alphas``: sqrt(alpha_1^2 + ... + alpha_n^2).

    See ELLIPSOID_FORMULA_CONVENTION for what alphas parameterize.
    """
    a = _formula_alphas(alphas)
    return float(np.sqrt(np.sum(a * a)))


def ellipsoid_for_formula(alphas) -> Ellipsoid:
    """Ellipsoid body matching the formula parameterization (semiaxes 1/alpha)."""
    return Ellipsoid(1.0 / _formula_alphas(alphas))


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
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if u_body.dim != v_body.dim or u_body.dim != n:
        raise DimensionMismatchError("bodies must live in dimension n")

    def ratio(basis: np.ndarray) -> tuple[float, lat.Lattice | None]:
        try:
            l = lat.Lattice(basis)
            lower, _ = lat.covering_radius(l, v_body, resolution)
        except (InvalidLatticeError, ResolutionTooCoarseError, EnumerationCapExceededError):
            return -math.inf, None
        return lower / lat.nth_minimum(l, u_body), l

    best_r = -math.inf
    best_l: lat.Lattice | None = None
    for restart in range(restarts):
        rng = substream(seed, restart)
        r, l = ratio(rng.standard_normal((n, n)))
        for _ in range(50):
            if math.isfinite(r):
                break
            r, l = ratio(rng.standard_normal((n, n)))
        else:
            raise RuntimeError("could not draw a usable random lattice")
        step = 0.4
        for _ in range(_ALPHA_PASSES):
            for _ in range(_ALPHA_PROBES):
                rc, lc = ratio(l.basis + step * rng.standard_normal((n, n)))
                if rc > r:
                    r, l = rc, lc
            step *= 0.5
        if r > best_r:
            best_r, best_l = r, l
    return float(best_r), best_l
