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
    codes = np.arange(1 << m, dtype=np.int32)
    rows = np.empty((1 << m, m))
    for j in range(m):  # a column at a time, so no temporary is table-sized
        rows[:, j] = 1.0 - 2.0 * ((codes >> (m - 1 - j)) & 1)
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

    When one sequence fills the 2^16 rows (k >= 18) and the body has an
    inscribed form (see ``_screened_scan``), each high pattern takes the
    exact gauge only on the low rows that can still reach its minimum. The
    rows it skips cannot be a minimum, so radius and code are the same bits.
    """
    c, k, n = stack.shape
    lo = min(k - 1, _LOW_BITS)
    hi = k - 1 - lo
    low_rows, high_rows = _sign_rows(lo), _sign_rows(hi)
    per = (1 << _LOW_BITS) >> lo
    form = body._inscribed_form() if hi else None
    radii = np.full(c, math.inf)
    codes = np.zeros(c, dtype=np.int64)
    for s in range(0, c, per):
        part = stack[s:s + per]
        low = low_rows @ part[:, 1 + hi:]
        high = part[:, :1] + high_rows @ part[:, 1:1 + hi]
        if form is not None and _screenable(part, form[0]):  # per == 1 here
            radii[s], codes[s] = _screened_scan(low[0], high[0], body, *form)
            continue
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


def _screenable(vecs: np.ndarray, semiaxes: np.ndarray) -> bool:
    """True when every nonzero entry of ``vecs`` lies within 2^-300..2^300 and
    every finite semiaxis within 2^-150..2^150 (NaN and inf entries never
    do): then every sum, square and product that the screen or a gauge forms
    is a normal float, and its rounding is relative."""
    a = np.abs(vecs[vecs != 0])
    r = semiaxes[semiaxes < math.inf]
    return bool(np.all((a >= 2.0 ** -300) & (a <= 2.0 ** 300))
                and np.all((r >= 2.0 ** -150) & (r <= 2.0 ** 150)))


def _screened_scan(low: np.ndarray, high: np.ndarray, body: ConvexBody,
                   semiaxes: np.ndarray, c2: int) -> tuple[float, int]:
    """Minimum gauge and code over the sums high[h] + low[j] of one sequence.

    The screen. E = {x : sum w_k x_k^2 <= 1}, w = 1 / semiaxes^2, sits inside
    the body and the body inside sqrt(c2) * E (``_inscribed_form``), so
    g_E(x)^2 / c2 <= g(x)^2 <= g_E(x)^2 =: S(x). For high pattern h,
    S(low + hh) = q_low + low @ (2 w hh) + q_hh with q = sum w x^2: one
    matrix-vector product per pattern. Let S_min = S(x*) be its least value.
    A row x whose gauge ties the minimum has
    S(x) <= c2 g(x)^2 <= c2 g(x*)^2 <= c2 S_min, so it passes.

    The margin. The computed S is within delta = 16 (n+2) eps (max q_low +
    q_hh) of the exact one, at least twice its rounding error. The float
    weights and sums, and each kind's gauge (within (n/2 + 2) eps relative),
    move the sandwich by less than tol = 16 (n+2) eps relative. So a row
    tying the computed minimum gauge has computed
    S <= c2 (S_min + delta)(1 + tol) + delta, and a row passes when
    S <= c2 (S_min + 2 delta)(1 + tol) + 2 delta: the doubled delta also
    covers this bound's own rounding. The bounds are relative, so they hold
    only where nothing underflows or overflows, which ``_screenable``
    checks first.

    The exact gauge runs on the passing rows (the whole block, ungathered,
    when all pass). Its first minimum is the block's first minimum, with the
    same bits, since every kind gauges each row alone.
    """
    n = low.shape[1]
    lo = len(low).bit_length() - 1
    tol = 16 * (n + 2) * np.finfo(float).eps
    weights = 1.0 / semiaxes ** 2  # 0 along free axes
    q_low = (low * low) @ weights
    q_max = float(q_low.max())
    block = None  # column-major copy of low and its sum buffer, once a whole block passes
    best_r, best_c = math.inf, 0
    for h, hh in enumerate(high):
        q_hh = float((hh * hh) @ weights)
        delta = tol * (q_max + q_hh)
        screen = low @ (2.0 * weights * hh)
        screen += q_low  # S - q_hh: q_hh moves into the bound
        bound = c2 * (screen.min() + q_hh + 2 * delta) * (1 + tol) + 2 * delta - q_hh
        passing = screen <= bound
        if passing.all():  # no gather; whole columns make the sum and gauge faster
            if block is None:
                block = np.asfortranarray(low), np.empty_like(low, order="F")
            rows, sums = None, np.add(block[0], hh, out=block[1])
        else:
            rows = np.flatnonzero(passing)
            sums = low[rows] + hh
        gauges = body.gauge_many(sums)
        i = int(np.argmin(gauges))
        if gauges[i] < best_r:  # lowest code among equal minima, as above
            best_r, best_c = float(gauges[i]), (h << lo) | int(i if rows is None else rows[i])
    return best_r, best_c


def balance_exhaustive(vectors, body: ConvexBody) -> BalanceResult:
    """Exact minimum V-gauge over all sign patterns (first sign fixed +1).

    Central symmetry of the gauge halves the search; ties break toward the
    lexicographically first pattern (+1 before -1) among the 2^(k-1) scanned.
    The scan is a meet-in-the-middle block scan (see ``_exhaustive_scan``)
    in O(2^16 * n) memory. The sums are added in a different order than a
    direct signed sum, so the radius may differ from it in the last ulps.

    From k = 18 on, against a ball, an ellipsoid or an axis box, the scan
    gauges only the sums that the body's inscribed ellipsoid E, with E
    inside V inside sqrt(c2) * E, cannot rule out, under a margin that
    bounds the rounding (see ``_screened_scan``). Every sum that ties the
    minimum is gauged, so radius and signs are bitwise those of gauging
    all 2^(k-1) sums.
    """
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    if k > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive balancing capped at {MAX_EXHAUSTIVE} vectors, got {k}")
    radii, codes = _exhaustive_scan(v[None], body)
    code = int(codes[0])
    signs = (1,) + tuple(1 - 2 * ((code >> s) & 1) for s in range(k - 2, -1, -1))
    return BalanceResult(float(radii[0]), SignAssignment(signs), v)


# Gauge rows that one block of lockstep restarts may stack, a scan's budget
_BLOCK_ROWS = 1 << _LOW_BITS


def _restart_blocks(restarts: int, rows: int):
    """Consecutive ranges of restarts that stack at most _BLOCK_ROWS gauge
    rows at ``rows`` per restart (one restart at least), so the memory of a
    lockstep search does not grow with its restart count."""
    size = max(1, _BLOCK_ROWS // rows)
    for start in range(0, restarts, size):
        yield range(start, min(start + size, restarts))


def balance_heuristic(vectors, body: ConvexBody, restarts: int = 16,
                      seed: int = 0) -> BalanceResult:
    """Greedy sign choice on a random order plus single-flip descent.

    Prefix gauges only steer the greedy pass; the objective is the final-sum
    gauge. The result is a feasible pattern, so its radius always dominates
    the exhaustive minimum; ties go to the first restart.

    Restarts run in lockstep, in blocks of 2^16 // max(k, 2), so a block's
    gauge calls stack at most 2^16 rows. Greedy step t scores both signs of
    the t-th vector of every restart in one gauge call, and each descent
    round scores the flips of every restart still descending in one call.
    Each restart keeps its own ``substream(seed, restart)`` order, so the
    result is bitwise that of running the restarts one after another, on
    every body whose gauge gives a row the same bits in any call: all but
    ``OracleBody``, whose bisection runs until every row of a call has
    converged.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    v = _check_inputs(vectors, body)
    k = v.shape[0]
    best: BalanceResult | None = None
    for block in _restart_blocks(restarts, max(2, k)):
        orders = np.stack([substream(seed, restart).permutation(k) for restart in block])
        signs = _greedy_signs(v, body, orders)
        for radius, row in zip(_descend(v, body, signs), signs):
            if best is None or radius < best.radius:
                best = BalanceResult(float(radius), SignAssignment(tuple(int(s) for s in row)), v)
    return best


def _greedy_signs(v: np.ndarray, body: ConvexBody, orders: np.ndarray) -> np.ndarray:
    """Greedy signs of each restart along its row of ``orders``: each vector
    takes the sign whose prefix sum has the smaller gauge, + on a tie."""
    b = len(orders)
    rows = np.arange(b)
    signs = np.ones(orders.shape)
    acc = np.zeros((b, body.dim))
    for i in orders.T:
        step = v[i]
        g = body.gauge_many(np.concatenate((acc + step, acc - step)))
        s = np.where(g[:b] <= g[b:], 1.0, -1.0)
        signs[rows, i] = s
        acc += s[:, None] * step
    return signs


def _descend(v: np.ndarray, body: ConvexBody, signs: np.ndarray) -> np.ndarray:
    """Single-flip descent of each row of ``signs`` in place, first
    improvement in index order; returns the gauge of each final sum.

    A restart passes over its indices from 0 until a pass flips nothing.
    Each round scores the flip of every index of every restart in a pass,
    and a restart keeps the first flip at or past its position that lowers
    its gauge by more than 1e-12.
    """
    b, k = signs.shape
    d = v.shape[1]
    index = np.arange(k)
    totals = np.empty((b, d))
    current = np.empty(b)
    passing = np.arange(b)
    while passing.size:
        for r in passing:  # one sign row at a time, as a restart alone sums it
            totals[r] = signs[r] @ v
        current[passing] = body.gauge_many(totals[passing])
        pos = np.zeros(b, dtype=np.int64)
        improved = np.zeros(b, dtype=bool)
        live = passing
        while live.size:
            flips = totals[live, None] - 2.0 * signs[live, :, None] * v
            flipped = body.gauge_many(flips.reshape(-1, d)).reshape(len(live), k)
            better = (index >= pos[live, None]) & (flipped < current[live, None] - 1e-12)
            found = better.any(axis=1)
            live, i = live[found], better.argmax(axis=1)[found]
            signs[live, i] = -signs[live, i]
            current[live] = flipped[found, i]
            improved[live] = True
            for r in live:
                totals[r] = signs[r] @ v
            pos[live] = i + 1
            live = live[i < k - 1]
        passing = passing[improved[passing]]
    # each restart's last pass flipped nothing: current is the gauge of its sum
    return current


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
    perturbations. Returns (radius, witness vectors) of the first restart
    with the largest radius. An unbounded U, one of infinite circumradius
    (exact for every kind, H-polytopes of any dimension among them), is
    refused before any draw, so every probe direction has a positive gauge.

    The probes of one vector are tried in order and the first that raises
    the radius is kept. Their noise does not depend on which is kept, so
    all of them are scored from the current vectors in one stacked scan;
    after a probe is kept, only the probes after it are scored again.
    Restarts run in lockstep, in blocks of 2^16 // (6 * 2^(n-1)) (one at
    least), so a block's scan stacks at most 2^16 gauge rows: the start
    vectors of a block share one scan, and the probes of vector i of every
    restart still probing it share one gauge call and one scan. Each
    restart draws from its own ``substream(seed, restart)`` in its own
    order, so the radii and the witness are those of trying the probes one
    at a time, one restart after another, unless U or V is an
    ``OracleBody``, whose gauge of a row depends on the other rows of its
    call.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"n must be at most {MAX_EXHAUSTIVE}, got {n}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if u_body.dim != v_body.dim:
        raise DimensionMismatchError("input and target bodies must share a dimension")
    if math.isinf(u_body.circumradius()):
        raise UnsupportedBodyError("worst-case search needs a bounded input body")
    best_r = -math.inf
    best_v: np.ndarray | None = None
    for block in _restart_blocks(restarts, _BETA_PROBES << (n - 1)):
        radii, vecs = _beta_block(n, u_body, v_body,
                                  [substream(seed, restart) for restart in block])
        for radius, witness in zip(radii, vecs):
            if radius > best_r:
                best_r, best_v = float(radius), witness.copy()
    return best_r, best_v


def _beta_block(n: int, u_body: ConvexBody, v_body: ConvexBody,
                rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """Final radii and vectors of the restarts drawing from ``rngs``."""
    b, d = len(rngs), u_body.dim

    def boundary(dirs):  # each direction of a (c, m, d) stack scaled onto U's boundary
        return dirs / u_body.gauge_many(dirs.reshape(-1, d)).reshape(*dirs.shape[:2], 1)

    def scan(stack):  # the balancing radius of each sequence of a (c, m, n, d) stack
        return _exhaustive_scan(stack.reshape(-1, n, d), v_body)[0].reshape(stack.shape[:2])

    vecs = boundary(np.stack([rng.standard_normal((n, d)) for rng in rngs]))
    radius = scan(vecs[:, None])[:, 0]
    slots, last = np.arange(_BETA_PROBES), _BETA_PROBES - 1
    step = 0.5
    for _ in range(_BETA_PASSES):
        for i in range(n):
            noise = np.stack([step * rng.standard_normal((_BETA_PROBES, d)) for rng in rngs])
            p = np.zeros(b, dtype=np.int64)
            live = np.arange(b)
            while live.size:
                # every probe slot of a live restart is scored; the pending
                # ones (from p on) are used
                cands = np.repeat(vecs[live, None], _BETA_PROBES, axis=1)
                cands[:, :, i] = boundary(vecs[live, i, None] + noise[live])
                radii = scan(cands)
                up = (slots >= p[live, None]) & (radii > radius[live, None])
                found = up.any(axis=1)
                live, t = live[found], up.argmax(axis=1)[found]
                radius[live] = radii[found, t]
                vecs[live, i] = cands[found, t, i]
                p[live] = t + 1
                live = live[t < last]
        step *= 0.5
    return radius, vecs


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
