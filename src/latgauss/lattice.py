"""Lattices: reduction, enumeration, successive minima, covering radii.

Bases are real (floating point) row matrices; the central constant of the
project is irrational, so exact arithmetic is off the table and all
comparisons carry the absolute tolerance ``COMPARE_ATOL``. A lattice is
LLL-reduced once: ``Lattice.frame`` caches the reduced basis, its unimodular
transform and the QR factors of the reduced basis, and every enumeration
(minima, CVP, coset points, covering candidates) runs Fincke-Pohst in that
cached frame, breadth-first with numpy so desk-scale instances (n <= 6)
stay fast. The basis and the frame arrays are read-only, so the cache
cannot go stale. Every enumeration shares one budget, the module constant
``DEFAULT_NODE_CAP`` on partial nodes; passing it raises
``EnumerationCapExceededError`` rather than truncating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .convex import ConvexBody, AxisBox
from .errors import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    InvalidLatticeError,
    ResolutionTooCoarseError,
    UnsupportedBodyError,
)

COMPARE_ATOL = 1e-9
_EPS = float(np.finfo(float).eps)
DEFAULT_NODE_CAP = 10**8
COVERING_GRID_CAP = 2**22  # covering_radius grid cells; with its meshgrid ~67*n MB
_LLL_DELTA = 0.99  # Lovasz condition parameter


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice given by n independent basis row vectors."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] == 0:
            raise InvalidLatticeError(f"basis must be a square matrix, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InvalidLatticeError("basis entries must be finite")
        with np.errstate(over="ignore"):  # an overflow is named below
            gram = b @ b.T
            scale = float(np.prod(np.diag(gram)))
        zero = np.flatnonzero(np.diag(gram) == 0.0)
        if zero.size:
            raise InvalidLatticeError(f"basis row {zero[0]} is zero")
        if not 0.0 < scale < math.inf:
            raise InvalidLatticeError(
                f"basis Gram matrix overflows or underflows float64 "
                f"(product of squared row norms {scale:.3g})")
        rel = np.linalg.det(gram) / scale
        if not rel > 1e-12:
            raise InvalidLatticeError(
                f"basis is numerically dependent (relative Gram determinant {rel:.3g})")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(B, T, Q, R): LLL basis B = T @ basis and B.T = Q @ R, diag(R) > 0.

        Reduced once per lattice; all four arrays are read-only.
        """
        reduced, t = lll_reduce(self.basis)
        q, r = np.linalg.qr(reduced.T)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        frame = (reduced, t, q * sgn, r * sgn[:, None])
        for a in frame:
            a.flags.writeable = False
        return frame

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def to_document(self) -> dict:
        return {"basis": self.basis.tolist()}


@dataclass(frozen=True, eq=False)
class Coset:
    """Affine translate offset + lattice."""

    lattice: Lattice
    offset: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.offset, dtype=float)
        if a.shape != (self.lattice.dim,):
            raise DimensionMismatchError(
                f"offset shape {a.shape} does not match lattice dim {self.lattice.dim}")
        if not np.all(np.isfinite(a)):
            raise InvalidLatticeError("coset offset entries must be finite")
        object.__setattr__(self, "offset", a)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def to_document(self) -> dict:
        return {"basis": self.lattice.basis.tolist(), "offset": self.offset.tolist()}


def lattice_from_document(doc: dict) -> Lattice:
    if not isinstance(doc, dict) or "basis" not in doc:
        raise InvalidLatticeError("lattice document needs a 'basis' field")
    return Lattice(np.asarray(doc["basis"], dtype=float))


def coset_from_document(doc: dict) -> Coset:
    """Coset of a lattice document; without an ``offset`` it is the lattice itself."""
    lat = lattice_from_document(doc)
    return Coset(lat, np.asarray(doc.get("offset", np.zeros(lat.dim)), dtype=float))


# ---------------------------------------------------------------------------
# Gram-Schmidt and LLL
# ---------------------------------------------------------------------------

def _gs_row(b: np.ndarray, bstar: np.ndarray, mu: np.ndarray, i: int) -> None:
    """Write row i of the Gram-Schmidt of b in place: bstar[i] and mu[i, :i].

    Reads only b[i] and bstar[:i], so once rows 0..i-1 are current a changed
    b[i] needs this one row and nothing else.
    """
    bstar[i] = b[i]
    for j in range(i):
        mu[i, j] = (b[i] @ bstar[j]) / (bstar[j] @ bstar[j])
        bstar[i] -= mu[i, j] * bstar[j]


def _gs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Gram-Schmidt of the rows of b: (orthogonal rows, mu).

    mu is lower triangular with unit diagonal; mu[i, j] is the projection
    coefficient of row i on orthogonal row j.
    """
    bstar = np.empty_like(b, dtype=float)
    mu = np.eye(b.shape[0])
    for i in range(b.shape[0]):
        _gs_row(b, bstar, mu, i)
    return bstar, mu


def lll_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, T): the LLL-reduced basis and the unimodular T with
    reduced = T @ basis. The basis is taken as valid (``Lattice`` checks it).

    Gram-Schmidt is kept row by row: a size reduction at k changes row k, a
    swap rows k-1 and k, and rows past k are not read until k reaches them,
    so each step redoes only those rows, with the same float operations as a
    full recompute; the result is bitwise that of redoing it all each step.
    """
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    t = np.eye(n, dtype=np.int64)
    bstar, mu = _gs(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[k] -= q * b[j]
                t[k] -= q * t[j]
                _gs_row(b, bstar, mu, k)
        if bstar[k] @ bstar[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * (bstar[k - 1] @ bstar[k - 1]):
            k += 1
            if k < n:
                _gs_row(b, bstar, mu, k)
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            t[[k - 1, k]] = t[[k, k - 1]]
            _gs_row(b, bstar, mu, k - 1)
            _gs_row(b, bstar, mu, k)
            k = max(k - 1, 1)
    return b, t


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration core
# ---------------------------------------------------------------------------

def _frame_target(lattice: Lattice, target: np.ndarray, radius: float) -> np.ndarray:
    """Frame coordinates Q.T @ target of a search for lattice points within ``radius``.

    Raises ValueError when float64 cannot hold that search: back substitution
    through R bounds every coefficient, and rounding could then move a point
    by more than COMPARE_ATOL, or a coefficient reaches 2**53 (README,
    "Numerical conventions", derives the bound).
    """
    _, t, q, r = lattice.frame
    n = lattice.dim
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound is rejected
        y = q.T @ target
        ar = np.abs(r)
        coeff = np.zeros(n)
        for i in range(n - 1, -1, -1):
            coeff[i] = (abs(y[i]) + radius + ar[i, i + 1:] @ coeff[i + 1:]) / ar[i, i]
        orig = coeff @ np.abs(t)
        err = (n + 1) * _EPS * (np.abs(y).sum() + orig @ np.linalg.norm(lattice.basis, axis=1))
    if not (err <= COMPARE_ATOL and max(coeff.max(), orig.max()) < 2.0**53):
        raise ValueError(
            f"a lattice search within {radius:.3g} of a target with coordinates up to "
            f"{np.max(np.abs(target)):.3g} is beyond float64: rounding could move a point by "
            f"{err:.3g} > COMPARE_ATOL; bring the coset offset or cvp target nearer the "
            f"origin, or rescale the lattice")
    return y


def _enumerate_ball_coeffs(lattice: Lattice, target: np.ndarray, radius: float) -> np.ndarray:
    """Integer coefficient rows c with ||c @ B - target|| <= radius.

    B is the lattice's cached reduced basis and the rows are coefficients in
    it; the search runs breadth-first in the cached QR frame, last coordinate
    outward, with no reduction or factorisation of its own. The closed-ball
    boundary is widened by COMPARE_ATOL. Raises EnumerationCapExceededError
    when the number of partial nodes passes ``DEFAULT_NODE_CAP``.
    """
    cap = DEFAULT_NODE_CAP  # read per call, the one place the cap is decided
    n = lattice.dim
    r = lattice.frame[3]
    reff = radius + COMPARE_ATOL
    y = _frame_target(lattice, target, reff)
    r2 = reff * reff

    # partial coefficient columns in order c_{n-1}, c_{n-2}, ...
    partial = np.zeros((1, 0), dtype=np.int64)
    dist2 = np.zeros(1)
    nodes = 0
    for i in range(n - 1, -1, -1):
        if partial.shape[0] == 0:
            return np.zeros((0, n), dtype=np.int64)
        resid = y[i] - partial @ r[i, i + 1:][::-1]
        rad = np.sqrt(np.maximum(r2 - dist2, 0.0))
        width = rad / r[i, i]
        center = resid / r[i, i]
        lo = np.ceil(center - width).astype(np.int64)
        hi = np.floor(center + width).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        nodes += total
        if nodes > cap:
            raise EnumerationCapExceededError(cap, nodes)
        if total == 0:
            return np.zeros((0, n), dtype=np.int64)
        keep = counts > 0
        idx = np.repeat(np.flatnonzero(keep), counts[keep])
        starts = np.concatenate(([0], np.cumsum(counts[keep])[:-1]))
        within = np.arange(total) - np.repeat(starts, counts[keep])
        vals = np.repeat(lo[keep], counts[keep]) + within
        new_dist2 = dist2[idx] + (vals * r[i, i] - resid[idx]) ** 2
        ok = new_dist2 <= r2
        partial = np.hstack([partial[idx[ok]], vals[ok, None]])
        dist2 = new_dist2[ok]
    return partial[:, ::-1]


def _spiral_keys(coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """lexsort keys for the spiral order of coefficient rows, least significant first.

    The spiral order (README, "Numerical conventions") ranks rows coordinate
    by coordinate, the first most significant, and within one coordinate by
    |c| first, then c >= 0 before c < 0. Within one coordinate that is the
    order of the zigzag code z = 2|c| + (c < 0), which maps 0, 1, -1, 2, -2
    to 0, 2, 3, 4, 5. Consecutive coordinates' codes are packed into one int64
    in mixed radix, each column's base max(z) + 1; a further key starts where
    the product of the bases in the current one would pass 2**63. A single
    column always fits, because ``_frame_target`` keeps |c| < 2**53.
    """
    z = 2 * np.abs(coeffs) + (coeffs < 0)
    keys, span = [], 0
    for col in z.T:  # column by column: an axis-0 max over int64 rows is slow
        base = int(col.max(initial=0)) + 1
        if keys and span * base <= 2**63:
            keys[-1] = keys[-1] * base + col
            span *= base
        else:
            keys.append(col)
            span = base
    return tuple(keys[::-1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def successive_minima(lattice: Lattice, body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1 <= ... <= lambda_n, witness rows) in the gauge of ``body``.

    lambda_k is the smallest r such that r*body holds k linearly independent
    lattice vectors. Requires a bounded body that its ``gauge_many`` accepts.
    Ties of the gauge, quantized by COMPARE_ATOL, break by the spiral order
    of coefficients in the cached LLL basis ``lattice.frame[0]``, not the
    lattice's own basis, so of a pair +-v the witness may be the one whose
    own-basis coefficients start negative.
    """
    if body.dim != lattice.dim:
        raise DimensionMismatchError("body and lattice dimensions differ")
    b = lattice.frame[0]
    bound = float(np.max(body.gauge_many(b)))
    circ = body.circumradius()
    if not math.isfinite(circ):
        raise UnsupportedBodyError("successive minima need a bounded gauge body")
    radius = bound * circ * (1.0 + 1e-9)
    coeffs = _enumerate_ball_coeffs(lattice, np.zeros(lattice.dim), radius)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    points = coeffs @ b
    gauges = body.gauge_many(points)
    # quantized gauge first, spiral key as deterministic tie-break
    quant = np.round(gauges / COMPARE_ATOL).astype(np.int64)
    order = np.lexsort(_spiral_keys(coeffs) + (quant,))
    points, gauges = points[order], gauges[order]

    lambdas = np.empty(lattice.dim)
    witnesses = np.empty((lattice.dim, lattice.dim))
    ortho: list[np.ndarray] = []
    found = 0
    for p, g in zip(points, gauges):
        v = p.copy()
        for u in ortho:
            v -= (v @ u) * u
        if np.linalg.norm(v) > 1e-9 * np.linalg.norm(p):
            ortho.append(v / np.linalg.norm(v))
            lambdas[found] = g
            witnesses[found] = p
            found += 1
            if found == lattice.dim:
                break
    if found < lattice.dim:
        raise InvalidLatticeError("enumeration did not span the lattice (radius bug)")
    return lambdas, witnesses


def nth_minimum(lattice: Lattice, body: ConvexBody) -> float:
    return float(successive_minima(lattice, body)[0][-1])


def closest_vector(lattice: Lattice, target, return_coefficients: bool = False):
    """Lattice point nearest to target in euclidean distance.

    Ties within COMPARE_ATOL break toward the lexicographically smallest
    coefficient vector in the lattice's own basis.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (lattice.dim,):
        raise DimensionMismatchError("target dimension mismatch")
    if not np.all(np.isfinite(t)):
        raise ValueError("cvp target entries must be finite")
    b, trans, _, r = lattice.frame
    # Babai nearest-plane seed, which lies within |diag(R)| / 2 of the target;
    # any seed radius enumerates every tie of the best
    y = _frame_target(lattice, t, 0.5 * float(np.linalg.norm(np.diag(r))))
    seed_coeff = np.zeros(lattice.dim, dtype=np.int64)
    for i in range(lattice.dim - 1, -1, -1):
        seed_coeff[i] = round((y[i] - r[i, i + 1:] @ seed_coeff[i + 1:]) / r[i, i])
    radius = float(np.linalg.norm(t - seed_coeff @ b))
    coeffs = _enumerate_ball_coeffs(lattice, t, radius)
    points = coeffs @ b
    dists = np.linalg.norm(points - t, axis=1)
    best = dists.min()
    tie = dists <= best + COMPARE_ATOL
    orig = coeffs[tie] @ trans
    pick = np.lexsort(orig.T[::-1])[0]
    point = orig[pick] @ lattice.basis
    if return_coefficients:
        return point, orig[pick]
    return point


def enumerate_coset_in_ball(coset: Coset, center, radius: float,
                            return_coefficients: bool = False):
    """All points of offset+L within closed euclidean ``radius`` of ``center``.

    Output rows are in the spiral order (README, "Numerical conventions") of
    their coefficient vectors in the coset's own basis, which makes the order
    invariant under translating offset and center together.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (coset.dim,):
        raise DimensionMismatchError("center dimension mismatch")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    trans = coset.lattice.frame[1]
    coeffs = _enumerate_ball_coeffs(coset.lattice, c - coset.offset, radius) @ trans
    coeffs = coeffs[np.lexsort(_spiral_keys(coeffs))]
    points = coeffs @ coset.lattice.basis + coset.offset
    if return_coefficients:
        return points, coeffs
    return points


def covering_radius(lattice: Lattice, body: ConvexBody, resolution: int) -> tuple[float, float]:
    """Certified bracket (lower, upper) around the covering radius mu(L, V).

    mu is the largest gauge distance from any point of space to the lattice.
    A diagonal basis paired with an axis box admits the exact product answer
    (degenerate bracket); otherwise the fundamental cell is scanned on a
    resolution^n grid of at most ``COVERING_GRID_CAP`` cell centers and
    widened by the exact gauge reach of half a cell. The body's ``gauge_many``
    rejects a body without a gauge.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if body.dim != lattice.dim:
        raise DimensionMismatchError("body and lattice dimensions differ")

    diag = np.diag(lattice.basis)
    offdiag = lattice.basis - np.diag(diag)
    if isinstance(body, AxisBox) and np.max(np.abs(offdiag)) <= 1e-12 * np.min(np.abs(diag)):
        with np.errstate(invalid="ignore"):
            per_axis = (np.abs(diag) / 2.0) / body.semiwidths
        mu = float(np.nan_to_num(per_axis, nan=0.0).max())
        return mu, mu

    n = lattice.dim
    if resolution ** n > COVERING_GRID_CAP:
        raise ValueError(f"covering grid of resolution {resolution} has {resolution ** n} "
                         f"cells in dimension {n}, above COVERING_GRID_CAP = {COVERING_GRID_CAP}")
    b = lattice.frame[0]
    signs = np.array(list(product((1.0, -1.0), repeat=n - 1)))
    corners = np.hstack([np.ones((signs.shape[0], 1)), signs]) @ b / 2.0
    tau = float(np.max(body.gauge_many(corners)))      # covering bound via cell rounding
    circ = body.circumradius()
    if not math.isfinite(circ):
        raise UnsupportedBodyError(
            "grid bracketing needs a bounded gauge body (or the diagonal/axis-box fast path)")
    halfdiag = float(np.max(np.linalg.norm(corners, axis=1)))

    center = b.sum(axis=0) / 2.0
    cand_radius = halfdiag + tau * circ * (1.0 + 1e-9)
    cand = _enumerate_ball_coeffs(lattice, center, cand_radius) @ b

    fracs = (np.arange(resolution) + 0.5) / resolution
    mesh = np.meshgrid(*([fracs] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1) @ b

    lower = 0.0
    chunk = max(1, 2_000_000 // max(cand.shape[0], 1))
    for start in range(0, grid.shape[0], chunk):
        block = grid[start:start + chunk]
        diff = block[:, None, :] - cand[None, :, :]
        g = body.gauge_many(diff.reshape(-1, n)).reshape(block.shape[0], cand.shape[0])
        lower = max(lower, float(g.min(axis=1).max()))

    slack = tau / resolution + 1e-12
    if slack > lower:
        raise ResolutionTooCoarseError(
            f"grid slack {slack:.3g} exceeds lower bound {lower:.3g}; raise resolution")
    return lower, lower + slack
