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
DEFAULT_NODE_CAP = 10**8


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
        gram = b @ b.T
        zero = np.flatnonzero(np.diag(gram) == 0.0)
        if zero.size:
            raise InvalidLatticeError(f"basis row {zero[0]} is zero")
        rel = np.linalg.det(gram) / float(np.prod(np.diag(gram)))
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
        reduced, t = lll_reduce(self, return_transform=True)
        q, r = np.linalg.qr(reduced.basis.T)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        frame = (reduced.basis, t, q * sgn, r * sgn[:, None])
        for a in frame:
            a.flags.writeable = False
        return frame

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def determinant(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

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
    lat = lattice_from_document(doc)
    if "offset" not in doc:
        raise InvalidLatticeError("coset document needs an 'offset' field")
    return Coset(lat, np.asarray(doc["offset"], dtype=float))


# ---------------------------------------------------------------------------
# Gram-Schmidt and LLL
# ---------------------------------------------------------------------------

def gram_schmidt(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Gram-Schmidt: returns (orthogonal rows, mu coefficients).

    mu is lower triangular with unit diagonal; mu[i, j] is the projection
    coefficient of basis row i on orthogonal row j.
    """
    b = lattice.basis
    bstar, mu = _gs(b)
    if np.any(np.einsum("ij,ij->i", bstar, bstar) <= 1e-24 * np.einsum("ij,ij->i", b, b)):
        raise InvalidLatticeError("numerical rank deficiency in Gram-Schmidt")
    return bstar, mu


def _gs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = b.shape[0]
    bstar = b.astype(float).copy()
    mu = np.eye(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = (b[i] @ bstar[j]) / (bstar[j] @ bstar[j])
            bstar[i] -= mu[i, j] * bstar[j]
    return bstar, mu


def lll_reduce(lattice: Lattice, delta: float = 0.99, return_transform: bool = False):
    """LLL-reduced basis of the same lattice.

    The recorded unimodular transform T satisfies reduced.basis = T @ lattice.basis;
    pass return_transform=True to get (reduced, T).
    """
    if not 0.25 < delta < 1.0:
        raise ValueError(f"delta must lie in (0.25, 1), got {delta}")
    b = lattice.basis.copy()
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
                bstar, mu = _gs(b)
        if bstar[k] @ bstar[k] >= (delta - mu[k, k - 1] ** 2) * (bstar[k - 1] @ bstar[k - 1]):
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            t[[k - 1, k]] = t[[k, k - 1]]
            bstar, mu = _gs(b)
            k = max(k - 1, 1)
    reduced = Lattice(b)
    if return_transform:
        return reduced, t
    return reduced


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration core
# ---------------------------------------------------------------------------

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
    _, _, q, r = lattice.frame
    y = q.T @ target
    reff = radius + COMPARE_ATOL
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
        partial = np.hstack([partial[idx][ok], vals[ok, None]])
        dist2 = new_dist2[ok]
    return partial[:, ::-1]


def _spiral_keys(coeffs: np.ndarray) -> list[np.ndarray]:
    """lexsort keys for the per-coordinate (|c|, sign) order, least significant first."""
    keys = []
    for j in range(coeffs.shape[1] - 1, -1, -1):
        keys.append(coeffs[:, j] < 0)
        keys.append(np.abs(coeffs[:, j]))
    return keys


def _spiral_order(coeffs: np.ndarray) -> np.ndarray:
    """Stable order by per-coordinate (|c|, sign) keys, first coordinate primary."""
    return np.lexsort(tuple(_spiral_keys(coeffs)))


def _lex_order(coeffs: np.ndarray) -> np.ndarray:
    """Plain ascending lexicographic order of coefficient rows."""
    keys = [coeffs[:, j] for j in range(coeffs.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def successive_minima(lattice: Lattice, body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1 <= ... <= lambda_n, witness rows) in the gauge of ``body``.

    lambda_k is the smallest r such that r*body holds k linearly independent
    lattice vectors. Requires a symmetric body with finite circumradius.
    """
    if body.dim != lattice.dim:
        raise DimensionMismatchError("body and lattice dimensions differ")
    if not body.symmetric:
        raise UnsupportedBodyError("successive minima need a symmetric gauge body")
    circ = body.circumradius()
    if not math.isfinite(circ):
        raise UnsupportedBodyError("successive minima need a bounded gauge body")
    b = lattice.frame[0]
    bound = float(np.max(body.gauge_many(b)))
    radius = bound * circ * (1.0 + 1e-9)
    coeffs = _enumerate_ball_coeffs(lattice, np.zeros(lattice.dim), radius)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    points = coeffs @ b
    gauges = body.gauge_many(points)
    # quantized gauge first, spiral key as deterministic tie-break
    quant = np.round(gauges / COMPARE_ATOL).astype(np.int64)
    order = np.lexsort(tuple(_spiral_keys(coeffs)) + (quant,))
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


def witness_generation_index(lattice: Lattice, witnesses: np.ndarray) -> int:
    """Index of the sublattice spanned by the witnesses inside the lattice.

    1 means the witnesses generate the lattice. For n >= 5 the minima
    witnesses may span a proper sublattice; callers can flag index > 1.
    """
    ratio = abs(np.linalg.det(witnesses)) / lattice.determinant()
    return int(round(ratio))


def closest_vector(lattice: Lattice, target, return_coefficients: bool = False):
    """Lattice point nearest to target in euclidean distance.

    Ties within COMPARE_ATOL break toward the lexicographically smallest
    coefficient vector in the lattice's own basis.
    """
    t = np.asarray(target, dtype=float)
    if t.shape != (lattice.dim,):
        raise DimensionMismatchError("target dimension mismatch")
    b, trans, q, r = lattice.frame
    # Babai nearest-plane seed; any seed radius enumerates every tie of the best
    y = q.T @ t
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
    pick = _lex_order(orig)[0]
    point = orig[pick] @ lattice.basis
    if return_coefficients:
        return point, orig[pick]
    return point


def enumerate_coset_in_ball(coset: Coset, center, radius: float,
                            return_coefficients: bool = False):
    """All points of offset+L within closed euclidean ``radius`` of ``center``.

    Output rows are ordered by the spiral key (|c|, sign) of the coefficient
    vectors in the coset's own basis, which makes the order invariant under
    translating offset and center together.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (coset.dim,):
        raise DimensionMismatchError("center dimension mismatch")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    trans = coset.lattice.frame[1]
    coeffs = _enumerate_ball_coeffs(coset.lattice, c - coset.offset, radius) @ trans
    order = _spiral_order(coeffs)
    coeffs = coeffs[order]
    points = coeffs @ coset.lattice.basis + coset.offset
    if return_coefficients:
        return points, coeffs
    return points


def covering_radius(lattice: Lattice, body: ConvexBody, resolution: int) -> tuple[float, float]:
    """Certified bracket (lower, upper) around the covering radius mu(L, V).

    mu is the largest gauge distance from any point of space to the lattice.
    A diagonal basis paired with an axis box admits the exact product answer
    (degenerate bracket); otherwise the fundamental cell is scanned on a
    resolution^n grid of cell centers and widened by the exact gauge reach of
    half a cell.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if body.dim != lattice.dim:
        raise DimensionMismatchError("body and lattice dimensions differ")
    if not body.symmetric:
        raise UnsupportedBodyError("covering radius needs a symmetric gauge body")

    diag = np.diag(lattice.basis)
    offdiag = lattice.basis - np.diag(diag)
    if isinstance(body, AxisBox) and np.max(np.abs(offdiag)) <= 1e-12 * np.min(np.abs(diag)):
        with np.errstate(invalid="ignore"):
            per_axis = (np.abs(diag) / 2.0) / body.semiwidths
        mu = float(np.nan_to_num(per_axis, nan=0.0).max())
        return mu, mu

    circ = body.circumradius()
    if not math.isfinite(circ):
        raise UnsupportedBodyError(
            "grid bracketing needs a bounded gauge body (or the diagonal/axis-box fast path)")

    b = lattice.frame[0]
    n = lattice.dim
    signs = np.array(list(product((1.0, -1.0), repeat=n - 1)))
    corners = np.hstack([np.ones((signs.shape[0], 1)), signs]) @ b / 2.0
    tau = float(np.max(body.gauge_many(corners)))      # covering bound via cell rounding
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
