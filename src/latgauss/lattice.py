"""Lattices: reduction, enumeration, successive minima, covering radii.

Bases are real (floating point) row matrices; the central constant of the
project is irrational, so exact arithmetic is off the table and all
comparisons carry the absolute tolerance ``COMPARE_ATOL``. A lattice is
LLL-reduced once: ``Lattice.frame`` caches the reduced basis, its unimodular
transform and the QR factors of the reduced basis, and every enumeration
(minima, CVP, coset points, covering candidates) runs Fincke-Pohst in that
cached frame. The search goes one coordinate level at a time; each level is
expanded with numpy in blocks of ``_BLOCK`` children, with the coefficients
held as exact float64 integers, so desk-scale instances (n <= 6) stay fast
and temporaries stay small. The spiral order of coefficient vectors has one
encoder, ``_spiral_codes``, which packs it into int64 words: minima ties and
small or wide coset outputs lexsort the words, and a large one-word output
is sorted in place and unpacked. The basis and the frame arrays are
read-only, so the cache cannot go stale. Every enumeration shares one
budget, the module constant ``DEFAULT_NODE_CAP`` on partial nodes; passing
it raises ``EnumerationCapExceededError`` rather than truncating silently.
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
_BLOCK = 2**12  # rows per block of frontier expansion, spiral packing and unpacking
_PACKED_MIN = 2**10  # fewer coset points lexsort and gather faster than sort and unpack


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

def _gs_row(b: np.ndarray, bstar: np.ndarray, mu: np.ndarray, norm2: np.ndarray,
            i: int) -> None:
    """Write row i of the Gram-Schmidt of b in place: bstar[i], mu[i, :i] and
    norm2[i] = |bstar[i]|^2.

    Reads only b[i], bstar[:i] and norm2[:i], so once rows 0..i-1 are current
    a changed b[i] needs this one row and nothing else.
    """
    bstar[i] = b[i]
    for j in range(i):
        mu[i, j] = (b[i] @ bstar[j]) / norm2[j]
        bstar[i] -= mu[i, j] * bstar[j]
    norm2[i] = bstar[i] @ bstar[i]


def _gs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized Gram-Schmidt of the rows of b: (orthogonal rows, mu,
    their squared norms).

    mu is lower triangular with unit diagonal; mu[i, j] is the projection
    coefficient of row i on orthogonal row j.
    """
    bstar = np.empty_like(b, dtype=float)
    mu = np.eye(b.shape[0])
    norm2 = np.empty(b.shape[0])
    for i in range(b.shape[0]):
        _gs_row(b, bstar, mu, norm2, i)
    return bstar, mu, norm2


def lll_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, T): the LLL-reduced basis and the unimodular T with
    reduced = T @ basis. The basis is taken as valid (``Lattice`` checks it).

    Gram-Schmidt is kept row by row: a size reduction at k changes row k, a
    swap rows k-1 and k, and rows past k are not read until k reaches them,
    so each step redoes only those rows, with the same float operations as a
    full recompute; the result is bitwise that of redoing it all each step.
    The squared norms |b*_j|^2 are kept beside the rows and recomputed only
    when row j changes.
    """
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    t = np.eye(n, dtype=np.int64)
    bstar, mu, norm2 = _gs(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[k] -= q * b[j]
                t[k] -= q * t[j]
                _gs_row(b, bstar, mu, norm2, k)
        if norm2[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * norm2[k - 1]:
            k += 1
            if k < n:
                _gs_row(b, bstar, mu, norm2, k)
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            t[[k - 1, k]] = t[[k, k - 1]]
            _gs_row(b, bstar, mu, norm2, k - 1)
            _gs_row(b, bstar, mu, norm2, k)
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
    """Coefficient rows c with ||c @ B - target|| <= radius, as exact float64.

    B is the lattice's cached reduced basis and the rows are coefficients in
    it, integers held exactly as float64 (``_frame_target`` keeps them below
    2**53). The search runs level by level in the cached QR frame, last
    coordinate outward, with no reduction or factorisation of its own. The
    closed-ball boundary is widened by COMPARE_ATOL. Raises
    EnumerationCapExceededError when the number of partial nodes passes
    ``DEFAULT_NODE_CAP``.

    The frontier holds its columns in level order c_{n-1}, ..., c_0, and the
    rows returned are its column-reversed view: ``rows[:, ::-1]`` is the
    contiguous frontier, the layout a matmul wants. Each level repeats every
    parent row [prefix | lo] once per child and adds the child's index
    under its parent to the new column. Parents are expanded in blocks of
    about ``_BLOCK`` children into a preallocated frontier, so a level makes
    no temporaries of its own size.
    """
    cap = DEFAULT_NODE_CAP  # read per call, the one place the cap is decided
    n = lattice.dim
    r = lattice.frame[3]
    reff = radius + COMPARE_ATOL
    y = _frame_target(lattice, target, reff)
    r2 = reff * reff

    partial = np.zeros((1, 0))
    dist2 = np.zeros(1)
    nodes = 0
    for i in range(n - 1, -1, -1):
        d = n - 1 - i  # columns set so far
        resid = y[i] - partial @ r[i, i + 1:][::-1]
        lo, counts = _level_range(resid / r[i, i], np.sqrt(np.maximum(r2 - dist2, 0.0)) / r[i, i])
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        nodes += total
        if nodes > cap:
            raise EnumerationCapExceededError(cap, nodes)
        parents = np.column_stack([partial, lo])
        partial, parent_dist2 = np.empty((total, d + 1)), dist2
        dist2 = np.empty(total if i else 0)  # the last level's distances are not read
        cuts = np.searchsorted(ends, np.arange(_BLOCK, total, _BLOCK), side="right")
        kept = 0
        for p0, p1 in zip([0, *cuts], [*cuts, len(counts)]):
            reps = counts[p0:p1]
            rows = np.repeat(parents[p0:p1], reps, axis=0)
            # the new column: the parent's lo plus the child's index under that parent
            vals = rows[:, d]
            vals += np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
            new_dist2 = (np.repeat(parent_dist2[p0:p1], reps)
                         + (vals * r[i, i] - np.repeat(resid[p0:p1], reps)) ** 2)
            ok = new_dist2 <= r2
            if not ok.all():  # the interval ends can round past the ball
                rows, new_dist2 = rows[ok], new_dist2[ok]
            partial[kept:kept + len(rows)] = rows
            if i:
                dist2[kept:kept + len(rows)] = new_dist2
            kept += len(rows)
        partial, dist2 = partial[:kept], dist2[:kept]
    return partial[:, ::-1]


def _level_range(center: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, counts): the integers lo, ..., lo + counts - 1 in [center - width, center + width].

    A function of its own so that its level-sized temporaries are freed
    before the level is expanded.
    """
    lo = np.ceil(center - width)
    return lo, np.maximum(np.floor(center + width) - lo + 1, 0).astype(np.int64)


def _spiral_codes(cols: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(words, bits): the spiral order of coefficient vectors as int64 words,
    so that ``np.lexsort(words[::-1])`` sorts the vectors in that order.

    The spiral order (README, "Numerical conventions") ranks vectors
    coordinate by coordinate, the first most significant, and within one
    coordinate by |c| first, then c >= 0 before c < 0. Within one coordinate
    that is the order of the zigzag code z = 2|c| + (c < 0), which maps 0, 1,
    -1, 2, -2 to 0, 2, 3, 4, 5. Coordinate j's code takes ``bits[j]`` bits,
    packed as bit fields with the first coordinate most significant. A word
    holds whole coordinates and at most 63 bits, and a new word starts where
    the next coordinate would not fit. A single coordinate always fits,
    because ``_frame_target`` keeps |c| < 2**53.

    ``cols`` holds one row per coordinate (the vectors are its columns), as
    integers in float64. Distinct vectors get distinct words.
    """
    # 2|c| + 1 has the bit length of 2|c| for c != 0, and a zero column needs none
    bits = [int(2 * top).bit_length() for top in np.abs(cols).max(axis=1, initial=0).tolist()]
    starts, used = [], 64
    for j, width in enumerate(bits):
        if used + width > 63:
            starts.append(j)
            used = 0
        used += width
    words = np.empty((len(starts), cols.shape[1]), dtype=np.int64)
    for block in _blocks(cols.shape[1]):
        c = cols[:, block].astype(np.int64)
        z = np.abs(c)
        z <<= 1
        z -= c >> 63  # c >> 63 is -1 where c < 0
        for word, a, b in zip(words, starts, starts[1:] + [len(bits)]):
            packed = word[block]
            packed[:] = z[a]
            for row, width in zip(z[a + 1:b], bits[a + 1:b]):
                packed <<= width
                packed |= row
    return words, bits


def _unpack_spiral_codes(codes: np.ndarray, bits: list[int], out: np.ndarray) -> None:
    """Write the coefficient rows of one-word codes to ``out``: the inverse of
    ``_spiral_codes`` where it returns a single word."""
    shift = 0
    for j in range(len(bits) - 1, -1, -1):
        np.bitwise_and(codes >> shift, (1 << bits[j]) - 1, out=out[:, j])
        shift += bits[j]
    flip = -(out & 1)  # all ones where the code is odd, that is c < 0
    out >>= 1
    out ^= flip
    out -= flip  # (x ^ -1) + 1 = -x


def _blocks(total: int) -> list[slice]:
    """Slices of about ``_BLOCK`` rows that cover range(total). None has a
    single row unless total is 1: numpy hands a one-row matmul to gemv,
    whose rounding is not gemm's."""
    starts = list(range(0, max(total - 1, 1), _BLOCK))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [total])]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def successive_minima(lattice: Lattice, body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1 <= ... <= lambda_n, witness rows) in the gauge of ``body``.

    lambda_k is the smallest r such that r*body holds k linearly independent
    lattice vectors. Requires a body of finite circumradius (every bounded
    H-polytope among them, in any dimension) that its ``gauge_many`` accepts.
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
    # quantized gauge first, spiral order as deterministic tie-break
    quant = np.round(gauges / COMPARE_ATOL).astype(np.int64)
    order = np.lexsort((*_spiral_codes(coeffs.T)[0][::-1], quant))
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
    coeffs = _enumerate_ball_coeffs(lattice, t, radius).astype(np.int64)
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
    basis, trans = coset.lattice.basis, coset.lattice.frame[1]
    rows = _enumerate_ball_coeffs(coset.lattice, c - coset.offset, radius)[:, ::-1]
    # one row per coordinate; exact, as every partial sum is an integer
    # below 2**53 (``_frame_target``)
    cols = trans[::-1].T.astype(float) @ rows.T
    del rows
    words, bits = _spiral_codes(cols)
    if len(words) > 1 or cols.shape[1] < _PACKED_MIN:
        coeffs = cols.T.astype(np.int64, order="C")[np.lexsort(words[::-1])]
        points = coeffs @ basis + coset.offset
        return (points, coeffs) if return_coefficients else points
    del cols
    codes = words[0]
    codes.sort()  # the codes are distinct, so no stable sort is needed
    points = np.empty((codes.shape[0], coset.dim))
    coeffs = np.empty(points.shape if return_coefficients else (0, coset.dim), dtype=np.int64)
    for block in _blocks(codes.shape[0]):
        rows = coeffs[block] if return_coefficients else np.empty_like(points[block], np.int64)
        _unpack_spiral_codes(codes[block], bits, rows)
        np.matmul(rows.astype(float), basis, out=points[block])
        points[block] += coset.offset
    return (points, coeffs) if return_coefficients else points


def covering_radius(lattice: Lattice, body: ConvexBody, resolution: int) -> tuple[float, float]:
    """Certified bracket (lower, upper) around the covering radius mu(L, V).

    mu is the largest gauge distance from any point of space to the lattice.
    A diagonal basis paired with an axis box admits the exact product answer
    (degenerate bracket); otherwise the fundamental cell is scanned on a
    resolution^n grid of at most ``COVERING_GRID_CAP`` cell centers and
    widened by the exact gauge reach of half a cell; that scan needs a body
    of finite circumradius (every bounded H-polytope among them, in any
    dimension). The body's ``gauge_many`` rejects a body without a gauge.
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
    # contiguous, as BLAS needs: numpy runs a matmul on the column-reversed
    # rows without it, and that rounds differently
    cand = np.ascontiguousarray(_enumerate_ball_coeffs(lattice, center, cand_radius)) @ b

    fracs = (np.arange(resolution) + 0.5) / resolution
    mesh = np.meshgrid(*([fracs] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1) @ b

    lower = 0.0
    # blocks of 2**16 cell-candidate pairs keep each temporary near 1 MB:
    # freeing a larger one raises glibc's heap trim threshold, which then
    # leaves up to twice that size of freed heap resident
    chunk = max(1, 2**16 // max(cand.shape[0], 1))
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
