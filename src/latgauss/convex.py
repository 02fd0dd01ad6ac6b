"""Convex bodies: membership, gauges, slices, Minkowski combinations.

Bodies are immutable tagged values. All sets are closed; membership
comparisons use ``<=`` with the absolute tolerance ``BOUNDARY_ATOL``.
Axis boxes may carry ``+inf`` semiwidths, which yields slabs and
axis-aligned cylinders (the covering-radius and tight-slab constructions
need those). Ellipsoids are axis-aligned and centered; an arbitrarily
oriented instance is obtained by rotating the lattice side instead, since
the Gaussian measure is rotation invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import optimize, special

from .errors import (
    DimensionMismatchError,
    InvalidBodyError,
    UnsupportedBodyError,
    UnsupportedCombinationError,
)

# Closed-set membership tolerance (absolute).
BOUNDARY_ATOL = 1e-12


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidBodyError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


class ConvexBody:
    """Base class for tagged convex sets in R^n."""

    dim: int
    kind: str

    # -- membership ---------------------------------------------------------

    def contains(self, point) -> bool:
        p = _as_vector(point, self.dim)
        return bool(self.contains_many(p[None, :])[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (k, n) array of points."""
        raise NotImplementedError

    # -- geometry ------------------------------------------------------------

    @property
    def symmetric(self) -> bool:
        """True when the body is centrally symmetric about the origin."""
        raise NotImplementedError

    def gauge(self, point) -> float:
        p = _as_vector(point, self.dim)
        return float(self.gauge_many(p[None, :])[0])

    def gauge_many(self, points: np.ndarray) -> np.ndarray:
        """Minkowski functional inf{t > 0 : x in t*body} for each row.

        Only defined for symmetric bodies with 0 in the interior; 0 is
        returned along directions where the body is unbounded.
        """
        raise NotImplementedError

    def _require_symmetric(self) -> None:
        if not self.symmetric:
            raise InvalidBodyError(f"gauge needs a centrally symmetric body, got {self.kind}")

    def _require_gauge(self) -> None:
        self._require_symmetric()
        if not self.contains(np.zeros(self.dim)):
            raise InvalidBodyError("gauge needs the origin in the body")

    def slice_at(self, x: float) -> Optional["ConvexBody"]:
        """Cross-section {y : (y, x) in body} at last coordinate x.

        Returns a body of dimension n-1, or None when the slice is empty
        or a null set (single point).
        """
        raise NotImplementedError

    def circumradius(self) -> float:
        """Radius of the smallest origin-centered ball containing the body (inf if unbounded)."""
        raise NotImplementedError

    def scale(self, s: float) -> "ConvexBody":
        """Dilate about the origin by s > 0."""
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """A point of the body near its Gaussian mass center; search seed."""
        return np.zeros(self.dim)

    def containment_margin(self, point) -> float:
        """How deep a point sits inside the body (<= 0 on/outside the boundary)."""
        raise NotImplementedError

    def translate(self, shift) -> "ConvexBody":
        raise UnsupportedBodyError(f"{self.kind} cannot be translated")

    def last_axis_extent(self) -> tuple[float, float]:
        """Extent of the body along the last coordinate (may be infinite)."""
        raise NotImplementedError

    def to_document(self) -> dict:
        raise UnsupportedBodyError(f"{self.kind} has no document form")


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexBody):
    """{x : <x, normal> <= offset}."""

    normal: np.ndarray
    offset: float
    kind: str = field(default="halfspace", init=False)

    def __post_init__(self):
        v = _as_vector(self.normal)
        if not np.all(np.isfinite(v)) or np.linalg.norm(v) <= 0:
            raise InvalidBodyError("halfspace normal must be finite and nonzero")
        if not math.isfinite(self.offset):
            raise InvalidBodyError("halfspace offset must be finite")
        object.__setattr__(self, "normal", v)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "dim", v.shape[0])

    @property
    def symmetric(self) -> bool:
        return False

    def contains_many(self, points):
        return points @ self.normal <= self.offset + BOUNDARY_ATOL

    def gauge_many(self, points):
        self._require_gauge()  # always raises: halfspaces are never symmetric

    def slice_at(self, x):
        if self.dim == 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        head, vn = self.normal[:-1], self.normal[-1]
        c = self.offset - vn * x
        if np.linalg.norm(head) <= BOUNDARY_ATOL:
            if c >= -BOUNDARY_ATOL:
                return FullSpace(self.dim - 1)
            return None
        return Halfspace(head, c)

    def circumradius(self):
        return math.inf

    def scale(self, s):
        return Halfspace(self.normal, s * self.offset)

    def anchor(self):
        if self.offset >= 0:
            return np.zeros(self.dim)
        return (self.offset / float(self.normal @ self.normal)) * self.normal

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float((self.offset - p @ self.normal) / np.linalg.norm(self.normal))

    def translate(self, shift):
        t = _as_vector(shift, self.dim)
        return Halfspace(self.normal, self.offset + float(t @ self.normal))

    def last_axis_extent(self):
        head, vn = self.normal[:-1], self.normal[-1]
        if np.linalg.norm(head) <= BOUNDARY_ATOL:
            # normal along the last axis: one-sided extent
            bound = self.offset / vn
            return (-math.inf, bound) if vn > 0 else (bound, math.inf)
        return (-math.inf, math.inf)

    def to_document(self):
        return {"kind": "halfspace", "dim": self.dim,
                "normal": self.normal.tolist(), "offset": self.offset}


@dataclass(frozen=True, eq=False)
class AxisBox(ConvexBody):
    """{x : |x_k| <= semiwidths[k]}; +inf semiwidths give slabs/cylinders."""

    semiwidths: np.ndarray
    kind: str = field(default="axis_box", init=False)

    def __post_init__(self):
        w = _as_vector(self.semiwidths)
        if np.any(np.isnan(w)) or np.any(w <= 0):
            raise InvalidBodyError("box semiwidths must be positive (inf allowed)")
        object.__setattr__(self, "semiwidths", w)
        object.__setattr__(self, "dim", w.shape[0])

    @property
    def symmetric(self) -> bool:
        return True

    def contains_many(self, points):
        return np.all(np.abs(points) <= self.semiwidths + BOUNDARY_ATOL, axis=1)

    def gauge_many(self, points):
        with np.errstate(invalid="ignore"):
            ratios = np.abs(points) / self.semiwidths
        ratios = np.nan_to_num(ratios, nan=0.0)  # 0/inf on unbounded axes
        return ratios.max(axis=1)

    def slice_at(self, x):
        if abs(x) > self.semiwidths[-1] + BOUNDARY_ATOL:
            return None
        if self.dim == 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        return AxisBox(self.semiwidths[:-1])

    def circumradius(self):
        return float(np.linalg.norm(self.semiwidths))

    def scale(self, s):
        return AxisBox(s * self.semiwidths)

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        with np.errstate(invalid="ignore"):
            m = self.semiwidths - np.abs(p)
        return float(np.nan_to_num(m, nan=math.inf).min())

    def last_axis_extent(self):
        w = self.semiwidths[-1]
        return (-w, w)

    def to_document(self):
        return {"kind": "axis_box", "dim": self.dim, "semiwidths": self.semiwidths.tolist()}


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """Closed euclidean ball; symmetric only when centered at the origin."""

    radius: float
    center: np.ndarray | None = None
    dim: int | None = None
    kind: str = field(default="ball", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidBodyError("ball radius must be finite and positive")
        if self.center is None:
            if self.dim is None:
                raise InvalidBodyError("ball needs a center or an explicit dim")
            c = np.zeros(self.dim)
        else:
            c = _as_vector(self.center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", c.shape[0])

    @property
    def symmetric(self) -> bool:
        return bool(np.all(np.abs(self.center) <= BOUNDARY_ATOL))

    def contains_many(self, points):
        d = np.linalg.norm(points - self.center, axis=1)
        return d <= self.radius + BOUNDARY_ATOL

    def gauge_many(self, points):
        self._require_symmetric()  # a centered ball of positive radius holds 0
        return np.linalg.norm(points, axis=1) / self.radius

    def slice_at(self, x):
        if self.dim == 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        dx = x - self.center[-1]
        r2 = self.radius**2 - dx**2
        if r2 <= BOUNDARY_ATOL:
            return None
        return Ball(math.sqrt(r2), self.center[:-1])

    def circumradius(self):
        return float(np.linalg.norm(self.center) + self.radius)

    def scale(self, s):
        return Ball(s * self.radius, s * self.center)

    def anchor(self):
        return self.center.copy()

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(self.radius - np.linalg.norm(p - self.center))

    def translate(self, shift):
        return Ball(self.radius, self.center + _as_vector(shift, self.dim))

    def last_axis_extent(self):
        c = self.center[-1]
        return (c - self.radius, c + self.radius)

    def to_document(self):
        return {"kind": "ball", "dim": self.dim, "radius": self.radius,
                "center": self.center.tolist()}


@dataclass(frozen=True, eq=False)
class Ellipsoid(ConvexBody):
    """Axis-aligned centered ellipsoid {x : sum (x_k / semiaxes[k])^2 <= 1}."""

    semiaxes: np.ndarray
    kind: str = field(default="ellipsoid", init=False)

    def __post_init__(self):
        a = _as_vector(self.semiaxes)
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise InvalidBodyError("ellipsoid semiaxes must be finite and positive")
        object.__setattr__(self, "semiaxes", a)
        object.__setattr__(self, "dim", a.shape[0])

    @property
    def symmetric(self) -> bool:
        return True

    def _q(self, points):
        return np.sum((points / self.semiaxes) ** 2, axis=1)

    def contains_many(self, points):
        return self._q(points) <= 1.0 + BOUNDARY_ATOL

    def gauge_many(self, points):
        return np.sqrt(self._q(points))

    def slice_at(self, x):
        if self.dim == 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        t = 1.0 - (x / self.semiaxes[-1]) ** 2
        if t <= BOUNDARY_ATOL:
            return None
        return Ellipsoid(self.semiaxes[:-1] * math.sqrt(t))

    def circumradius(self):
        return float(self.semiaxes.max())

    def scale(self, s):
        return Ellipsoid(s * self.semiaxes)

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(1.0 - math.sqrt(self._q(p[None, :])[0]))

    def last_axis_extent(self):
        a = self.semiaxes[-1]
        return (-a, a)

    def to_document(self):
        return {"kind": "ellipsoid", "dim": self.dim, "semiaxes": self.semiaxes.tolist()}


@dataclass(frozen=True, eq=False)
class HPolytope(ConvexBody):
    """Intersection of finitely many halfspaces {x : N x <= offsets}."""

    normals: np.ndarray
    offsets: np.ndarray
    interior_point: np.ndarray | None = None
    kind: str = field(default="hpolytope", init=False)

    def __post_init__(self):
        N = np.asarray(self.normals, dtype=float)
        c = np.asarray(self.offsets, dtype=float)
        if N.ndim != 2 or N.shape[0] == 0:
            raise InvalidBodyError("hpolytope needs a nonempty (m, n) normal matrix")
        if c.shape != (N.shape[0],):
            raise InvalidBodyError("offsets must match the number of halfspaces")
        if np.any(np.linalg.norm(N, axis=1) <= 0):
            raise InvalidBodyError("hpolytope normals must be nonzero")
        object.__setattr__(self, "normals", N)
        object.__setattr__(self, "offsets", c)
        object.__setattr__(self, "dim", N.shape[1])
        if self.interior_point is not None:
            p = _as_vector(self.interior_point, self.dim)
            if np.any(N @ p >= c - BOUNDARY_ATOL):
                raise InvalidBodyError("declared interior point is not strictly inside")
            object.__setattr__(self, "interior_point", p)
        elif np.all(c > 0):
            object.__setattr__(self, "interior_point", np.zeros(self.dim))
        else:
            p = _chebyshev_center(N, c)
            if p is None:
                raise InvalidBodyError("hpolytope has empty interior")
            object.__setattr__(self, "interior_point", p)

    @property
    def symmetric(self) -> bool:
        # every halfspace must have its mirror (-normal, same offset)
        for v, c in zip(self.normals, self.offsets):
            diff = np.abs(self.normals + v).sum(axis=1) + np.abs(self.offsets - c)
            if not np.any(diff <= 1e-9):
                return False
        return True

    def contains_many(self, points):
        return np.all(points @ self.normals.T <= self.offsets + BOUNDARY_ATOL, axis=1)

    def gauge_many(self, points):
        self._require_gauge()
        if np.any(self.offsets <= 0):
            raise InvalidBodyError("gauge needs the origin strictly inside")
        ratios = points @ self.normals.T
        ratios /= self.offsets  # in place: one (k, m) array at a time
        return np.maximum(ratios.max(axis=1), 0.0)

    def slice_at(self, x):
        if self.dim == 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        heads = self.normals[:, :-1]
        cs = self.offsets - self.normals[:, -1] * x
        keep = np.linalg.norm(heads, axis=1) > BOUNDARY_ATOL
        if np.any(cs[~keep] < -BOUNDARY_ATOL):
            return None
        if not np.any(keep):
            return FullSpace(self.dim - 1)
        N, c = heads[keep], cs[keep]
        p = _chebyshev_center(N, c)
        if p is None:
            return None
        return HPolytope(N, c, interior_point=p)

    def circumradius(self):
        return math.inf  # not computed for H-polytopes; use bounding_radius

    def scale(self, s):
        return HPolytope(self.normals, s * self.offsets,
                         interior_point=s * self.interior_point)

    def anchor(self):
        return self.interior_point.copy()

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(np.min((self.offsets - self.normals @ p)
                            / np.linalg.norm(self.normals, axis=1)))

    def translate(self, shift):
        t = _as_vector(shift, self.dim)
        return HPolytope(self.normals, self.offsets + self.normals @ t,
                         interior_point=self.interior_point + t)

    def last_axis_extent(self):
        return (-math.inf, math.inf)  # refined by truncation in callers

    def to_document(self):
        return {"kind": "hpolytope", "dim": self.dim,
                "normals": self.normals.tolist(), "offsets": self.offsets.tolist(),
                "interior_point": self.interior_point.tolist()}


@dataclass(frozen=True, eq=False)
class FullSpace(ConvexBody):
    """All of R^n; shows up as the degenerate slice of unbounded bodies."""

    dim: int
    kind: str = field(default="space", init=False)

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidBodyError("dimension must be nonnegative")

    @property
    def symmetric(self) -> bool:
        return True

    def contains_many(self, points):
        return np.ones(points.shape[0], dtype=bool)

    def gauge_many(self, points):
        return np.zeros(points.shape[0])

    def slice_at(self, x):
        if self.dim <= 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        return FullSpace(self.dim - 1)

    def circumradius(self):
        return math.inf

    def scale(self, s):
        return self

    def containment_margin(self, point):
        return math.inf

    def translate(self, shift):
        return self

    def last_axis_extent(self):
        return (-math.inf, math.inf)

    def to_document(self):
        return {"kind": "space", "dim": self.dim}


@dataclass(frozen=True, eq=False)
class OracleBody(ConvexBody):
    """Convex set given only by a membership predicate and a bounding radius.

    The predicate takes a (k, n) array of points and returns k booleans,
    one per row; it is never called on a single point.
    """

    dim: int
    predicate: Callable[[np.ndarray], np.ndarray]
    bounding_radius_hint: float
    symmetric_flag: bool = False
    kind: str = field(default="oracle", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.bounding_radius_hint) and self.bounding_radius_hint > 0):
            raise InvalidBodyError("oracle bodies need a finite positive bounding radius")

    @property
    def symmetric(self) -> bool:
        return self.symmetric_flag

    def contains_many(self, points):
        return np.asarray(self.predicate(points), dtype=bool)

    def gauge_many(self, points):
        """Bisection on the scale of every row at once, to relative width 1e-12:
        one predicate pass per step."""
        self._require_gauge()
        pts = np.asarray(points, dtype=float)
        nrm = np.linalg.norm(pts, axis=1)
        out = np.zeros(len(pts))
        live = nrm > 0.0
        p = pts[live]
        lo = nrm[live] / self.bounding_radius_hint  # gauge >= |p| / circumradius
        hi = np.where(lo > 0.0, lo, 1.0)
        for _ in range(200):
            outside = ~self.contains_many(p / hi[:, None])
            if not outside.any():
                break
            lo[outside] = hi[outside]
            hi[outside] *= 2.0
        else:
            raise InvalidBodyError("oracle gauge search failed to bracket")
        while np.any(hi - lo > 1e-12 * hi):
            mid = 0.5 * (lo + hi)
            inside = self.contains_many(p / mid[:, None])
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
        out[live] = hi
        return out

    def slice_at(self, x):
        raise UnsupportedBodyError("oracle bodies do not support slicing")

    def circumradius(self):
        return self.bounding_radius_hint

    def scale(self, s):
        pred = self.predicate
        return OracleBody(self.dim, lambda x, _p=pred, _s=s: _p(np.asarray(x) / _s),
                          s * self.bounding_radius_hint,
                          symmetric_flag=self.symmetric_flag)

    def containment_margin(self, point):
        return 0.0

    def last_axis_extent(self):
        r = self.bounding_radius_hint
        return (-r, r)


def _chebyshev_center(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """Strictly interior point of {x : N x <= c}, or None if the interior is empty."""
    m, n = normals.shape
    row_norms = np.linalg.norm(normals, axis=1)
    # maximize t s.t. N x + t * ||row|| <= c, t <= 1 (bounded objective)
    A_ub = np.hstack([normals, row_norms[:, None]])
    A_ub = np.vstack([A_ub, np.concatenate([np.zeros(n), [1.0]])])
    b_ub = np.concatenate([offsets, [1.0]])
    res = optimize.linprog(c=np.concatenate([np.zeros(n), [-1.0]]),
                           A_ub=A_ub, b_ub=b_ub,
                           bounds=[(None, None)] * n + [(None, None)],
                           method="highs")
    if not res.success or res.x[-1] <= 1e-10:
        return None
    return res.x[:n]


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------

def gauge(body: ConvexBody, point) -> float:
    return body.gauge(point)


def _same_body(a: ConvexBody, b: ConvexBody) -> bool:
    if a is b:
        return True
    if type(a) is not type(b) or a.dim != b.dim:
        return False
    da, db = a.__dict__, b.__dict__
    for k, va in da.items():
        if k == "predicate":
            return False
        vb = db[k]
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def minkowski_combination(a: ConvexBody, b: ConvexBody, lam: float) -> ConvexBody:
    """Exact lam*A + (1-lam)*B for the closed-form pairs.

    Supported: box/box (semiwidths combine affinely), ball/ball (radii and
    centers affinely), halfspaces with parallel same-direction normals
    (normalized offsets affinely), and identical bodies (A by convexity).
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidBodyError(f"lambda must lie in [0, 1], got {lam}")
    if a.dim != b.dim:
        raise DimensionMismatchError("combination operands must share a dimension")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    if _same_body(a, b):
        return a
    if isinstance(a, AxisBox) and isinstance(b, AxisBox):
        return AxisBox(lam * a.semiwidths + (1 - lam) * b.semiwidths)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return Ball(lam * a.radius + (1 - lam) * b.radius,
                    lam * a.center + (1 - lam) * b.center)
    if isinstance(a, Halfspace) and isinstance(b, Halfspace):
        na, nb = np.linalg.norm(a.normal), np.linalg.norm(b.normal)
        ua, ub = a.normal / na, b.normal / nb
        if np.linalg.norm(ua - ub) <= 1e-12:
            return Halfspace(ua, lam * a.offset / na + (1 - lam) * b.offset / nb)
        raise UnsupportedCombinationError("halfspace normals are not parallel")
    raise UnsupportedCombinationError(
        f"combination not closed-form for ({a.kind}, {b.kind})")


def bounding_radius(body: ConvexBody, tail_eps: float) -> float:
    """Radius R with gaussian_measure(body outside R*B_n) <= tail_eps.

    Bodies with a finite circumradius return it: bounded closed-form bodies
    their exact one, oracle bodies their validated bounding-radius hint.
    Unbounded bodies (and H-polytopes, whose boundedness is not checked)
    fall back to the chi-square tail radius, which bounds the mass of
    everything outside R*B_n regardless of the body.
    """
    if not 0.0 < tail_eps < 0.1:
        raise InvalidBodyError(f"tail_eps must lie in (0, 0.1), got {tail_eps}")
    r = body.circumradius()
    if math.isfinite(r):
        return r
    # P(chi2_n > R^2) = tail_eps
    return math.sqrt(2.0 * special.gammaincinv(body.dim / 2.0, 1.0 - tail_eps))


# ---------------------------------------------------------------------------
# Body description documents (structured text interchange with the CLI)
# ---------------------------------------------------------------------------

_DOCUMENT_KINDS = ("halfspace", "axis_box", "ball", "ellipsoid", "hpolytope", "space")


def body_from_document(doc: dict) -> ConvexBody:
    """Build a body from its document form; float fields parse bit-exactly."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidBodyError("body document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in _DOCUMENT_KINDS:
        raise InvalidBodyError(f"unknown body kind {kind!r}")
    try:
        if kind == "halfspace":
            body = Halfspace(doc["normal"], doc["offset"])
        elif kind == "axis_box":
            body = AxisBox(doc["semiwidths"])
        elif kind == "ball":
            body = Ball(doc["radius"], doc.get("center"),
                        dim=doc.get("dim") if doc.get("center") is None else None)
        elif kind == "ellipsoid":
            body = Ellipsoid(doc["semiaxes"])
        elif kind == "hpolytope":
            body = HPolytope(doc["normals"], doc["offsets"], doc.get("interior_point"))
        else:
            body = FullSpace(doc["dim"])
    except KeyError as e:
        raise InvalidBodyError(f"body document missing field {e.args[0]!r}") from e
    except TypeError as e:
        raise InvalidBodyError(f"{kind} body document has a field of the wrong type: {e}") from e
    if "dim" in doc and doc["dim"] != body.dim:
        raise DimensionMismatchError(
            f"declared dim {doc['dim']} does not match parameters ({body.dim})")
    return body


def body_to_document(body: ConvexBody) -> dict:
    return body.to_document()
