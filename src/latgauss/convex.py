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
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBodyError,
    UnsupportedBodyError,
    UnsupportedCombinationError,
)

# Closed-set membership tolerance (absolute).
BOUNDARY_ATOL = 1e-12
# Gaussian mass a truncation radius may leave outside (see tail_radius).
TAIL_EPS = 1e-9
# An H-polytope (or slice) has an interior when its Chebyshev radius, half
# the width of a 1-d slice, exceeds this.
MIN_CHEBYSHEV_RADIUS = 1e-10
# An H-polytope is unbounded when a facet of its dual hull passes within this
# fraction of the largest dual point's norm of the origin: a vertex 1e9 times
# farther from the interior point than the nearest facet counts as at infinity.
_HULL_MARGIN = 1e-9
# Two facets of a polygon are parallel when the cross product of their unit
# normals is at most this.
_PARALLEL_SIN = 1e-12
# The present mask of every one-row as_family: shared, so read-only.
_ONE_ROW = np.broadcast_to(True, 1)


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidBodyError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def _dimension(n, field: str) -> int:
    """A body's dimension n, read from ``field``: an integer >= 1, never a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidBodyError(f"dimension must be an integer >= 1, got {n!r} from {field}")
    return int(n)


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

        Only defined for symmetric bodies with 0 in the interior, and every
        implementation raises InvalidBodyError on any other body; 0 is
        returned along directions where the body is unbounded.
        """
        raise NotImplementedError

    def _require_symmetric(self) -> None:
        if not self.symmetric:
            raise InvalidBodyError(f"gauge needs a centrally symmetric body, got {self.kind}")

    def sections(self, origins, frame) -> "SliceFamily":
        """The family of sections {y in R^m : origin_i + y @ frame in body}, for
        a (k, n) array of origins or one point (0 for the origin) and an (m, n)
        frame of orthonormal rows; UnsupportedBodyError where a kind has none."""
        origins = np.asarray(origins, dtype=float)
        return self._sections(np.broadcast_to(origins, (1, self.dim)) if origins.ndim < 2
                              else origins, np.asarray(frame, dtype=float))

    def _sections(self, origins: np.ndarray, frame: np.ndarray) -> "SliceFamily":
        raise UnsupportedBodyError(f"{self.kind} bodies do not support slicing")

    def _inscribed_form(self) -> tuple[np.ndarray, int] | None:
        """Semiaxes r and factor c2 of an axis ellipsoid E = {x : sum (x_k / r_k)^2
        <= 1}, free along axes of infinite r_k, with E inside the body inside
        sqrt(c2) * E, so that g_E / sqrt(c2) <= gauge <= g_E; None where a kind
        has none. The exhaustive balancing scan screens its sums with it."""
        return None

    def slices(self, xs) -> "SliceFamily":
        """Cross-sections {y : (y, x) in body} at every last coordinate in xs:
        the sections at origins x * e_n over the frame e_1..e_{n-1}."""
        if self.dim <= 1:
            raise InvalidBodyError("cannot slice a 1-d body")
        axes = np.eye(self.dim)
        return self.sections(np.outer(np.asarray(xs, dtype=float), axes[-1]), axes[:-1])

    # Every class binds slice_at itself (slice_at = ConvexBody.slice_at), so
    # that a profiler can wrap it class by class.
    def slice_at(self, x: float) -> "SliceFamily":
        """The cross-section at last coordinate x, as the one-row family ``slices([x])``."""
        return self.slices([x])

    def circumradius(self) -> float:
        """Radius of the smallest origin-centered ball containing the body, inf
        exactly when it is unbounded, for every kind and dimension (an
        OracleBody is bounded by its hint): the one boundedness test."""
        raise NotImplementedError

    def scale(self, s: float) -> "ConvexBody":
        """Dilate about the origin by s > 0."""
        raise NotImplementedError

    def as_family(self, s: float = 1.0) -> "SliceFamily":
        """The dilate s * body as a one-row SliceFamily of its own kind, for
        ``gaussian.measure_slices``; kinds with no closed form raise here."""
        raise UnsupportedBodyError(f"no closed form for a {self.dim}-d {self.kind}")

    def anchor(self) -> np.ndarray:
        """A point of the body near its Gaussian mass center; search seed."""
        return np.zeros(self.dim)

    def containment_margin(self, point) -> float:
        """How deep a point sits inside the body (<= 0 on/outside the boundary)."""
        raise NotImplementedError

    def last_axis_extent(self) -> tuple[float, float]:
        """Extent of the body along the last coordinate (may be infinite)."""
        raise NotImplementedError


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
        object.__setattr__(self, "dim", _dimension(v.shape[0], "normal"))

    @property
    def symmetric(self) -> bool:
        return False

    def contains_many(self, points):
        return points @ self.normal <= self.offset + BOUNDARY_ATOL

    def gauge_many(self, points):
        self._require_symmetric()  # always raises: halfspaces are never symmetric

    def _sections(self, origins, frame):
        head = frame @ self.normal
        cs = self.offset - origins @ self.normal
        if np.linalg.norm(head) <= BOUNDARY_ATOL:
            return SpaceSlices(len(frame), cs >= -BOUNDARY_ATOL)
        return HalfspaceSlices(len(frame), np.ones(len(cs), dtype=bool), head, cs)

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return math.inf

    def scale(self, s):
        return Halfspace(self.normal, s * self.offset)

    def as_family(self, s=1.0):
        return HalfspaceSlices(self.dim, _ONE_ROW, self.normal, np.array([s * self.offset]))

    def anchor(self):
        if self.offset >= 0:
            return np.zeros(self.dim)
        return (self.offset / float(self.normal @ self.normal)) * self.normal

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float((self.offset - p @ self.normal) / np.linalg.norm(self.normal))

    def last_axis_extent(self):
        head, vn = self.normal[:-1], self.normal[-1]
        if np.linalg.norm(head) <= BOUNDARY_ATOL:
            # normal along the last axis: one-sided extent
            bound = self.offset / vn
            return (-math.inf, bound) if vn > 0 else (bound, math.inf)
        return (-math.inf, math.inf)


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
        object.__setattr__(self, "dim", _dimension(w.shape[0], "semiwidths"))

    @property
    def symmetric(self) -> bool:
        return True

    def contains_many(self, points):
        return np.all(np.abs(points) <= self.semiwidths + BOUNDARY_ATOL, axis=1)

    def gauge_many(self, points):
        # one pass per axis (numpy reduces slowly over a short last axis);
        # unbounded axes contribute 0, and fmax passes over a NaN coordinate
        g = np.zeros(len(points))
        for col, w in zip(points.T, self.semiwidths):
            if w < math.inf:
                np.fmax(g, np.abs(col) / w, out=g)
        return g

    def _sections(self, origins, frame):
        # a coordinate frame (orthonormal rows of one nonzero are +-e_j) through the
        # centre keeps the box, infinite widths too; any other cuts its finite facets
        rows, cols = np.nonzero(frame)
        if len(rows) == len(frame) and not np.any(origins[:, cols]):
            rest = np.setdiff1d(np.arange(self.dim), cols)
            present = np.all(np.abs(origins[:, rest]) <= self.semiwidths[rest] + BOUNDARY_ATOL,
                             axis=1)
            return BoxSlices(len(cols), present, self.semiwidths[cols])
        finite = np.flatnonzero(self.semiwidths < math.inf)
        facets, w = np.eye(self.dim)[finite], self.semiwidths[finite]
        return _polytope_sections(np.vstack([facets, -facets]), np.concatenate([w, w]),
                                  origins, frame)

    def _inscribed_form(self):
        # the ellipsoid through the facet centres, a cylinder over infinite axes
        return self.semiwidths, int(np.sum(self.semiwidths < math.inf))

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return float(np.linalg.norm(self.semiwidths))

    def scale(self, s):
        return AxisBox(s * self.semiwidths)

    def as_family(self, s=1.0):
        return BoxSlices(self.dim, _ONE_ROW, s * self.semiwidths)

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        with np.errstate(invalid="ignore"):
            m = self.semiwidths - np.abs(p)
        return float(np.nan_to_num(m, nan=math.inf).min())

    def last_axis_extent(self):
        w = self.semiwidths[-1]
        return (-w, w)


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
            c = np.zeros(_dimension(self.dim, "dim"))
        else:
            c = _as_vector(self.center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", _dimension(c.shape[0], "center"))

    @cached_property
    def symmetric(self) -> bool:
        return bool(np.all(np.abs(self.center) <= BOUNDARY_ATOL))

    def contains_many(self, points):
        d = np.linalg.norm(points - self.center, axis=1)
        return d <= self.radius + BOUNDARY_ATOL

    def gauge_many(self, points):
        self._require_symmetric()  # a centered ball of positive radius holds 0
        q = np.zeros(len(points))
        for col in points.T:  # one pass per axis
            q += col * col
        return np.sqrt(q) / self.radius

    def _sections(self, origins, frame):
        d = self.center - origins
        center = d @ frame.T
        r2 = np.float_power(self.radius, 2) - np.sum(np.float_power(d - center @ frame, 2), axis=1)
        present = r2 > BOUNDARY_ATOL
        radii = np.sqrt(r2, out=np.zeros_like(r2), where=present)
        return BallSlices(len(frame), present, center, radii)

    def _inscribed_form(self):
        return (np.full(self.dim, self.radius), 1) if self.symmetric else None

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return float(np.linalg.norm(self.center) + self.radius)

    def scale(self, s):
        return Ball(s * self.radius, s * self.center)

    def as_family(self, s=1.0):
        return BallSlices(self.dim, _ONE_ROW, s * self.center[None], np.array([s * self.radius]))

    def anchor(self):
        return self.center.copy()

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(self.radius - np.linalg.norm(p - self.center))

    def last_axis_extent(self):
        c = self.center[-1]
        return (c - self.radius, c + self.radius)


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
        object.__setattr__(self, "dim", _dimension(a.shape[0], "semiaxes"))

    @property
    def symmetric(self) -> bool:
        return True

    def contains_many(self, points):
        return _ellipsoid_holds(points, self.semiaxes)

    def gauge_many(self, points):
        return np.sqrt(_ellipsoid_q(points, self.semiaxes))

    def _sections(self, origins, frame):
        # centred cuts only (frame A origin = 0, A the body's form); off a
        # coordinate frame, the semiaxes are the section's principal ones
        form = frame / self.semiaxes
        if np.any(origins @ (form / self.semiaxes).T):
            raise UnsupportedBodyError("no closed form for an ellipsoid section off its centre")
        t = 1.0 - np.sum(np.float_power(origins / self.semiaxes, 2), axis=1)
        present = t > BOUNDARY_ATOL
        scale = np.sqrt(t, out=np.zeros_like(t), where=present)
        rows, cols = np.nonzero(frame)
        axes = (self.semiaxes[cols] if len(rows) == len(frame)
                else 1.0 / np.sqrt(np.linalg.eigvalsh(form @ form.T)))
        return EllipsoidSlices(len(frame), present, axes * scale[:, None])

    def _inscribed_form(self):
        return self.semiaxes, 1

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return float(self.semiaxes.max())

    def scale(self, s):
        return Ellipsoid(s * self.semiaxes)

    def as_family(self, s=1.0):
        return EllipsoidSlices(self.dim, _ONE_ROW, s * self.semiaxes[None, :])

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(1.0 - math.sqrt(_ellipsoid_q(p[None, :], self.semiaxes)[0]))

    def last_axis_extent(self):
        a = self.semiaxes[-1]
        return (-a, a)


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
        if not (np.all(np.isfinite(N)) and np.all(np.isfinite(c))):
            raise InvalidBodyError("hpolytope normals and offsets must be finite")
        if np.any(np.linalg.norm(N, axis=1) <= 0):
            raise InvalidBodyError("hpolytope normals must be nonzero")
        object.__setattr__(self, "normals", N)
        object.__setattr__(self, "offsets", c)
        object.__setattr__(self, "dim", _dimension(N.shape[1], "normals"))
        if self.interior_point is not None:
            p = _as_vector(self.interior_point, self.dim)
            if not np.all(np.isfinite(p)) or np.any(N @ p >= c - BOUNDARY_ATOL):
                raise InvalidBodyError("declared interior point is not finite and strictly inside")
            object.__setattr__(self, "interior_point", p)
        elif np.all(c > 0):
            object.__setattr__(self, "interior_point", np.zeros(self.dim))
        else:
            p = _chebyshev_center(N, c)
            if p is None:
                raise InvalidBodyError("hpolytope has empty interior")
            object.__setattr__(self, "interior_point", p)

    @cached_property
    def symmetric(self) -> bool:
        # O(m^2): every halfspace must have its mirror (-normal, same offset),
        # tested for 64 halfspaces at a time against all m
        for start in range(0, len(self.normals), 64):
            rows = slice(start, start + 64)
            diff = (np.add.reduce(np.abs(self.normals[rows, None, :] + self.normals), axis=2)
                    + np.abs(self.offsets[rows, None] - self.offsets))
            if not np.all(np.any(diff <= 1e-9, axis=1)):
                return False
        return True

    def slabs(self, atol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(units, widths) of the distinct slabs {|u . x| <= h} whose
        intersection is this body, offsets moved out by ``atol``, in a
        canonical order.

        Each facet's unit normal is signed so that its entry of largest size
        is positive, so a facet, its exact mirror and its duplicates give one
        row, whatever their order; of parallel slabs the narrowest is kept,
        as their intersection. The rows come sorted. Raises
        UnsupportedBodyError unless every facet has its mirror and every
        offset is positive.
        """
        if not (self.symmetric and np.all(self.offsets > 0.0)):
            raise UnsupportedBodyError(f"no slabs make up a {self.dim}-d {self.kind} that is "
                                       f"not symmetric about an inner origin")
        norms = np.linalg.norm(self.normals, axis=1)
        units = self.normals / norms[:, None]
        units *= np.sign(units[np.arange(len(units)), np.argmax(np.abs(units), axis=1)])[:, None]
        order = np.lexsort(units.T[::-1])
        units, widths = units[order], ((self.offsets + atol) / norms)[order]
        first = np.flatnonzero(np.concatenate([[True], np.any(units[1:] != units[:-1], axis=1)]))
        return units[first], np.minimum.reduceat(widths, first)

    # Both kernels work facet-major, on an (m, k) array reduced across its m rows.
    def contains_many(self, points):
        return _facets_hold(self.normals @ points.T, self.offsets)

    def gauge_many(self, points):
        self._require_symmetric()
        if np.any(self.offsets <= 0):
            raise InvalidBodyError("gauge needs the origin strictly inside")
        # one row goes in as two: BLAS's one-column (matrix-vector) path can
        # differ in the last bit, so a row gets the same bits in any call
        k = len(points)
        ratios = self.normals @ (np.repeat(points, 2, axis=0) if k == 1 else points).T
        ratios /= self.offsets[:, None]  # in place: one (m, k) array at a time
        return np.maximum(np.maximum.reduce(ratios, axis=0)[:k], 0.0)

    def _sections(self, origins, frame):
        return _polytope_sections(self.normals, self.offsets, origins, frame)

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return self._circumradius

    @cached_property
    def _circumradius(self) -> float:
        """The farthest vertex, offsets moved out by BOUNDARY_ATOL as membership
        moves them; inf when the body is unbounded, or so long that its dual
        hull is nearly flat (past _HULL_MARGIN, or rejected by Qhull). About
        the interior point p, facet j is {y : u_j . y <= g_j}, with u_j its
        unit normal and g_j > 0, so the body is the polar of the hull of the
        dual points q_j = u_j / g_j: bounded when p lies strictly inside that
        hull, with the vertex p - a / b for each hull facet a . q + b = 0.
        Qhull gives the hull for n >= 2 (Barber, Dobkin & Huhdanpaa 1996), with
        no LP; an interval's is the span of its dual points."""
        q = self.normals / (self.offsets + BOUNDARY_ATOL
                            - self.normals @ self.interior_point)[:, None]
        if self.dim == 1:
            equations = np.array([[1.0, -q.max()], [-1.0, q.min()]])
        elif np.linalg.matrix_rank(q[1:] - q[0]) < self.dim:
            return math.inf  # the dual points lie in a hyperplane
        else:
            from scipy import spatial  # deferred: its import takes longer than most commands

            try:
                equations = spatial.ConvexHull(q).equations
            except spatial.QhullError:
                return math.inf
        a, b = equations[:, :-1], equations[:, -1]
        if np.any(b >= -_HULL_MARGIN * np.linalg.norm(q, axis=1).max()):
            return math.inf
        return float(np.linalg.norm(self.interior_point - a / b[:, None], axis=1).max())

    def scale(self, s):
        return HPolytope(self.normals, s * self.offsets,
                         interior_point=s * self.interior_point)

    def as_family(self, s=1.0):
        return PolytopeSlices(self.dim, _ONE_ROW, self.normals, s * self.offsets[None, :])

    def anchor(self):
        return self.interior_point.copy()

    def containment_margin(self, point):
        p = _as_vector(point, self.dim)
        return float(np.min((self.offsets - self.normals @ p)
                            / np.linalg.norm(self.normals, axis=1)))

    def last_axis_extent(self):
        """A polygon's span from its lowest to its highest vertex, off its
        edges: infinite on a side where an edge runs off to infinity or no
        vertex lies (a strip). (-inf, inf) in higher dimension; callers truncate."""
        if self.dim != 2:
            return (-math.inf, math.inf)
        unit, start, stop, live, _, _, vertices = self._polygon
        rise = unit[:, 0]  # the last coordinate grows with t along an edge where this is > 0
        away = np.concatenate([rise[live & np.isinf(stop)], -rise[live & np.isinf(start)]])
        if not vertices.size:
            return (-math.inf, math.inf)
        return (-math.inf if np.any(away < 0.0) else float(vertices[:, 1].min()),
                math.inf if np.any(away > 0.0) else float(vertices[:, 1].max()))

    @cached_property
    def _polygon(self) -> tuple:
        """A 2-d body's ``polygon_edges`` row at its own offsets, built once, as
        (unit, start, stop, live, stopper, j, vertices): j are the live edges of
        finite stop, each ending at its vertex d_j * u_j + stop_j * w_j."""
        unit, (d,), (start,), (stop,), (live,), (stopper,) = polygon_edges(
            self.normals, self.offsets[None, :])
        j = np.flatnonzero(live & np.isfinite(stop))
        w = np.stack([-unit[j, 1], unit[j, 0]], axis=1)
        return unit, start, stop, live, stopper, j, d[j, None] * unit[j] + stop[j, None] * w


@dataclass(frozen=True, eq=False)
class FullSpace(ConvexBody):
    """All of R^n, the document kind ``space``. The degenerate slices of
    unbounded bodies are ``SpaceSlices`` rows, not instances of this body."""

    dim: int
    kind: str = field(default="space", init=False)

    def __post_init__(self):
        _dimension(self.dim, "dim")

    @property
    def symmetric(self) -> bool:
        return True

    def contains_many(self, points):
        return np.ones(points.shape[0], dtype=bool)

    def gauge_many(self, points):
        return np.zeros(points.shape[0])

    def _sections(self, origins, frame):
        return SpaceSlices(len(frame), np.ones(len(origins), dtype=bool))

    slice_at = ConvexBody.slice_at

    def circumradius(self):
        return math.inf

    def scale(self, s):
        return self

    def as_family(self, s=1.0):
        return SpaceSlices(self.dim, _ONE_ROW)

    def containment_margin(self, point):
        return math.inf

    def last_axis_extent(self):
        return (-math.inf, math.inf)


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
        _dimension(self.dim, "dim")
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
        self._require_symmetric()
        if not self.contains(np.zeros(self.dim)):
            raise InvalidBodyError("gauge needs the origin in the body")
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

    slice_at = ConvexBody.slice_at

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


# ---------------------------------------------------------------------------
# Slice families: the cross-sections of one body over a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SliceFamily:
    """The sections of one body, one per origin (``ConvexBody.sections``).

    ``present[i]`` is False where section i is empty or a null set, except
    that a present H-polytope section of dimension >= 2 may be empty too (it
    measures 0). Each kind holds its sections' parameters as arrays, one row
    per section where they vary (a ball's centres among them), read only
    where ``present``; no section is ever built as a body. A body's
    ``as_family`` is a one-row family. The kinds with no closed form for
    every row, ellipsoids and H-polytopes, give a ``scorer``: for one
    (k, dim) draw, the membership of its rows in section i.
    """

    dim: int
    present: np.ndarray


@dataclass(frozen=True, eq=False)
class SpaceSlices(SliceFamily):
    kind = "space"


@dataclass(frozen=True, eq=False)
class BoxSlices(SliceFamily):
    kind = "axis_box"
    semiwidths: np.ndarray  # the same box at every present slice


@dataclass(frozen=True, eq=False)
class HalfspaceSlices(SliceFamily):
    kind = "halfspace"
    normal: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class BallSlices(SliceFamily):
    kind = "ball"
    center: np.ndarray  # one row per slice
    radii: np.ndarray


@dataclass(frozen=True, eq=False)
class EllipsoidSlices(SliceFamily):
    kind = "ellipsoid"
    semiaxes: np.ndarray  # one row per slice

    def scorer(self, draw):
        return lambda i: _ellipsoid_holds(draw, self.semiaxes[i])


@dataclass(frozen=True, eq=False)
class PolytopeSlices(SliceFamily):
    kind = "hpolytope"
    normals: np.ndarray  # shared by every slice
    offsets: np.ndarray  # one row per slice

    def scorer(self, draw):
        products = self.normals @ draw.T  # only the offsets move from slice to slice
        # a slice whose offset lies below all of one facet's products holds no
        # point, as an empty slice past the body's extent mostly does
        lows = products.min(axis=1)
        none = np.zeros(len(draw), dtype=bool)
        return lambda i: (none if not self.present[i]
                          or np.any(self.offsets[i] + BOUNDARY_ATOL < lows)
                          else _facets_hold(products, self.offsets[i]))


def _polytope_sections(normals: np.ndarray, offsets: np.ndarray, origins: np.ndarray,
                       frame: np.ndarray) -> SliceFamily:
    """Sections of {x : N x <= c}, with no LP: each keeps the facets whose head
    ``N @ frame.T`` is longer than BOUNDARY_ATOL, offsets one row of
    ``c - origins @ N.T``, and is absent where a head-less facet excludes its
    origin. A 1-d section is present when its interval's half width exceeds
    MIN_CHEBYSHEV_RADIUS; a higher one may be present yet empty (measure 0)."""
    heads = normals @ frame.T
    cs = offsets - origins @ normals.T
    keep = np.linalg.norm(heads, axis=1) > BOUNDARY_ATOL
    present = ~np.any(cs[:, ~keep] < -BOUNDARY_ATOL, axis=1)
    if not np.any(keep):
        return SpaceSlices(len(frame), present)
    N, C = heads[keep], cs[:, keep]
    if len(frame) == 1:
        ratios = C / N[:, 0]
        lo = np.max(ratios[:, N[:, 0] < 0.0], axis=1, initial=-math.inf)
        hi = np.min(ratios[:, N[:, 0] > 0.0], axis=1, initial=math.inf)
        present &= (hi - lo) / 2.0 > MIN_CHEBYSHEV_RADIUS
    return PolytopeSlices(len(frame), present, N, C)


def _ellipsoid_q(points: np.ndarray, semiaxes: np.ndarray) -> np.ndarray:
    """sum_k (x_k / semiaxes[k])^2 of every row, one in-place pass per axis
    (numpy reduces slowly over a short last axis)."""
    q = points[:, 0] / semiaxes[0]
    q *= q
    for col, a in zip(points.T[1:], semiaxes[1:]):
        t = col / a
        t *= t
        q += t
    return q


def _ellipsoid_holds(points: np.ndarray, semiaxes: np.ndarray) -> np.ndarray:
    return _ellipsoid_q(points, semiaxes) <= 1.0 + BOUNDARY_ATOL


def _facets_hold(products: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Columns of (m, k) facet products N @ points.T within every offset.

    Facet-major: numpy reduces slowly over a short last axis of m facets.
    """
    inside = products <= (offsets + BOUNDARY_ATOL)[:, None]
    return np.logical_and.reduce(inside, axis=0)


def _chebyshev_center(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """Strictly interior point of {x : N x <= c}, or None if the interior is empty."""
    from scipy import optimize  # deferred: its import takes longer than most commands

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
    if not res.success or res.x[-1] <= MIN_CHEBYSHEV_RADIUS:
        return None
    return res.x[:n]


def polygon_edges(normals: np.ndarray, offsets: np.ndarray):
    """Edges of the polygons {x in R^2 : N x <= c}, one polygon per row of
    the (rows, m) array of offsets, in one array pass with no LP.

    Facet j's line is the points d_j * u_j + t * w_j, with u_j its unit
    normal, d_j = c_j / |n_j| its signed distance from the origin and
    w_j = (-u_j1, u_j0), so that t runs counterclockwise around the polygon.
    The other facets clip the line to its edge, the t-interval
    [start, stop]; a facet is left out of its own clip. A parallel facet
    clips nothing, or the whole line: the same-direction one with the
    smaller distance (the lower index on a tie) keeps its edge, and an
    opposite one empties the line when the strip between them is empty.
    Returns (unit normals, d, start, stop, live, stopper): ``live`` marks
    the edges of positive length, and ``stopper`` the facet that ends each
    edge at ``stop``. Ends may be infinite on an unbounded polygon.
    """
    unit = normals / np.linalg.norm(normals, axis=1)[:, None]
    delta = unit[None, :, :] - unit[:, None, :]  # [j, k] = u_k - u_j, small when near parallel
    sin = unit[:, None, 0] * delta[..., 1] - unit[:, None, 1] * delta[..., 0]  # w_j . u_k
    vers = (delta[..., 0] ** 2 + delta[..., 1] ** 2) / 2.0  # 1 - u_j . u_k, without cancellation
    parallel = np.abs(sin) <= _PARALLEL_SIN
    np.fill_diagonal(parallel, True)
    d = offsets / np.linalg.norm(normals, axis=1)
    dj, dk = d[:, :, None], d[:, None, :]
    # facet k holds the point at t of line j iff t * sin[j, k] <= d_k - d_j * (u_j . u_k)
    bound = ((dk - dj) + dj * vers) / np.where(parallel, 1.0, sin)
    ahead = np.where(parallel | (sin < 0.0), math.inf, bound)
    stopper = np.argmin(ahead, axis=2)
    stop = np.take_along_axis(ahead, stopper[:, :, None], axis=2)[:, :, 0]
    start = np.max(np.where(parallel | (sin > 0.0), -math.inf, bound), axis=2)
    index = np.arange(len(normals))
    tie = (dk < dj) | ((dk == dj) & (index[None, :] < index[:, None]))
    shadowed = parallel & np.where(vers < 1.0, tie & (index[None, :] != index[:, None]),
                                   (dk - dj) + dj * vers < 0.0)
    live = (start < stop) & ~np.any(shadowed, axis=2)
    return unit, d, start, stop, live, stopper


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------

def minkowski_combination(a: ConvexBody, b: ConvexBody, lam: float) -> ConvexBody:
    """Exact lam*A + (1-lam)*B for the closed-form pairs.

    Supported: box/box (semiwidths combine affinely), ball/ball (radii and
    centers affinely), halfspaces with parallel same-direction normals
    (normalized offsets affinely), and one body passed twice (A by convexity).
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidBodyError(f"lambda must lie in [0, 1], got {lam}")
    if a.dim != b.dim:
        raise DimensionMismatchError("combination operands must share a dimension")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    if a is b:
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


def tail_radius(dim: int) -> float:
    """Radius R outside which the standard Gaussian of R^dim has mass TAIL_EPS,
    P(chi2_dim > R^2) = TAIL_EPS: it bounds the mass of any body outside R*B_n."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    return math.sqrt(2.0 * special.gammaincinv(dim / 2.0, 1.0 - TAIL_EPS))


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
    if "dim" in doc:
        _dimension(doc["dim"], f"the {kind} body document's dim")
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
