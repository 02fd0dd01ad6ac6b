"""Lattice reduction, enumeration, minima, CVP, covering brackets."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import latgauss as lg
import latgauss.lattice
from latgauss.errors import InvalidLatticeError, ResolutionTooCoarseError
from latgauss.lattice import _gs, _spiral_keys
from latgauss.minkowski import random_theta_lattice


def _det(lattice):
    return abs(float(np.linalg.det(lattice.basis)))


def _brute_points(basis, offset, center, radius, rng=40):
    """Brute-force double loop oracle for 2-d coset enumeration."""
    pts = []
    for i in range(-rng, rng + 1):
        for j in range(-rng, rng + 1):
            p = i * basis[0] + j * basis[1] + offset
            if np.linalg.norm(p - center) <= radius + 1e-9:
                pts.append(((i, j), p))
    return pts


def _random_lattice_2d(rng):
    while True:
        b = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(b)) > 0.3:
            return lg.Lattice(b)


class TestLatticeType:
    def test_rejects_dependent_basis(self):
        with pytest.raises(InvalidLatticeError):
            lg.Lattice([[1.0, 2.0], [2.0, 4.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidLatticeError):
            lg.Lattice([[1.0, 0.0]])

    def test_coset_offset_dim(self):
        with pytest.raises(Exception):
            lg.Coset(lg.Lattice(np.eye(2)), [1.0, 2.0, 3.0])


class TestFrame:
    def test_frame_factors_the_reduced_basis(self):
        lat = lg.Lattice([[1.0, 0.0, 0.0], [4.0, 1.0, 0.0], [3.0, 2.0, 1.0]])
        b, t, q, r = lat.frame
        assert lat.frame is lat.frame  # reduced once, then cached
        assert np.allclose(b, lg.lll_reduce(lat.basis)[0])
        assert np.allclose(t @ lat.basis, b)
        assert np.allclose(q @ r, b.T)
        assert np.allclose(r, np.triu(r)) and np.all(np.diag(r) > 0)

    def test_basis_is_a_private_copy(self):
        src = np.eye(2)
        lat = lg.Lattice(src)
        src[0, 0] = 5.0
        assert lat.basis[0, 0] == 1.0

    def test_basis_and_frame_are_read_only(self):
        lat = lg.Lattice([[2.0, 1.0], [1.0, 3.0]])
        for a in (lat.basis, *lat.frame):
            with pytest.raises(ValueError):
                a[0, 0] = 7


class TestGramSchmidt:
    def test_identity(self):
        bstar, mu = _gs(np.eye(3))
        assert np.allclose(bstar, np.eye(3))
        assert np.allclose(mu, np.eye(3))

    def test_hand_example(self):
        bstar, mu = _gs(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(bstar, [[1.0, 0.0], [0.0, 1.0]])
        assert mu[1, 0] == pytest.approx(1.0)

    def test_determinant_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lat = _random_lattice_2d(rng)
            bstar, _ = _gs(lat.basis)
            prod = float(np.prod(np.linalg.norm(bstar, axis=1)))
            assert prod == pytest.approx(_det(lat), rel=1e-9)


class TestLLL:
    def test_identity_unchanged(self):
        red, _ = lg.lll_reduce(lg.Lattice(np.eye(4)).basis)
        assert np.allclose(red, np.eye(4))

    def test_hand_example_minimal(self):
        red, _ = lg.lll_reduce(lg.Lattice([[1.0, 0.0], [1.0, 1.0]]).basis)
        norms = np.sort(np.linalg.norm(red, axis=1))
        # oracle: exhaustive search over unimodular transforms with entries
        # in [-3, 3] confirms no basis of Z^2 beats two unit vectors
        best = math.inf
        base = np.array([[1.0, 0.0], [1.0, 1.0]])
        for entries in itertools.product(range(-3, 4), repeat=4):
            u = np.array(entries).reshape(2, 2)
            if abs(round(np.linalg.det(u))) != 1:
                continue
            cand = np.sort(np.linalg.norm(u @ base, axis=1))
            best = min(best, float(cand[-1]))
        assert norms[-1] == pytest.approx(best, abs=1e-12)
        assert np.allclose(norms, [1.0, 1.0])

    def test_transform_unimodular_and_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lat = _random_lattice_2d(rng)
            red, t = lg.lll_reduce(lat.basis)
            assert t.dtype.kind == "i"
            assert abs(round(float(np.linalg.det(t)))) == 1
            assert np.allclose(t @ lat.basis, red, atol=1e-12)

    def test_determinant_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lat = _random_lattice_2d(rng)
            red, _ = lg.lll_reduce(lat.basis)
            assert _det(lg.Lattice(red)) == pytest.approx(_det(lat), rel=1e-9)


def _lll_full_recompute(basis):
    """LLL that redoes the whole Gram-Schmidt after every size reduction and
    swap: the reference the row-incremental ``lll_reduce`` must match bitwise.
    Returns (reduced, T, number of exact .5 coefficients rounded)."""
    def gs(b):
        bstar = b.copy()
        mu = np.eye(len(b))
        for i in range(len(b)):
            for j in range(i):
                mu[i, j] = (b[i] @ bstar[j]) / (bstar[j] @ bstar[j])
                bstar[i] -= mu[i, j] * bstar[j]
        return bstar, mu

    b = np.array(basis, dtype=float)
    n = b.shape[0]
    t = np.eye(n, dtype=np.int64)
    bstar, mu = gs(b)
    ties = 0
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            ties += abs(mu[k, j]) % 1.0 == 0.5
            q = round(mu[k, j])
            if q != 0:
                b[k] -= q * b[j]
                t[k] -= q * t[j]
                bstar, mu = gs(b)
        if bstar[k] @ bstar[k] >= (0.99 - mu[k, k - 1] ** 2) * (bstar[k - 1] @ bstar[k - 1]):
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            t[[k - 1, k]] = t[[k, k - 1]]
            bstar, mu = gs(b)
            k = max(k - 1, 1)
    return b, t, ties


def _reference_bases(n, count):
    """Seeded n-d bases of four kinds: Gaussian, integer entries in [-9, 9]
    (whose Gram-Schmidt coefficients hit exact .5 ties), theta-scaled, and
    unimodular scrambles of Gaussian bases."""
    rng = np.random.default_rng(100 + n)
    for i in range(count):
        yield rng.normal(size=(n, n))
        while True:
            m = rng.integers(-9, 10, size=(n, n)).astype(float)
            if abs(np.linalg.det(m)) > 0.5:
                yield m
                break
        yield random_theta_lattice(n, seed=1000 * n + i).basis
        u = np.eye(n, dtype=np.int64)
        for _ in range(2 * n if n > 1 else 0):
            a, c = rng.choice(n, 2, replace=False)
            u[a] += rng.integers(-2, 3) * u[c]
        yield u @ rng.normal(size=(n, n))


@pytest.mark.parametrize("n", range(1, 8))
def test_lll_matches_the_full_recompute_bitwise(n):
    ties = 0
    for basis in _reference_bases(n, 25):
        red, t = lg.lll_reduce(basis)
        want_red, want_t, basis_ties = _lll_full_recompute(basis)
        assert np.array_equal(t, want_t)
        assert red.tobytes() == want_red.tobytes()
        ties += basis_ties
    assert n == 1 or ties > 0  # the integer bases reach exact .5 ties


class TestSuccessiveMinima:
    def test_z2(self):
        lam, wit = lg.successive_minima(lg.Lattice(np.eye(2)), lg.Ball(1.0, dim=2))
        assert np.allclose(lam, [1.0, 1.0])
        assert abs(np.linalg.det(wit)) == pytest.approx(1.0)

    def test_diagonal(self):
        lam, _ = lg.successive_minima(lg.Lattice(np.diag([1.0, 3.0])), lg.Ball(1.0, dim=2))
        assert np.allclose(lam, [1.0, 3.0])

    def test_gauge_scaling(self):
        lam, _ = lg.successive_minima(lg.Lattice(np.eye(2)), lg.Ball(2.0, dim=2))
        assert np.allclose(lam, [0.5, 0.5])

    def test_sorted_and_witness_gauges(self):
        rng = np.random.default_rng(4)
        ball = lg.Ball(1.0, dim=2)
        for _ in range(20):
            lat = _random_lattice_2d(rng)
            lam, wit = lg.successive_minima(lat, ball)
            assert lam[0] <= lam[1] + 1e-12
            for k in range(2):
                assert ball.gauge(wit[k]) == pytest.approx(lam[k], abs=1e-9)

    def test_nth_minimum_brute_force(self):
        # oracle: direct minimum over integer combinations in [-20, 20]^2
        rng = np.random.default_rng(12)
        for _ in range(25):
            lat = _random_lattice_2d(rng)
            got = lg.nth_minimum(lat, lg.Ball(1.0, dim=2))
            coeffs = np.array(list(itertools.product(range(-20, 21), repeat=2)))
            coeffs = coeffs[np.any(coeffs != 0, axis=1)]
            norms = np.sort(np.linalg.norm(coeffs @ lat.basis, axis=1))
            # second minimum needs an independence scan; check lambda_1 here
            lam, _ = lg.successive_minima(lat, lg.Ball(1.0, dim=2))
            assert lam[0] == pytest.approx(norms[0], abs=1e-9)
            assert got >= lam[0] - 1e-12

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        lat = _random_lattice_2d(rng)
        scaled = lg.Lattice(2.5 * lat.basis)
        a = lg.nth_minimum(lat, lg.Ball(1.0, dim=2))
        b = lg.nth_minimum(scaled, lg.Ball(1.0, dim=2))
        assert b == pytest.approx(2.5 * a, rel=1e-9)

    def test_theta_scaled_cubic(self):
        th = lg.theta()
        lam = lg.nth_minimum(lg.Lattice(th * np.eye(3)), lg.Ball(1.0, dim=3))
        assert lam == pytest.approx(th, rel=1e-12)

    def test_ties_break_in_the_lll_basis(self):
        # +-v tie in the gauge; the spiral order of LLL coefficients picks
        # (1, 0, 0), whose own-basis coefficients (-1, 1, 0) start negative
        lat = lg.Lattice(np.random.default_rng(0).standard_normal((3, 3)))
        _, wit = lg.successive_minima(lat, lg.Ball(1.0, dim=3))
        assert np.array_equal(np.linalg.solve(lat.frame[0].T, wit[0]).round(), [1, 0, 0])
        assert np.array_equal(np.linalg.solve(lat.basis.T, wit[0]).round(), [-1, 1, 0])


class TestClosestVector:
    def test_basic(self):
        assert np.allclose(lg.closest_vector(lg.Lattice(np.eye(2)), [0.6, 0.6]), [1.0, 1.0])

    def test_tie_break_lexicographic(self):
        point, coeff = lg.closest_vector(lg.Lattice(np.eye(2)), [0.5, 0.0],
                                         return_coefficients=True)
        assert np.allclose(point, [0.0, 0.0])
        assert list(coeff) == [0, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            lat = _random_lattice_2d(rng)
            target = rng.uniform(-3, 3, size=2)
            point, coeff = lg.closest_vector(lat, target, return_coefficients=True)
            cand = _brute_points(lat.basis, np.zeros(2), target, 10.0)
            dists = [np.linalg.norm(p - target) for _, p in cand]
            dmin = min(dists)
            ties = sorted(c for (c, p), d in zip(cand, dists) if d <= dmin + 1e-9)
            assert tuple(coeff) == ties[0]
            assert np.linalg.norm(point - target) == pytest.approx(dmin, abs=1e-9)

    def test_target_range_follows_the_rounding_bound(self):
        # Z^2: a target at 1e5 rounds by about 1e-10, one at 1e7 by about 1e-8
        assert lg.closest_vector(lg.Lattice(np.eye(2)), [1e5 + 0.3, 0.0]).tolist() == [1e5, 0.0]
        with pytest.raises(ValueError, match="beyond float64"):
            lg.closest_vector(lg.Lattice(np.eye(2)), [1e7, 0.0])

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_coefficient_box_scan(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(12):
            basis = rng.normal(0.0, 1.0, size=(n, n))
            if abs(np.linalg.det(basis)) < 0.3 * np.prod(np.linalg.norm(basis, axis=1)):
                continue
            lat = lg.Lattice(basis)
            target = rng.uniform(-3, 3, size=n)
            point, coeff = lg.closest_vector(lat, target, return_coefficients=True)
            # every coefficient vector within the rounded point's distance
            inv = np.linalg.inv(basis)
            mid = target @ inv
            reach = np.linalg.norm(np.round(mid) @ basis - target) * np.linalg.norm(inv, axis=0)
            axes = [range(math.floor(m - w), math.ceil(m + w) + 1) for m, w in zip(mid, reach)]
            box = np.array(list(itertools.product(*axes)))
            dists = np.linalg.norm(box @ basis - target, axis=1)
            ties = box[dists <= dists.min() + 1e-9]
            assert tuple(coeff) == min(map(tuple, ties))
            assert np.linalg.norm(point - target) == pytest.approx(dists.min(), abs=1e-9)

    @pytest.mark.parametrize("target, expected", [((0.5, 0.5, 0.0), (0, 0, 0)),
                                                  ((-0.5, 0.5, 0.0), (-1, 0, 0))])
    def test_integer_tie_lexicographic(self, target, expected):
        point, coeff = lg.closest_vector(lg.Lattice(np.eye(3)), target,
                                         return_coefficients=True)
        assert tuple(coeff) == expected
        assert np.array_equal(point, np.array(expected, dtype=float))


class TestCosetEnumeration:
    def test_unit_ball_five_points(self):
        cs = lg.Coset(lg.Lattice(np.eye(2)), np.zeros(2))
        pts = lg.enumerate_coset_in_ball(cs, np.zeros(2), 1.0)
        got = sorted(map(tuple, np.round(pts, 9)))
        assert got == [(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]

    def test_deep_hole_radius(self):
        cs = lg.Coset(lg.Lattice(np.eye(2)), np.array([0.5, 0.5]))
        assert len(lg.enumerate_coset_in_ball(cs, np.zeros(2), 0.70)) == 0
        assert len(lg.enumerate_coset_in_ball(cs, np.zeros(2), 0.71)) == 4

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            lat = _random_lattice_2d(rng)
            offset = rng.uniform(-1, 1, size=2)
            center = rng.uniform(-2, 2, size=2)
            radius = rng.uniform(0.5, 2.0)
            pts = lg.enumerate_coset_in_ball(lg.Coset(lat, offset), center, radius)
            brute = _brute_points(lat.basis, offset, center, radius)
            assert len(pts) == len(brute)
            got = sorted(map(tuple, np.round(pts, 6)))
            want = sorted(tuple(np.round(p, 6)) for _, p in brute)
            assert got == want

    def test_translation_equivariance(self):
        rng = np.random.default_rng(17)
        lat = _random_lattice_2d(rng)
        offset = rng.uniform(-1, 1, size=2)
        center = rng.uniform(-1, 1, size=2)
        shift = rng.uniform(-5, 5, size=2)
        a = lg.enumerate_coset_in_ball(lg.Coset(lat, offset), center, 1.7)
        b = lg.enumerate_coset_in_ball(lg.Coset(lat, offset + shift), center + shift, 1.7)
        assert np.allclose(a + shift, b, atol=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            lg.enumerate_coset_in_ball(lg.Coset(lg.Lattice(np.eye(2)), np.zeros(2)),
                                       np.zeros(2), 0.0)

    def test_5d_coset_stream_pinned(self):
        # pinned while every LLL step redid the whole Gram-Schmidt and the
        # spiral order sorted on two keys per coordinate
        basis = [[1.237, -7.581, -0.472, 3.321, -2.954], [0.053, 1.5, -1.168, 0.811, 1.899],
                 [0.842, -2.976, -0.305, 1.45, -1.244], [-2.447, 6.735, 0.027, -3.817, 2.042],
                 [-0.165, 2.649, -0.323, -1.074, -0.334]]
        cs = lg.Coset(lg.Lattice(basis), [0.31, -0.27, 0.18, 0.44, -0.12])
        pts, coeffs = lg.enumerate_coset_in_ball(cs, [0.5, -0.2, 0.1, 0.3, 0.0], 5.3,
                                                 return_coefficients=True)
        assert len(pts) == 5076
        assert hashlib.sha256(pts.tobytes()).hexdigest() == (
            "602df22d1fcaf8e90825f0bd02263ab89873e70f096b16efa1e51b187cf30289")
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == (
            "33ca285116425f61f856b549d78dc95e131f083289b5ec40faf0a8152d0ea918")

    def test_node_cap_reports_progress(self, monkeypatch):
        from latgauss.errors import EnumerationCapExceededError
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", 100)
        cs = lg.Coset(lg.Lattice(np.eye(2)), np.zeros(2))
        with pytest.raises(EnumerationCapExceededError) as exc:
            lg.enumerate_coset_in_ball(cs, np.zeros(2), 50.0)
        assert exc.value.cap == 100 and exc.value.partial > 100


@st.composite
def _coefficient_rows(draw):
    """int64 coefficient rows of 1..6 columns, some repeated, with entries
    up to +-2**52 so that the packed spiral order needs several keys."""
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([1, 3, 1000, 2**52]))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                         max_size=30))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    return np.array(rows, dtype=np.int64).reshape(-1, n)


class TestSpiralKeys:
    @staticmethod
    def _per_coordinate_order(c):
        keys = []
        for j in range(c.shape[1] - 1, -1, -1):
            keys += (c[:, j] < 0, np.abs(c[:, j]))
        return np.lexsort(keys)

    @given(_coefficient_rows())
    @example(np.zeros((0, 4), dtype=np.int64))
    @example(np.array([[2**52, -2**52, 1], [-2**52, 2**52, -1], [2**52, -2**52, 1],
                       [0, -2**52, 0]], dtype=np.int64))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_packed_keys_keep_the_per_coordinate_order(self, c):
        assert np.array_equal(np.lexsort(_spiral_keys(c)), self._per_coordinate_order(c))

    def test_wide_entries_take_several_keys(self):
        c = np.array([[2**52, -2**52, 1], [-3, 2, -2**52]], dtype=np.int64)
        assert len(_spiral_keys(c)) == 3
        assert len(_spiral_keys(np.array([[0, -1, 2], [1, 2, -3]], dtype=np.int64))) == 1


class TestCoveringRadius:
    def test_cubic_lattices_bracket_truth(self):
        for n in (1, 2, 3):
            lower, upper = lg.covering_radius(lg.Lattice(np.eye(n)), lg.Ball(1.0, dim=n), 8)
            assert lower <= math.sqrt(n) / 2.0 <= upper

    def test_1d_interval_exact(self):
        for alpha in (0.25, 0.5, 2.0):
            lower, upper = lg.covering_radius(lg.Lattice([[1.0]]), lg.AxisBox([alpha]), 4)
            assert lower == pytest.approx(1.0 / (2.0 * alpha), rel=1e-12)
            assert upper == lower

    def test_scaling(self):
        lo1, up1 = lg.covering_radius(lg.Lattice(np.eye(2)), lg.Ball(1.0, dim=2), 8)
        lo2, up2 = lg.covering_radius(lg.Lattice(2 * np.eye(2)), lg.Ball(1.0, dim=2), 8)
        assert lo2 == pytest.approx(2 * lo1, rel=1e-9)
        assert lo2 <= math.sqrt(2.0) <= up2

    def test_diagonal_slab_fast_path(self):
        th = lg.theta()
        lower, upper = lg.covering_radius(lg.Lattice(np.eye(2)),
                                          lg.AxisBox([th / 2.0, math.inf]), 4)
        assert lower == upper == pytest.approx(1.0 / th, rel=1e-12)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            lg.covering_radius(lg.Lattice(np.eye(2)), lg.Ball(1.0, dim=2), 1)

    def test_too_coarse_signalled(self):
        # a tiny body makes the gauge slack dwarf the grid maximum
        with pytest.raises(ResolutionTooCoarseError):
            lg.covering_radius(lg.Lattice([[1.0, 0.73], [0.12, 0.9]]),
                               lg.Ball(20.0, dim=2), 2)

    def test_cvp_distance_below_covering_upper(self):
        rng = np.random.default_rng(3)
        lat = _random_lattice_2d(rng)
        _, upper = lg.covering_radius(lat, lg.Ball(1.0, dim=2), 12)
        for _ in range(20):
            t = rng.uniform(-3, 3, size=2)
            p = lg.closest_vector(lat, t)
            assert np.linalg.norm(p - t) <= upper + 1e-9


class TestDocuments:
    def test_lattice_round_trip(self):
        lat = lg.Lattice([[1.5, 0.25], [0.0, 2.0]])
        doc = lat.to_document()
        assert np.array_equal(lg.lattice_from_document(doc).basis, lat.basis)

    def test_coset_round_trip(self):
        cs = lg.Coset(lg.Lattice(np.eye(2)), [0.5, -0.25])
        back = lg.coset_from_document(cs.to_document())
        assert np.array_equal(back.offset, cs.offset)

    def test_coset_without_offset_is_the_lattice(self):
        cs = lg.coset_from_document({"basis": [[1.5, 0.25], [0.0, 2.0]]})
        assert np.array_equal(cs.offset, [0.0, 0.0])
        assert np.array_equal(cs.lattice.basis, [[1.5, 0.25], [0.0, 2.0]])
