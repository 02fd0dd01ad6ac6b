"""Lattice reduction, enumeration, minima, CVP, covering brackets."""

import itertools
import math

import numpy as np
import pytest

import latgauss as lg
import latgauss.lattice
from latgauss.errors import InvalidLatticeError, ResolutionTooCoarseError
from latgauss.lattice import _gs


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

    def test_node_cap_reports_progress(self, monkeypatch):
        from latgauss.errors import EnumerationCapExceededError
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", 100)
        cs = lg.Coset(lg.Lattice(np.eye(2)), np.zeros(2))
        with pytest.raises(EnumerationCapExceededError) as exc:
            lg.enumerate_coset_in_ball(cs, np.zeros(2), 50.0)
        assert exc.value.cap == 100 and exc.value.partial > 100


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
