"""Sign balancing: exact search, heuristic, worst-case bounds, formulas."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latgauss as lg
from latgauss import balancing
from latgauss.balancing import ELLIPSOID_FORMULA_CONVENTION


def _ball(n):
    return lg.Ball(1.0, dim=n)


GAUGES = {
    "ball": lambda n: lg.Ball(1.5, dim=n),
    "axis_box": lambda n: lg.AxisBox(np.linspace(0.5, 2.0, n)),
    "ellipsoid": lambda n: lg.Ellipsoid(np.linspace(0.7, 1.9, n)),
}


def _symmetric_polytope(n):
    """Four random facet pairs {|a_j . x| <= c_j}; for n = 1 an interval."""
    rng = np.random.default_rng(40 + n)
    normals = rng.standard_normal((4, n))
    return lg.HPolytope(np.vstack([normals, -normals]), np.tile(rng.uniform(0.8, 1.6, 4), 2))


# GAUGES plus a polytope, whose multi-row gauge is a BLAS matrix product
TARGETS = {**GAUGES, "hpolytope": _symmetric_polytope}

# the kinds with an inscribed form, at aspect ratios up to 1e4
SCREENED = {
    "ball": lambda n: lg.Ball(0.7, dim=n),
    "ellipsoid": lambda n: lg.Ellipsoid(np.geomspace(1e-2, 1e2, n)),
    "axis_box": lambda n: lg.AxisBox(np.geomspace(1e2, 1e-2, n)),
    "axis_box_inf": lambda n: lg.AxisBox(np.r_[np.inf, np.geomspace(0.5, 5e3, n - 1)]),
}

# (rng, k, n) -> k vectors: inexact sums, exact ties, repeats, all zero
DRAWS = {
    "gaussian": lambda rng, k, n: rng.standard_normal((k, n)),
    "integers": lambda rng, k, n: rng.integers(-3, 4, size=(k, n)).astype(float),
    "repeated": lambda rng, k, n: rng.standard_normal((2, n))[rng.integers(2, size=k)],
    "zeros": lambda rng, k, n: np.zeros((k, n)),
}


def _first_minimum_by_codes(vecs, body):
    """Reference scan: pattern code c drives sign j+1 by bit (k-2-j), and the
    first strict minimum in ascending code order wins. The sum of code c is
    formed as the scan forms it, the signed sum of its high bits (vector 0
    included) plus that of its last lo = min(k-1, 16) bits, so radii compare
    bitwise on inexact inputs too. Every sum is gauged."""
    k = len(vecs)
    lo = min(k - 1, 16)
    hi = k - 1 - lo

    def signs(m):
        return 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1)

    low = signs(lo) @ vecs[1 + hi:]
    high = vecs[0] + signs(hi) @ vecs[1:1 + hi]
    best_r, best_code = math.inf, 0
    for h, hh in enumerate(high):
        gauges = body.gauge_many(low + hh)
        j = int(np.argmin(gauges))
        if gauges[j] < best_r:
            best_r, best_code = float(gauges[j]), (h << lo) + j
    return best_r, (1,) + tuple(1 - 2 * ((best_code >> s) & 1) for s in range(k - 2, -1, -1))


def _heuristic_reference(vectors, body, restarts=16, seed=0):
    """One gauge call per candidate: the loop the batched heuristic must match."""
    v = np.asarray(vectors, dtype=float)
    k = v.shape[0]
    best = None
    for restart in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        order = rng.permutation(k)
        signs = np.ones(k)
        acc = np.zeros(body.dim)
        for i in order:
            if body.gauge(acc + v[i]) <= body.gauge(acc - v[i]):
                signs[i] = 1.0
            else:
                signs[i] = -1.0
            acc += signs[i] * v[i]
        improved = True
        while improved:
            improved = False
            current = body.gauge(signs @ v)
            for i in range(k):
                flipped = float(body.gauge(signs @ v - 2.0 * signs[i] * v[i]))
                if flipped < current - 1e-12:
                    signs[i] = -signs[i]
                    current = flipped
                    improved = True
        radius = float(body.gauge(signs @ v))
        if best is None or radius < best[0]:
            best = (radius, tuple(int(s) for s in signs))
    return best


def _beta_reference(n, u_body, v_body, restarts, seed):
    """One exhaustive scan per probe: the loop the stacked probe scoring must match."""
    def boundary_point(direction):
        g = u_body.gauge(direction)
        if g <= 0:
            raise lg.UnsupportedBodyError("worst-case search needs a bounded input body")
        return direction / g

    d = u_body.dim
    best_r, best_v = -math.inf, None
    for restart in range(max(restarts, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        vecs = np.stack([boundary_point(rng.standard_normal(d)) for _ in range(n)])
        radius = lg.balance_exhaustive(vecs, v_body).radius
        step = 0.5
        for _ in range(4):
            for i in range(n):
                for _ in range(6):
                    cand = vecs.copy()
                    cand[i] = boundary_point(vecs[i] + step * rng.standard_normal(d))
                    r = lg.balance_exhaustive(cand, v_body).radius
                    if r > radius:
                        radius, vecs = r, cand
            step *= 0.5
        if radius > best_r:
            best_r, best_v = radius, vecs
    return float(best_r), best_v


def _beta_restarts_in_turn(n, u_body, v_body, restarts, seed):
    """The search one restart after another, scoring the pending probes of
    one vector in one input-gauge call and one scan: the loop the lockstep
    must match bitwise where one-row and multi-row gauge calls differ."""
    def boundary_points(directions):
        g = u_body.gauge_many(directions)
        unbounded = np.flatnonzero(g <= 0)
        m = int(unbounded[0]) if unbounded.size else len(g)
        return directions[:m] / g[:m, None]

    d = u_body.dim
    best_r, best_v = -math.inf, None
    for restart in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        vecs = boundary_points(rng.standard_normal((n, d)))
        assert len(vecs) == n
        radius = lg.balance_exhaustive(vecs, v_body).radius
        step = 0.5
        for _ in range(4):
            for i in range(n):
                noise = step * rng.standard_normal((6, d))
                p = 0
                while p < 6:
                    points = boundary_points(vecs[i] + noise[p:])
                    assert p + len(points) == 6
                    cands = np.repeat(vecs[None], len(points), axis=0)
                    cands[:, i] = points
                    radii, _ = balancing._exhaustive_scan(cands, v_body)
                    up = np.flatnonzero(radii > radius)
                    if not up.size:
                        break
                    t = int(up[0])
                    radius, vecs, p = float(radii[t]), cands[t], p + t + 1
            step *= 0.5
        if radius > best_r:
            best_r, best_v = float(radius), vecs
    return best_r, best_v


def _assert_beta_matches_reference(n, u_body, v_body, restarts, seed):
    radius, witness = lg.beta_lower_bound_search(n, u_body, v_body, restarts=restarts,
                                                 seed=seed)
    ref_radius, ref_witness = _beta_reference(n, u_body, v_body, restarts, seed)
    assert radius == ref_radius
    assert np.array_equal(witness, ref_witness)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBalanceExhaustive:
    def test_duplicate_vector_cancels(self):
        r = lg.balance_exhaustive([[1.0, 0.0], [1.0, 0.0]], _ball(2))
        assert r.radius == 0.0
        assert r.signs.signs == (1, -1)

    def test_orthonormal_pair_all_sums_equal(self):
        # 4-pattern enumeration: every signed sum has euclidean norm sqrt(2)
        vecs = np.eye(2)
        for signs in itertools.product((1, -1), repeat=2):
            s = signs[0] * vecs[0] + signs[1] * vecs[1]
            assert np.linalg.norm(s) == pytest.approx(math.sqrt(2.0))
        r = lg.balance_exhaustive(vecs, _ball(2))
        assert r.radius == pytest.approx(math.sqrt(2.0))

    def test_scalar_against_centered_unit_cube(self):
        r = lg.balance_exhaustive([[1.0]], lg.AxisBox([0.5]))
        assert r.radius == pytest.approx(2.0)

    def test_result_invariant(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((6, 3))
        r = lg.balance_exhaustive(vecs, _ball(3))
        assert _ball(3).gauge(np.array(r.signs.signs) @ r.inputs) == pytest.approx(r.radius, abs=1e-9)

    def test_matches_full_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        body = lg.AxisBox([0.5, 0.8, 1.1])
        for _ in range(10):
            vecs = rng.standard_normal((5, 3))
            best = min(body.gauge(np.array(s) @ vecs)
                       for s in itertools.product((1, -1), repeat=5))
            assert lg.balance_exhaustive(vecs, body).radius == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(GAUGES))
    def test_first_lexicographic_minimum_matches_brute_force(self, kind):
        # small integers make the signed sums exact, so ties are exact and
        # the first pattern in itertools order (+1 before -1) must win
        rng = np.random.default_rng(12)
        for k in range(1, 13):
            n = 2 + k % 2
            body = GAUGES[kind](n)
            vecs = rng.integers(-3, 4, size=(k, n)).astype(float)
            patterns = [(1,) + p for p in itertools.product((1, -1), repeat=k - 1)]
            gauges = [body.gauge(np.array(p) @ vecs) for p in patterns]
            first = min(range(len(patterns)), key=gauges.__getitem__)
            r = lg.balance_exhaustive(vecs, body)
            assert r.radius == gauges[first]
            assert r.signs.signs == patterns[first]

    @pytest.mark.parametrize("kind", sorted(GAUGES))
    def test_minimum_with_high_block_signs(self, kind):
        # k = 20 scans 2^3 high patterns of 2^16 low rows; the first minimal
        # pattern here has a -1 among signs 1..3, so the scan must cross blocks
        rng = np.random.default_rng(20)
        vecs = rng.integers(-3, 4, size=(20, 2)).astype(float)
        # with sign 1 at +1 the first two sum to 120 per coordinate, more than
        # the other 18 (entries within +-3) can cancel, so sign 1 must be -1
        vecs[:2] = 60.0
        body = GAUGES[kind](2)
        radius, pattern = _first_minimum_by_codes(vecs, body)
        assert pattern[1] == -1
        r = lg.balance_exhaustive(vecs, body)
        assert r.radius == radius
        assert r.signs.signs == pattern

    def test_scan_memory_independent_of_pattern_count(self):
        for k in (20, 24):
            vecs = np.random.default_rng(4).standard_normal((k, 4))
            for kind in sorted(GAUGES):
                body = GAUGES[kind](4)
                assert _peak_bytes(lambda: lg.balance_exhaustive(vecs, body)) < 32e6, (k, kind)

    def test_sign_table_built_without_table_sized_temporaries(self):
        table = 8 * 16 << 16
        assert _peak_bytes(lambda: balancing._sign_rows.__wrapped__(16)) < table + 2e6
        assert np.array_equal(balancing._sign_rows(16), balancing._sign_rows.__wrapped__(16))

    @pytest.mark.parametrize("kind", sorted(SCREENED))
    @pytest.mark.parametrize("k", [18, 20])
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_screened_scan_matches_reference(self, kind, k, draw):
        # the screen gauges only the rows that can reach each block's minimum;
        # radius and first minimal pattern must be those of gauging every row
        rng = np.random.default_rng(k)
        n = 2 + k % 4
        body = SCREENED[kind](n)
        for scale in (1e-6, 1.0, 1e6):
            vecs = scale * DRAWS[draw](rng, k, n)
            radius, pattern = _first_minimum_by_codes(vecs, body)
            r = lg.balance_exhaustive(vecs, body)
            assert r.radius == radius
            assert r.signs.signs == pattern

    @pytest.mark.parametrize("scale", [2.0 ** -400, 1.0, 2.0 ** 400])
    def test_scan_outside_the_screen_range_matches_reference(self, scale):
        # entries past 2^+-300, or a semiaxis past 2^+-150, take the unscreened loop
        vecs = scale * np.random.default_rng(3).standard_normal((18, 3))
        for body in (lg.Ball(1.5, dim=3), lg.AxisBox([0.5, np.inf, 2.0]),
                     lg.Ellipsoid([0.5, 1e200, 2.0])):
            radius, pattern = _first_minimum_by_codes(vecs, body)
            r = lg.balance_exhaustive(vecs, body)
            assert (r.radius, r.signs.signs) == (radius, pattern)

    def test_box_minimum_off_the_euclidean_minimum(self):
        # the screen of a box is its inscribed ball, which c2 = 2 widens to
        # the square: the l-inf nearest sum is not the l2 nearest one here
        vecs = np.random.default_rng(5).standard_normal((18, 2))
        box = lg.AxisBox([1.0, 1.0])
        l2 = lg.balance_exhaustive(vecs, lg.Ball(1.0, dim=2))
        radius, pattern = _first_minimum_by_codes(vecs, box)
        assert pattern != l2.signs.signs
        assert box.gauge(np.array(l2.signs.signs) @ vecs) > radius
        r = lg.balance_exhaustive(vecs, box)
        assert (r.radius, r.signs.signs) == (radius, pattern)

    @pytest.mark.parametrize("k", [18, 20])
    def test_stacked_scan_matches_each_sequence(self, k):
        # k > 17 puts signs in the high block, one sequence per gauge call
        rng = np.random.default_rng(k)
        body = GAUGES["ellipsoid"](3)
        stack = rng.standard_normal((3, k, 3))
        radii, codes = balancing._exhaustive_scan(stack, body)
        for vecs, radius, code in zip(stack, radii, codes):
            r = lg.balance_exhaustive(vecs, body)
            assert radius == r.radius
            bits = tuple(1 - 2 * ((int(code) >> s) & 1) for s in range(k - 2, -1, -1))
            assert (1,) + bits == r.signs.signs

    def test_stacked_scan_memory_independent_of_stack_size(self):
        # each k = 17 sequence fills a 2^16-row gauge call on its own; stacking
        # all eight into one call would hold several 17 MB arrays at once
        stack = np.random.default_rng(4).standard_normal((8, 17, 4))
        tracemalloc.start()
        try:
            balancing._exhaustive_scan(stack, lg.Ellipsoid([1.0, 2.0, 0.5, 1.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_size_cap(self):
        with pytest.raises(ValueError):
            lg.balance_exhaustive(np.zeros((25, 2)), _ball(2))

    @pytest.mark.parametrize("balance", [lg.balance_exhaustive, lg.balance_heuristic])
    def test_empty_input_rejected(self, balance):
        with pytest.raises(ValueError, match="at least one vector"):
            balance(np.zeros((0, 2)), _ball(2))

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60, derandomize=True)
    def test_input_scaling(self, c):
        vecs = np.array([[0.6, -0.2], [0.1, 0.9], [0.5, 0.5]])
        base = lg.balance_exhaustive(vecs, _ball(2)).radius
        scaled = lg.balance_exhaustive(c * vecs, _ball(2)).radius
        assert scaled == pytest.approx(c * base, rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=60, derandomize=True)
    def test_body_scaling(self, c):
        vecs = np.array([[0.6, -0.2], [0.1, 0.9]])
        base = lg.balance_exhaustive(vecs, lg.Ball(1.0, dim=2)).radius
        scaled = lg.balance_exhaustive(vecs, lg.Ball(c, dim=2)).radius
        assert scaled == pytest.approx(base / c, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        vecs = rng.standard_normal((7, 2))
        base = lg.balance_exhaustive(vecs, _ball(2)).radius
        for _ in range(5):
            perm = rng.permutation(7)
            assert lg.balance_exhaustive(vecs[perm], _ball(2)).radius == \
                pytest.approx(base, abs=1e-12)


class TestBalanceHeuristic:
    def test_cancellation_found(self):
        r = lg.balance_heuristic([[1.0, 0.0], [1.0, 0.0]], _ball(2), restarts=1, seed=0)
        assert r.radius == 0.0

    def test_dominates_exhaustive(self):
        rng = np.random.default_rng(3)
        for k in (4, 8, 12):
            vecs = rng.standard_normal((k, 3))
            ex = lg.balance_exhaustive(vecs, _ball(3)).radius
            he = lg.balance_heuristic(vecs, _ball(3), restarts=6, seed=1).radius
            assert he >= ex - 1e-12

    def test_within_factor_two_on_unit_vectors(self):
        rng = np.random.default_rng(5)
        body = lg.Ball(1.0, dim=10)
        for trial in range(100):
            vecs = rng.standard_normal((10, 10))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            ex = lg.balance_exhaustive(vecs, body).radius
            he = lg.balance_heuristic(vecs, body, restarts=8, seed=trial).radius
            assert he <= 2.0 * ex + 1e-9 or ex < 1e-9

    @pytest.mark.parametrize("kind", sorted(GAUGES))
    def test_matches_reference_loop(self, kind):
        rng = np.random.default_rng(9)
        for seed in range(4):
            n = 2 + seed % 3
            vecs = rng.standard_normal((12 + 2 * seed, n))
            body = GAUGES[kind](n)
            r = lg.balance_heuristic(vecs, body, restarts=4, seed=seed)
            assert (r.radius, r.signs.signs) == _heuristic_reference(
                vecs, body, restarts=4, seed=seed)

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_matches_reference_loop_at_bench_shape(self, kind):
        # k = 20 and 16 restarts, the benchmark's heuristic calls
        rng = np.random.default_rng(20)
        for n in (2, 3, 4):
            vecs = rng.standard_normal((20, n))
            body = TARGETS[kind](n)
            r = lg.balance_heuristic(vecs, body, restarts=16, seed=n)
            assert (r.radius, r.signs.signs) == _heuristic_reference(
                vecs, body, restarts=16, seed=n)

    def test_memory_independent_of_restarts(self, monkeypatch):
        # a 2^9-row budget makes a block of 2^9 // k = 32 restarts, so both
        # runs hold one full block at a time; all 512 at once would hold 16
        # times the rows
        monkeypatch.setattr(balancing, "_BLOCK_ROWS", 1 << 9)
        vecs = np.random.default_rng(7).standard_normal((16, 2))
        peaks = [_peak_bytes(lambda: lg.balance_heuristic(vecs, _ball(2), restarts=r, seed=1))
                 for r in (32, 512)]
        assert peaks[1] < peaks[0] + 2**15

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        vecs = rng.standard_normal((9, 2))
        a = lg.balance_heuristic(vecs, _ball(2), restarts=4, seed=5)
        b = lg.balance_heuristic(vecs, _ball(2), restarts=4, seed=5)
        assert a.radius == b.radius and a.signs == b.signs


class TestBetaSearch:
    def test_1d_ball_vs_cube(self):
        radius, witness = lg.beta_lower_bound_search(1, _ball(1), lg.AxisBox([0.5]),
                                                     restarts=6, seed=3)
        assert radius == pytest.approx(2.0, abs=1e-9)
        assert abs(abs(witness[0, 0]) - 1.0) < 1e-9

    def test_2d_ball_vs_ball(self):
        # oracle: discretized pairs on the circle peak at orthonormal pairs
        angles = np.linspace(0.0, math.pi, 200, endpoint=False)
        best = 0.0
        for da in angles:
            u1 = np.array([1.0, 0.0])
            u2 = np.array([math.cos(da), math.sin(da)])
            best = max(best, lg.balance_exhaustive([u1, u2], _ball(2)).radius)
        assert best == pytest.approx(math.sqrt(2.0), abs=1e-3)
        radius, _ = lg.beta_lower_bound_search(2, _ball(2), _ball(2), restarts=24, seed=3)
        assert radius == pytest.approx(math.sqrt(2.0), abs=1e-4)
        assert radius <= math.sqrt(2.0) + 1e-9  # lower bound never overshoots

    @pytest.mark.parametrize("kind", sorted(GAUGES))
    def test_matches_reference_loop(self, kind):
        for n in range(1, 6):
            _assert_beta_matches_reference(n, _ball(n), GAUGES[kind](n), restarts=2, seed=n)

    def test_matches_reference_loop_hpolytope_target(self):
        normals = np.array([[1.0, 0.3], [0.2, 1.0], [1.0, 1.0]])
        v = lg.HPolytope(np.vstack([normals, -normals]), [1.0, 0.8, 1.5] * 2)
        for n in (2, 3, 4):
            _assert_beta_matches_reference(n, _ball(2), v, restarts=2, seed=n)

    def test_matches_restarts_in_turn_polygon_input(self):
        # one restart alone scores its last pending probe in a one-row input
        # gauge call, the lockstep in a stacked call; a polygon's gauge gives
        # that row the same bits in both, at seeds where BLAS's one-row path
        # would not
        u, v = _symmetric_polytope(2), TARGETS["hpolytope"](2)
        for n, seed in ((1, 4), (2, 5), (3, 3), (4, 11)):
            radius, witness = lg.beta_lower_bound_search(n, u, v, restarts=8, seed=seed)
            expected = _beta_restarts_in_turn(n, u, v, restarts=8, seed=seed)
            assert radius == expected[0]
            assert np.array_equal(witness, expected[1])

    def test_matches_reference_loop_interval_input(self):
        # an interval's gauges are single products, so one-row and stacked
        # calls agree
        u = lg.HPolytope([[1.0], [-1.0], [2.0], [-2.0]], [1.0, 1.0, 1.5, 1.5])
        for n in range(1, 5):
            _assert_beta_matches_reference(n, u, _symmetric_polytope(1), restarts=8,
                                           seed=20 + n)

    def test_matches_reference_loop_ellipsoid_input(self):
        u = lg.Ellipsoid([0.5, 1.0, 2.0])
        for n in (2, 3, 4):
            _assert_beta_matches_reference(n, u, GAUGES["axis_box"](3), restarts=2, seed=n)

    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_matches_reference_loop_at_bench_restarts(self, kind):
        # eight restarts, as the benchmark's searches run; at n = 1 a scan of
        # one probe is a one-row gauge call
        for n in range(1, 5):
            _assert_beta_matches_reference(n, _ball(n), TARGETS[kind](n), restarts=8,
                                           seed=10 + n)

    def test_memory_independent_of_restarts(self, monkeypatch):
        # a 2^8-row budget makes a block of 2^8 // (6 * 2) = 21 restarts at
        # n = 2, so both runs hold one full block at a time
        monkeypatch.setattr(balancing, "_BLOCK_ROWS", 1 << 8)
        v = lg.AxisBox([0.5, 0.8])
        run = lambda r: lg.beta_lower_bound_search(2, _ball(2), v, restarts=r, seed=3)
        run(1)  # builds the cached sign-row table
        peaks = [_peak_bytes(lambda: run(r)) for r in (32, 512)]
        assert peaks[1] < peaks[0] + 2**15

    @pytest.mark.parametrize("doc", [
        {"kind": "axis_box", "dim": 2, "semiwidths": [1.0, math.inf]},
        {"kind": "hpolytope", "dim": 2, "normals": [[1.0, 0.0], [-1.0, 0.0]],
         "offsets": [1.0, 1.0]},
        {"kind": "hpolytope", "dim": 3, "offsets": [1.0] * 4,
         "normals": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]},
    ])
    def test_unbounded_input_refused_before_any_draw(self, doc, monkeypatch):
        # no probe direction has gauge 0 here, so only the body itself tells
        def no_draw(*args):
            raise AssertionError("drew before refusing the input body")

        monkeypatch.setattr(balancing, "substream", no_draw)
        u = lg.body_from_document(doc)
        with pytest.raises(lg.UnsupportedBodyError, match="bounded input body"):
            lg.beta_lower_bound_search(2, u, lg.AxisBox([0.5] * u.dim), restarts=2)

    def test_probes_share_gauge_calls(self, monkeypatch):
        calls = []
        gauge_many = lg.AxisBox.gauge_many

        def counted(self, points):
            calls.append(len(points))
            return gauge_many(self, points)

        monkeypatch.setattr(lg.AxisBox, "gauge_many", counted)
        lg.beta_lower_bound_search(3, _ball(3), lg.AxisBox([0.5] * 3), restarts=4, seed=2)
        probes = 4 * balancing._BETA_PASSES * 3 * balancing._BETA_PROBES
        assert 0 < len(calls) <= probes // 2

    def test_deterministic(self):
        r1, _ = lg.beta_lower_bound_search(2, _ball(2), lg.AxisBox([0.5, 0.5]),
                                           restarts=4, seed=11)
        r2, _ = lg.beta_lower_bound_search(2, _ball(2), lg.AxisBox([0.5, 0.5]),
                                           restarts=4, seed=11)
        assert r1 == r2


class TestEllipsoidFormulas:
    def test_printed_values(self):
        assert lg.beta_ellipsoid_formula([3.0, 4.0]) == pytest.approx(5.0)
        assert lg.beta_ellipsoid_formula([1.0]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lg.beta_ellipsoid_formula([1.0, -2.0])

    def test_1d_convention_oracle(self):
        # The decisive check: for a 1-d ellipsoid with coefficient alpha the
        # brute-force balancing radius equals alpha itself exactly when the
        # coefficient multiplies the coordinate (body semiaxis = 1/alpha).
        for alpha in (0.4, 1.0, 2.7):
            body = lg.ellipsoid_for_formula([alpha])
            assert body.semiaxes[0] == pytest.approx(1.0 / alpha)
            brute = min(body.gauge(np.array([s * 1.0]))
                        for s in (1, -1))  # worst input u = +-1 on the ball boundary
            assert brute == pytest.approx(lg.beta_ellipsoid_formula([alpha]), rel=1e-12)
        assert "reciprocal semiaxes" in ELLIPSOID_FORMULA_CONVENTION

    def test_search_consistent_with_formula_2d(self):
        alphas = [0.8, 1.3]
        body = lg.ellipsoid_for_formula(alphas)
        radius, _ = lg.beta_lower_bound_search(2, _ball(2), body, restarts=24, seed=1)
        formula = lg.beta_ellipsoid_formula(alphas)
        assert radius <= formula + 1e-9
        assert radius >= 0.95 * formula


class TestAlphaSearch:
    @pytest.mark.parametrize("search", [lg.alpha_lower_bound_search,
                                        lg.beta_lower_bound_search])
    def test_zero_dimension_rejected(self, search):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            search(0, _ball(1), lg.AxisBox([0.5]))

    def test_1d_ratio_is_one(self):
        ratio, lat = lg.alpha_lower_bound_search(1, _ball(1), lg.AxisBox([0.5]),
                                                 restarts=4, seed=2)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_every_1d_lattice_gives_one(self):
        for t in (0.3, 1.0, 4.2):
            lower, upper = lg.covering_radius(lg.Lattice([[t]]), lg.AxisBox([0.5]), 4)
            lam = lg.nth_minimum(lg.Lattice([[t]]), _ball(1))
            assert lower / lam == pytest.approx(1.0, rel=1e-12)

    def test_alpha_below_beta_on_same_pair(self):
        u, v = _ball(2), lg.AxisBox([0.5, 0.5])
        alpha, _ = lg.alpha_lower_bound_search(2, u, v, restarts=6, seed=4, resolution=8)
        beta, _ = lg.beta_lower_bound_search(2, u, v, restarts=24, seed=4)
        assert alpha <= beta + 1e-6

    def test_corollary_bound_when_measure_at_least_half(self):
        # calibrated cube: gaussian measure 1/2, so the ratio obeys 1/theta
        s = lg.calibrate_scale(lg.AxisBox([0.5, 0.5]), 0.5)
        v = lg.AxisBox([0.5 * s, 0.5 * s])
        ratio, _ = lg.alpha_lower_bound_search(2, _ball(2), v, restarts=6, seed=1,
                                               resolution=8)
        assert ratio <= 1.0 / lg.theta() + 1e-9
