"""The four benchmark workloads: seeded input streams and their output checks.

Each workload turns the benchmark seed into an endless, deterministic
stream of invocations; a run consumes the stream until its time is up. The
program only ever sees the generated inputs (CLI arguments, bases, vectors).
``rotation`` is the length of one cycle of the stream's shapes: any that
many consecutive invocations hold one of each. Throughput is measured over
rotation-long windows, and the leading invocations, up to a rotation, are
run a second time to check that the record stream is byte-identical across
runs of one invocation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from harness import Invocation, Outcome

TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    stream: Callable[[int], Iterator[Invocation]]
    check: Callable[[list[Outcome]], list[str]]
    rotation: int


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _check_suite(outcomes: list[Outcome], summary: str) -> list[str]:
    """No ``violated``, summary counts equal the trial verdicts, exit code 0."""
    errors = []
    for o in outcomes:
        label = o.invocation.label
        if o.code != 0:
            errors.append(f"{label}: exit code {o.code} {o.error}")
            continue
        records = o.records
        if not records or records[-1].get("check") != summary:
            errors.append(f"{label}: missing {summary} record")
            continue
        counts = {"holds": 0, "violated": 0, "inconclusive": 0}
        for r in records[:-1]:
            counts[r["verdict"]] += 1
        if any(records[-1][k] != v for k, v in counts.items()):
            errors.append(f"{label}: summary {records[-1]} does not match verdicts {counts}")
        if counts["violated"]:
            errors.append(f"{label}: {counts['violated']} violated records")
    return errors


# ---------------------------------------------------------------------------
# theorem-suite
# ---------------------------------------------------------------------------

THEOREM_TRIALS = 10  # two trials of each of the five body kinds per invocation


def theorem_stream(seed: int) -> Iterator[Invocation]:
    for i in itertools.count():
        n = 1 + i % 4
        yield Invocation(f"check-theorem n={n} #{i}",
                         argv=["check-theorem", "--n", str(n), "--trials", str(THEOREM_TRIALS),
                               "--seed", str(sub_seed(seed, i))])


def check_theorem(outcomes: list[Outcome]) -> list[str]:
    return _check_suite(outcomes, "theorem-summary")


# ---------------------------------------------------------------------------
# lattice-oracles
# ---------------------------------------------------------------------------

BIG_DIM, BIG_RADIUS = 6, 8.0   # Z^6 coset in a radius-8 ball: about 1.35e6 points
ENUM_POINTS = 20000            # expected size of the per-basis coset enumeration
COVERING_RESOLUTION = 9
ORACLE_ROUNDS = 4              # rounds whose enumerations are kept for the brute-force check


def random_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian rows, redrawn until the basis is not nearly degenerate."""
    while True:
        b = rng.standard_normal((n, n))
        if abs(np.linalg.det(b)) >= 0.3 * float(np.prod(np.linalg.norm(b, axis=1))):
            return b


def _symmetric_body_doc(rng: np.random.Generator, n: int, kind: str) -> dict:
    if kind == "ball":
        return {"kind": "ball", "dim": n, "radius": float(rng.uniform(0.5, 2.0))}
    if kind == "axis_box":
        return {"kind": "axis_box", "dim": n, "semiwidths": rng.uniform(0.4, 2.0, n).tolist()}
    if kind == "ellipsoid":
        return {"kind": "ellipsoid", "dim": n, "semiaxes": rng.uniform(0.5, 2.0, n).tolist()}
    normals = rng.standard_normal((n + 1, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.vstack([normals, -normals])
    offsets = np.full(len(normals), float(rng.uniform(0.8, 1.4)))
    return {"kind": "hpolytope", "dim": n, "normals": normals.tolist(),
            "offsets": offsets.tolist()}


def _enumeration(label: str, basis: np.ndarray, offset: np.ndarray, center: np.ndarray,
                 radius: float, keep: bool) -> Invocation:
    inv = Invocation(label, payload={"basis": basis, "offset": offset, "center": center,
                                     "radius": radius})

    def call():
        from latgauss import lattice

        coset = lattice.Coset(lattice.Lattice(basis), offset)
        pts, coeffs = lattice.enumerate_coset_in_ball(coset, center, radius,
                                                      return_coefficients=True)
        if keep:
            inv.payload["coeffs"] = coeffs
        yield {"op": "enumerate", "n": len(offset), "radius": radius, "count": len(pts),
               "sha256": hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()}

    inv.call = call
    return inv


def lattice_stream(seed: int) -> Iterator[Invocation]:
    offset = _rng(seed).uniform(0.0, 1.0, BIG_DIM)
    yield _enumeration(f"enumerate Z^{BIG_DIM} r={BIG_RADIUS}", np.eye(BIG_DIM), offset,
                       np.zeros(BIG_DIM), BIG_RADIUS, keep=False)
    for r in itertools.count():
        rng = _rng(seed, r)
        for n in range(2, 7):
            basis = random_basis(rng, n)
            doc = json.dumps({"basis": basis.tolist()})
            yield Invocation(f"minima n={n} #{r}", argv=["minima", "--lattice", doc],
                             payload={"basis": basis})
            target = rng.normal(0.0, 2.0, n)
            yield Invocation(f"cvp n={n} #{r}",
                             argv=["cvp", "--lattice", doc, f"--target={_floats(target)}"],
                             payload={"basis": basis, "target": target})
            if n <= 3:
                kind = ("ball", "ellipsoid", "axis_box")[(r + n) % 3]
                body = _symmetric_body_doc(rng, n, kind)
                yield Invocation(f"covering n={n} {kind} #{r}",
                                 argv=["covering", "--lattice", doc, "--body", json.dumps(body),
                                       "--resolution", str(COVERING_RESOLUTION)])
            volume = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
            radius = float((ENUM_POINTS * abs(np.linalg.det(basis)) / volume) ** (1.0 / n))
            yield _enumeration(f"enumerate n={n} #{r}", basis, rng.uniform(-1.0, 1.0, n),
                               rng.normal(0.0, 1.0, n), radius,
                               keep=n <= 3 and r < ORACLE_ROUNDS)


LATTICE_ROTATION = 4 + 4 + 3 + 3 + 3  # after the one-off Z^6 enumeration


def _box_points(basis: np.ndarray, center: np.ndarray, radius: float):
    """(coefficients, points) of every c with ||c @ basis - center|| <= radius, by brute force."""
    inv = np.linalg.inv(basis)
    mid = center @ inv
    reach = radius * np.linalg.norm(inv, axis=0)
    axes = [np.arange(math.floor(m - w), math.ceil(m + w) + 1) for m, w in zip(mid, reach)]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
    points = coeffs @ basis
    keep = np.linalg.norm(points - center, axis=1) <= radius + TOL
    return coeffs[keep], points[keep]


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])]


def _brute_minima(basis: np.ndarray) -> np.ndarray:
    n = len(basis)
    reach = float(np.max(np.linalg.norm(basis, axis=1))) * (1.0 + TOL)
    coeffs, points = _box_points(basis, np.zeros(n), reach)
    points = points[np.any(coeffs != 0, axis=1)]
    norms = np.linalg.norm(points, axis=1)
    lambdas, chosen = [], []
    for i in np.argsort(norms, kind="stable"):
        if np.linalg.matrix_rank(np.array(chosen + [points[i]]), tol=1e-9) > len(chosen):
            chosen.append(points[i])
            lambdas.append(norms[i])
            if len(chosen) == n:
                break
    return np.array(lambdas)


def check_lattice(outcomes: list[Outcome]) -> list[str]:
    """Oracle checks: brute force for n <= 3, invariants for every n."""
    errors = []
    for o in outcomes:
        inv, label = o.invocation, o.invocation.label
        if o.code != 0:
            errors.append(f"{label}: exit code {o.code} {o.error}")
            continue
        rec = o.records[-1]
        p = inv.payload
        if inv.argv and inv.argv[0] == "minima":
            lam, wit = np.array(rec["lambdas"]), np.array(rec["witnesses"])
            n = len(lam)
            if np.any(np.diff(lam) < -TOL):
                errors.append(f"{label}: minima not sorted {lam}")
            if np.linalg.matrix_rank(wit, tol=1e-9) < n:
                errors.append(f"{label}: dependent witnesses")
            if np.max(np.abs(np.linalg.norm(wit, axis=1) - lam)) > TOL * (1 + lam.max()):
                errors.append(f"{label}: witness norms differ from the minima")
            coeff = wit @ np.linalg.inv(p["basis"])
            if np.max(np.abs(coeff - np.round(coeff))) > 1e-6:
                errors.append(f"{label}: witnesses are not lattice vectors")
            if n <= 3 and np.max(np.abs(_brute_minima(p["basis"]) - lam)) > TOL * (1 + lam.max()):
                errors.append(f"{label}: minima differ from brute force")
        elif inv.argv and inv.argv[0] == "cvp":
            point = np.array(rec["point"])
            basis, target = p["basis"], p["target"]
            if np.max(np.abs(np.array(rec["coefficients"]) @ basis - point)) > 1e-6:
                errors.append(f"{label}: point does not match its coefficients")
            dist = float(np.linalg.norm(point - target))
            if abs(dist - rec["distance"]) > TOL * (1 + dist):
                errors.append(f"{label}: reported distance is wrong")
            if len(target) <= 3:
                _, pts = _box_points(basis, target, dist)
                best = float(np.min(np.linalg.norm(pts - target, axis=1)))
                if best < dist - TOL:
                    errors.append(f"{label}: brute force finds a closer point ({best} < {dist})")
        elif inv.argv and inv.argv[0] == "covering":
            if not 0.0 < rec["lower"] <= rec["upper"]:
                errors.append(f"{label}: covering bracket {rec['lower']}, {rec['upper']}")
        elif "coeffs" in p:
            coeffs, _ = _box_points(p["basis"], p["center"] - p["offset"], p["radius"])
            if not np.array_equal(_sorted_rows(coeffs), _sorted_rows(p["coeffs"])):
                errors.append(f"{label}: enumeration differs from brute force "
                              f"({len(p['coeffs'])} vs {len(coeffs)} points)")
    return errors


# ---------------------------------------------------------------------------
# slice-checks
# ---------------------------------------------------------------------------

SLICE_TRIALS = 4       # one trial of each lemma body kind and each ehrhard pair kind
SLICE_MAX_DIM = 6
SUITE_EVERY = 4        # rounds per lemma/ehrhard pair
PROFILE_SHAPES = [("ball", 2), ("axis_box", 2), ("axis_box", 3),
                  ("ellipsoid", 2), ("ellipsoid", 3), ("hpolytope", 2), ("hpolytope", 3)]


def slice_stream(seed: int) -> Iterator[Invocation]:
    """w-profiles on seven body shapes each round, the two suites every fourth round.

    As many records are cheaper than the axis-box profiles (suite trials and
    ball profiles) as are costlier (ellipsoid and H-polytope profiles), so
    the median operation is in the middle of the axis-box group. H-polytope
    profiles are a fifth of the records, so the p90 operation is one of them.
    """
    for r in itertools.count():
        rng = _rng(seed, r)
        if r % SUITE_EVERY == 0:
            common = ["--trials", str(SLICE_TRIALS), "--max-dim", str(SLICE_MAX_DIM)]
            yield Invocation(f"check-lemma #{r}",
                             argv=["check-lemma", *common, "--seed", str(sub_seed(seed, r, 0))])
            yield Invocation(f"check-ehrhard #{r}",
                             argv=["check-ehrhard", *common, "--seed", str(sub_seed(seed, r, 1))])
        for i, (kind, dim) in enumerate(PROFILE_SHAPES):
            body = json.dumps(_symmetric_body_doc(rng, dim, kind))
            yield Invocation(f"w-profile {kind} {dim}d #{r}",
                             argv=["w-profile", "--body", body,
                                   "--seed", str(sub_seed(seed, r, 2 + i))])


def check_slices(outcomes: list[Outcome]) -> list[str]:
    """Every verdict is ``holds``; suite summaries match their records."""
    errors = []
    for o in outcomes:
        command = o.invocation.argv[0]
        if command != "w-profile":
            errors += _check_suite([o], command.replace("check-", "") + "-summary")
        elif o.code != 0:
            errors.append(f"{o.invocation.label}: exit code {o.code} {o.error}")
        for rec in o.records if o.code == 0 else []:
            if rec.get("verdict") != "holds":
                errors.append(f"{o.invocation.label}: verdict {rec.get('verdict')}")
    return errors


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

BETA_DIMS = (2, 3, 4)
BETA_RESTARTS = 8
CURVE_N = 6
EXHAUSTIVE_K = 20
BALANCE_KINDS = ("ball", "axis_box", "ellipsoid")


def _balance_pair(label: str, vectors: np.ndarray, body_doc: dict, seed: int) -> Invocation:
    def call():
        from latgauss import balancing, convex

        body = convex.body_from_document(body_doc)
        exact = balancing.balance_exhaustive(vectors, body)
        yield {"op": "balance-exhaustive", "radius": exact.radius,
               "signs": list(exact.signs.signs)}
        heuristic = balancing.balance_heuristic(vectors, body, seed=seed)
        yield {"op": "balance-heuristic", "radius": heuristic.radius,
               "signs": list(heuristic.signs.signs)}

    return Invocation(label, call=call)


def balancing_stream(seed: int) -> Iterator[Invocation]:
    """Each round: three searches, one curve, and a 2^19-pattern scan per gauge kind.

    Every round holds each gauge kind and each dimension 2..4 once, so a
    round is a rotation. The three exhaustive scans are a fifth of the
    records, so the p90 operation lies inside their group.
    """
    for r in itertools.count():
        rng = _rng(seed, r)
        for n in BETA_DIMS:
            alphas = rng.uniform(0.4, 2.0, n)
            yield Invocation(f"beta n={n} #{r}",
                             argv=["beta", "--n", str(n), "--alphas", _floats(alphas),
                                   "--restarts", str(BETA_RESTARTS),
                                   "--seed", str(sub_seed(seed, r, n))])
        yield Invocation(f"beta --curve #{r}",
                         argv=["beta", "--curve", "--n", str(CURVE_N), "--restarts", "2",
                               "--seed", str(sub_seed(seed, r, 0))])
        for j, kind in enumerate(BALANCE_KINDS):
            d = 2 + (r + j) % 3
            yield _balance_pair(f"balance k={EXHAUSTIVE_K} {kind} #{r}",
                                rng.standard_normal((EXHAUSTIVE_K, d)),
                                _symmetric_body_doc(rng, d, kind), sub_seed(seed, r, 9 + j))


def check_balancing(outcomes: list[Outcome]) -> list[str]:
    """Search radius within the closed form; exhaustive radius within the heuristic's."""
    errors = []
    for o in outcomes:
        label = o.invocation.label
        if o.code != 0:
            errors.append(f"{label}: exit code {o.code} {o.error}")
            continue
        records = o.records
        for rec in records:
            if "formula_value" in rec and rec["radius"] > rec["formula_value"] + TOL:
                errors.append(f"{label}: search radius {rec['radius']} exceeds the "
                              f"closed form {rec['formula_value']}")
        if o.invocation.call is not None:
            exh, heur = records
            if exh["radius"] > heur["radius"] + 1e-12:
                errors.append(f"{label}: exhaustive radius {exh['radius']} exceeds "
                              f"heuristic radius {heur['radius']}")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload("theorem-suite", theorem_stream, check_theorem, rotation=4),
        Workload("lattice-oracles", lattice_stream, check_lattice, rotation=LATTICE_ROTATION),
        Workload("slice-checks", slice_stream, check_slices,
                 rotation=2 + SUITE_EVERY * len(PROFILE_SHAPES)),
        Workload("balancing", balancing_stream, check_balancing,
                 rotation=len(BETA_DIMS) + 1 + len(BALANCE_KINDS)),
    )
}
