"""Command-line front end. Every subcommand is seeded and reproducible:
identical (command, seed, inputs) produce a byte-identical report stream.

Exit codes: 0 when nothing was violated, 2 when any check reports a
violation (flip with --expect-violation where a violation is the point of
the demonstration), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np
from scipy import integrate

from . import balancing, convex, gaussian, lattice as lat, minkowski
from .errors import LatgaussError

DEFAULT_SEED = 20259
# theta's identities: gamma_1([-theta/2, theta/2]) = 1/2 and its quadrature form
THETA_INTERVAL_TOL = 1e-10
THETA_QUAD_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the report contract
    # reserves 2 for violations, so remap usage problems to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_json_arg(text: str) -> dict:
    if text.strip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_body(text: str) -> convex.ConvexBody:
    return convex.body_from_document(_load_json_arg(text))


def _load_lattice(text: str) -> lat.Lattice:
    return lat.lattice_from_document(_load_json_arg(text))


def _load_coset(text: str) -> lat.Coset:
    doc = _load_json_arg(text)
    if "offset" in doc:
        return lat.coset_from_document(doc)
    return lat.Coset(lat.lattice_from_document(doc), np.zeros(len(doc["basis"])))


class _Emitter:
    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self.fields: list[str] | None = None
        self.violated = False

    def emit(self, record: dict) -> None:
        if record.get("verdict") == "violated":
            self.violated = True
        if self.fmt == "csv":
            if self.fields is None:
                self.fields = sorted(record)
                self.stream.write(",".join(self.fields) + "\n")
            row = []
            for k in self.fields:
                v = record.get(k)
                if isinstance(v, (list, tuple)):
                    v = ";".join(repr(float(x)) for x in v)
                row.append("" if v is None else str(v))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(row)
            self.stream.write(buf.getvalue())
        else:
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> _Parser:
    parser = _Parser(prog="latgauss",
                     description="lattices, Gaussian measure, balancing constants")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("theta", help="the half-mass interval width and its identities")
    _add_common(p, seed=False)

    p = sub.add_parser("measure", help="gaussian measure of a body document")
    _add_common(p)
    p.add_argument("--body", required=True)
    p.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--samples", type=int, default=1 << 16)

    p = sub.add_parser("minima", help="successive minima of a lattice")
    _add_common(p, seed=False)
    p.add_argument("--lattice", required=True)
    p.add_argument("--gauge-body", default=None,
                   help="symmetric body document for the gauge (default: unit ball)")

    p = sub.add_parser("covering", help="covering radius bracket")
    _add_common(p, seed=False)
    p.add_argument("--lattice", required=True)
    p.add_argument("--body", required=True)
    p.add_argument("--resolution", type=int, default=9)

    p = sub.add_parser("cvp", help="closest lattice point to a target")
    _add_common(p, seed=False)
    p.add_argument("--lattice", required=True)
    p.add_argument("--target", required=True, help="comma-separated coordinates")

    p = sub.add_parser("check-theorem", help="coset-meets-body suite")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--samples", type=int, default=1 << 16)
    p.add_argument("--body", default=None,
                   help="check one explicit instance instead of a seeded suite")
    p.add_argument("--coset", default=None,
                   help="coset document for the explicit instance")

    p = sub.add_parser("check-lemma", help="subspace slice measure suite")
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--samples", type=int, default=1 << 16)
    p.add_argument("--max-dim", type=int, default=4)

    p = sub.add_parser("check-ehrhard", help="interpolation inequality suite")
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--samples", type=int, default=1 << 16)
    p.add_argument("--max-dim", type=int, default=4)

    p = sub.add_parser("w-profile", help="slice-measure profile of a body")
    _add_common(p)
    p.add_argument("--body", required=True)
    p.add_argument("--grid-size", type=int, default=201)
    p.add_argument("--samples", type=int, default=1 << 14)
    p.add_argument("--emit-grid", action="store_true")

    p = sub.add_parser("sharpness", help="1-d tightness demonstration")
    _add_common(p, seed=False)
    p.add_argument("--t-factor", type=float, default=1.05,
                   help="lattice step as a multiple of theta (must exceed 1)")
    p.add_argument("--expect-violation", action="store_true",
                   help="exit 0 when the expected violation is certified")

    p = sub.add_parser("beta", help="balancing constant lower-bound search")
    _add_common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--alphas", default=None,
                   help="comma-separated formula coefficients: compare against "
                        "the closed-form ellipsoid value")
    p.add_argument("--u-body", default=None)
    p.add_argument("--v-body", default=None)
    p.add_argument("--curve", action="store_true",
                   help="emit the ball-vs-cube lower-bound curve up to --n")

    p = sub.add_parser("alpha-search", help="covering/minimum ratio lower-bound search")
    _add_common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--resolution", type=int, default=8)

    p = sub.add_parser("cube-curve", help="cube scale for measure 1/2 vs dimension")
    _add_common(p, seed=False)
    p.add_argument("--n-values", default="1,2,4,8,16,64,256,1024,10000,1000000",
                   help="comma-separated dimensions")
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_theta(args, out: _Emitter) -> None:
    th = gaussian.theta()
    interval = gaussian.measure_interval(-th / 2.0, th / 2.0)
    quad, _ = integrate.quad(lambda t: math.exp(-t * t / 2.0), 0.0, th / 2.0,
                             epsabs=1e-13, epsrel=1e-13)
    out.emit({
        "check": "theta",
        "value": th,
        "interval_measure_residual": abs(interval - 0.5),
        "quadrature_residual": abs(quad - math.sqrt(2.0 * math.pi) / 4.0),
        "verdict": "holds" if abs(interval - 0.5) <= THETA_INTERVAL_TOL and
                   abs(quad - math.sqrt(2.0 * math.pi) / 4.0) <= THETA_QUAD_TOL
                   else "violated",
    })


def _cmd_measure(args, out: _Emitter) -> None:
    body = _load_body(args.body)
    if args.method == "exact":
        est = gaussian.measure_exact(body)
    elif args.method == "mc":
        est = gaussian.measure_mc(body, args.samples, args.seed)
    else:
        est = gaussian.measure_auto(body, samples=args.samples, seed=args.seed)
    out.emit({"check": "measure", "kind": body.kind, "dim": body.dim,
              "value": est.value, "method": est.method,
              "half_width": est.half_width, "samples": est.samples})


def _cmd_minima(args, out: _Emitter) -> None:
    lattice = _load_lattice(args.lattice)
    body = (_load_body(args.gauge_body) if args.gauge_body
            else convex.Ball(1.0, dim=lattice.dim))
    lambdas, witnesses = lat.successive_minima(lattice, body)
    out.emit({"check": "minima", "lambdas": [float(x) for x in lambdas],
              "witnesses": [[float(v) for v in row] for row in witnesses]})


def _cmd_covering(args, out: _Emitter) -> None:
    lattice = _load_lattice(args.lattice)
    body = _load_body(args.body)
    lower, upper = lat.covering_radius(lattice, body, args.resolution)
    out.emit({"check": "covering", "lower": lower, "upper": upper,
              "resolution": args.resolution})


def _cmd_cvp(args, out: _Emitter) -> None:
    lattice = _load_lattice(args.lattice)
    target = np.array([float(x) for x in args.target.split(",")])
    point, coeff = lat.closest_vector(lattice, target, return_coefficients=True)
    out.emit({"check": "cvp", "point": [float(x) for x in point],
              "coefficients": [int(c) for c in coeff],
              "distance": float(np.linalg.norm(point - target))})


def _emit_suite(out: _Emitter, name: str, kind_key: str, rows, **fields) -> None:
    """One record per (trial, kind, report) row, then the suite's summary record."""
    counts = {"holds": 0, "violated": 0, "inconclusive": 0}
    for trial, kind, report in rows:
        counts[report.verdict] += 1
        out.emit({"trial": trial, **fields, kind_key: kind, **report.to_record()})
    out.emit({"check": f"{name}-summary", **counts,
              "verdict": "violated" if counts["violated"] else "holds"})


def _cmd_check_theorem(args, out: _Emitter) -> None:
    if (args.body is None) != (args.coset is None):
        raise ValueError("--body and --coset must be given together")
    if args.body is not None:
        body = _load_body(args.body)
        coset = _load_coset(args.coset)
        report = minkowski.check_theorem_instance(
            body, coset, mc_samples=args.samples, seed=args.seed)
        out.emit({"n": body.dim, "body": body.kind, **report.to_record()})
        return
    if args.n is None:
        raise ValueError("--n is required for suite mode")
    _emit_suite(out, "theorem", "body",
                minkowski.theorem_suite(args.n, args.trials, args.seed,
                                        mc_samples=args.samples),
                n=args.n)


def _cmd_check_lemma(args, out: _Emitter) -> None:
    _emit_suite(out, "lemma", "body", minkowski.lemma_suite(
        args.trials, args.seed, samples=args.samples, max_dim=args.max_dim))


def _cmd_check_ehrhard(args, out: _Emitter) -> None:
    _emit_suite(out, "ehrhard", "pair", minkowski.ehrhard_suite(
        args.trials, args.seed, samples=args.samples, max_dim=args.max_dim))


def _cmd_w_profile(args, out: _Emitter) -> None:
    body = _load_body(args.body)
    prof = minkowski.w_profile(body, grid_size=args.grid_size,
                               samples=args.samples, seed=args.seed)
    ok = prof.concavity_excess <= 0.0 and prof.identity_residual() <= prof.identity_tol
    if args.emit_grid:
        for x, g in zip(prof.xs, prof.g):
            out.emit({"check": "w-profile-grid", "x": float(x), "g": float(g)})
    out.emit({"check": "w-profile", "dim": prof.source_dim,
              "domain": [prof.domain[0], prof.domain[1]],
              "concavity_margin": prof.concavity_margin,
              "concavity_excess": prof.concavity_excess,
              "identity_lhs": prof.identity_lhs,
              "identity_rhs": prof.identity_rhs.value,
              "identity_residual": prof.identity_residual(),
              "identity_tol": prof.identity_tol,
              "verdict": "holds" if ok else "violated",
              "seed": args.seed})


def _cmd_sharpness(args, out: _Emitter) -> None:
    if args.t_factor <= 1.0:
        raise ValueError("--t-factor must exceed 1: no counterexample exists below theta")
    report = minkowski.sharpness_witness(args.t_factor * gaussian.theta())
    out.emit({"t_factor": args.t_factor, **report.to_record()})


def _cmd_beta(args, out: _Emitter) -> None:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.curve:
        for n in range(1, args.n + 1):
            start = time.perf_counter()
            u = convex.Ball(1.0, dim=n)
            v = convex.AxisBox(np.full(n, 0.5))
            radius, _ = balancing.beta_lower_bound_search(
                n, u, v, restarts=args.restarts, seed=args.seed)
            out.emit({"check": "beta-curve", "n": n, "radius": radius,
                      "seed": args.seed, "restarts": args.restarts,
                      "elapsed": round(time.perf_counter() - start, 6)})
        return
    n = args.n
    if args.alphas:
        alphas = [float(x) for x in args.alphas.split(",")]
        if len(alphas) != n:
            raise ValueError("--alphas length must equal --n")
        u = convex.Ball(1.0, dim=n)
        v = balancing.ellipsoid_for_formula(alphas)
        formula = balancing.beta_ellipsoid_formula(alphas)
    else:
        u = _load_body(args.u_body) if args.u_body else convex.Ball(1.0, dim=n)
        v = _load_body(args.v_body) if args.v_body else convex.AxisBox(np.full(n, 0.5))
        formula = None
    radius, vecs = balancing.beta_lower_bound_search(
        n, u, v, restarts=args.restarts, seed=args.seed)
    record = {"check": "beta", "n": n, "radius": radius, "seed": args.seed,
              "restarts": args.restarts,
              "witness": [float(x) for x in np.asarray(vecs).ravel()]}
    if formula is not None:
        record["formula_value"] = formula
        record["convention"] = balancing.ELLIPSOID_FORMULA_CONVENTION
    out.emit(record)


def _cmd_alpha_search(args, out: _Emitter) -> None:
    u = convex.Ball(1.0, dim=args.n)
    v = convex.AxisBox(np.full(args.n, 0.5))
    ratio, lattice = balancing.alpha_lower_bound_search(
        args.n, u, v, restarts=args.restarts, seed=args.seed,
        resolution=args.resolution)
    out.emit({"check": "alpha-search", "n": args.n, "ratio": ratio,
              "seed": args.seed, "restarts": args.restarts,
              "basis": [[float(x) for x in row] for row in lattice.basis]})


def _cmd_cube_curve(args, out: _Emitter) -> None:
    ns = [int(x) for x in args.n_values.split(",")]
    for n, s in minkowski.cube_scaling_curve(ns):
        record = {"check": "cube-curve", "n": n, "scale": s}
        record["ratio_to_sqrt_log"] = (s / math.sqrt(math.log(n))) if n >= 2 else None
        out.emit(record)


_COMMANDS = {
    "theta": _cmd_theta,
    "measure": _cmd_measure,
    "minima": _cmd_minima,
    "covering": _cmd_covering,
    "cvp": _cmd_cvp,
    "check-theorem": _cmd_check_theorem,
    "check-lemma": _cmd_check_lemma,
    "check-ehrhard": _cmd_check_ehrhard,
    "w-profile": _cmd_w_profile,
    "sharpness": _cmd_sharpness,
    "beta": _cmd_beta,
    "alpha-search": _cmd_alpha_search,
    "cube-curve": _cmd_cube_curve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    out = _Emitter(args.format, sys.stdout)
    try:
        _COMMANDS[args.command](args, out)
    except (OSError, ValueError, KeyError, LatgaussError) as e:
        sys.stderr.write(f"latgauss {args.command}: {e}\n")
        return 1
    if out.violated:
        if args.command == "sharpness" and args.expect_violation:
            return 0
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
