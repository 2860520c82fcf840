"""Command-line surface: file ingestion, configuration, report emission.

Exit codes: 0 success, 1 error (usage errors included), 2 "not norming"
(so audits can script over families of sets). Every report embeds the tool
version and a verbatim config echo for reproducibility. Each subcommand
declares only the options its handler reads, spelled out in full; a setting
it does not take is echoed at its ``RunConfig`` default.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, bounds, entropy, fewnomial, stability
from .norming import (DEFAULT_GRID_BUDGET, DEFAULT_RANK_THRESHOLD, NotNormingError,
                      PointSet, fekete_select, lebesgue_constant, norming_constant)
from .spaces import report_json, space_from_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_NORMING = 2


@dataclass(frozen=True)
class RunConfig:
    grid_spacing: Optional[float] = None
    rank_threshold: float = DEFAULT_RANK_THRESHOLD
    lp_budget: int = DEFAULT_GRID_BUDGET
    cover_cap: int = entropy.DEFAULT_COVER_CAP
    c: Optional[float] = None
    seed: int = 0
    out: Optional[str] = None
    as_json: bool = True
    heuristic_cover: bool = False

    echo = report_json


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        grid_spacing=getattr(args, "grid", None),
        rank_threshold=getattr(args, "rank_tol", RunConfig.rank_threshold),
        lp_budget=getattr(args, "budget", RunConfig.lp_budget),
        cover_cap=getattr(args, "cover_cap", RunConfig.cover_cap),
        c=getattr(args, "c", None),
        seed=getattr(args, "seed", 0),
        out=getattr(args, "out", None),
        as_json=getattr(args, "json", True),
        heuristic_cover=getattr(args, "heuristic_cover", False),
    )
    for name in ("rank_threshold", "lp_budget", "cover_cap"):
        if getattr(cfg, name) <= 0:
            raise ValueError(f"config value {name} must be positive")
    if cfg.grid_spacing is not None and cfg.grid_spacing <= 0:
        raise ValueError("config value grid_spacing must be positive")
    return cfg


def load_space(path: str):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a space must be a JSON object")
    try:
        return space_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed space ({exc})") from exc


def load_points(path: str) -> PointSet:
    """Points from CSV rows or from JSON ``{"points": [...]}``, which may add the
    set's domain, ``"box": [[lo...], [hi...]]``; every error names the file."""
    box = None
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed JSON ({exc})") from exc
        if not isinstance(obj, dict) or "points" not in obj:
            raise ValueError(f"{path}: a points file must be a JSON object with key 'points'")
        rows, box = obj["points"], obj.get("box")
    else:
        rows = []
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
    try:
        return PointSet(rows, box)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(payload: dict, cfg: RunConfig, text: Optional[str] = None) -> None:
    report = {"version": __version__, "config": cfg.echo(), "result": payload}
    if cfg.as_json or text is None:
        rendered = json.dumps(report, indent=2, sort_keys=True)
    else:
        rendered = text
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)


# ---------------------------------------------------------------------------
# subcommands


def cmd_norming(args) -> int:
    cfg = _config_from_args(args)
    space = load_space(args.space)
    pts = load_points(args.points)
    rep = norming_constant(space, pts, grid_spacing=cfg.grid_spacing,
                           budget=cfg.lp_budget, rank_threshold=cfg.rank_threshold)
    _emit(rep.to_json(), cfg)
    return EXIT_OK if rep.norming else EXIT_NOT_NORMING


def cmd_lebesgue(args) -> int:
    cfg = _config_from_args(args)
    space = load_space(args.space)
    pts = load_points(args.points)
    value = lebesgue_constant(space, pts, grid_spacing=cfg.grid_spacing,
                              budget=cfg.lp_budget)
    _emit({"lebesgue_constant": value}, cfg)
    return EXIT_OK


def cmd_fekete(args) -> int:
    cfg = _config_from_args(args)
    space = load_space(args.space)
    pts = load_points(args.points)
    idx, det = fekete_select(space, pts, mode=args.mode)
    _emit({"indices": list(idx), "abs_det": det,
           "points": pts.points[list(idx)].tolist()}, cfg)
    return EXIT_OK


def cmd_span(args) -> int:
    cfg = _config_from_args(args)
    pts = load_points(args.points)
    profile = entropy.metric_span(pts, args.degree, exact_cap=cfg.cover_cap,
                                  heuristic=cfg.heuristic_cover)
    payload = profile.to_json()
    payload["certified"] = not cfg.heuristic_cover
    _emit(payload, cfg)
    return EXIT_OK


def _require(args, what: str, *dests: str) -> None:
    """A usage error naming the first of the flags ``what`` reads that is missing."""
    for dest in dests:
        if getattr(args, dest) in (None, ""):
            raise ValueError(f"{what} needs --{dest.replace('_', '-')}")


def cmd_bound(args) -> int:
    cfg = _config_from_args(args)
    name = args.name
    if name == "chebyshev":
        _emit({"name": name, "value": bounds.chebyshev(args.d, args.x)}, cfg)
        return EXIT_OK
    if name == "e":
        _emit({"name": name, "value": bounds.e_function(args.x)}, cfg)
        return EXIT_OK
    # per bound, the flags it reads that have no default, and its evaluation
    table = {
        "remez": (("mu",), lambda: bounds.remez_bound(args.d, args.mu)),
        "bg": (("lam",), lambda: bounds.bg_bound(args.n, args.d, args.lam)),
        "bg-envelope": (("lam",), lambda: bounds.bg_upper_envelope(args.n, args.d, args.lam)),
        "analytic": (("lam", "cc"), lambda: bounds.analytic_bound(args.n, args.lam, args.cc)),
        "rd-span": (("omega",), lambda: bounds.rd_span_bound(args.n, args.d, args.omega)),
        "nested": (("delta",), lambda: bounds.nested_bound(args.d, args.delta)),
        "curve": (("exponents",), lambda: bounds.curve_bound(
            args.n, args.d, [int(v) for v in args.exponents.split(",")])),
    }
    if name not in table:
        raise ValueError(f"unknown bound {name!r}")
    flags, evaluate = table[name]
    _require(args, f"bound {name}", *flags)
    _emit(evaluate().to_json(), cfg)
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _config_from_args(args)
    space = load_space(args.space)
    pts = load_points(args.points)
    names = [b for b in (args.bounds or "").split(",") if b]
    report = bounds.audit(space, pts, names, mu=args.mu, lam=args.lam,
                          delta=args.delta, grid_spacing=cfg.grid_spacing,
                          budget=cfg.lp_budget)
    _emit(report.to_json(), cfg, text=report.summary())
    return EXIT_OK


def cmd_tn(args) -> int:
    cfg = _config_from_args(args)
    value = fewnomial.tn_bound_1d(args.m, args.max_re_rate, args.len_i,
                                  args.meas_z, cfg.c)
    _emit({"name": "tn_1d", "value": value}, cfg)
    return EXIT_OK


def cmd_fewnomial(args) -> int:
    cfg = _config_from_args(args)
    exps = [[float(v) for v in grp.split(",")] for grp in args.exponents.split(";")]
    if args.form == "discrete":
        _require(args, "fewnomial --form discrete", "a_scalar", "b_scalar", "span")
        if any(len(e) != 1 or not e[0].is_integer() for e in exps):
            raise ValueError("fewnomial --form discrete needs one integer per --exponents group")
        value = fewnomial.discrete_fewnomial_bound(
            args.a_scalar, args.b_scalar, [int(e[0]) for e in exps],
            args.span, cfg.c)
    else:
        _require(args, f"fewnomial --form {args.form}", "a", "b", "meas_z")
        if args.form == "rectangle":
            value = fewnomial.rectangle_fewnomial_bound(
                _vec(args.a), _vec(args.b), exps, args.meas_z, cfg.c)
        else:
            body = fewnomial.LogBody.box(_vec(args.a), _vec(args.b))
            value = fewnomial.fewnomial_bound(exps, body, args.meas_z, cfg.c)
    _emit({"name": f"fewnomial_{args.form}", "value": value}, cfg)
    return EXIT_OK


def _vec(s: str) -> list[float]:
    return [float(v) for v in s.split(",")]


def cmd_lipschitz(args) -> int:
    cfg = _config_from_args(args)
    space = load_space(args.space)
    if args.experiment:
        pts = load_points(args.z1)
        mags = [float(v) for v in args.magnitudes.split(",")]
        rows = stability.perturbation_experiment(
            space, pts, mags, args.trials, cfg.seed,
            grid_spacing=cfg.grid_spacing, budget=cfg.lp_budget)
        _emit({"experiment": [r.to_json() for r in rows]}, cfg)
        return EXIT_OK
    if args.z2 is None:
        raise ValueError("--z2 is required unless --experiment is given")
    rep = stability.lipschitz_audit(space, load_points(args.z1), load_points(args.z2),
                                    grid_spacing=cfg.grid_spacing, budget=cfg.lp_budget)
    _emit(rep.to_json(), cfg)
    return EXIT_OK


def cmd_estimate_c(args) -> int:
    cfg = _config_from_args(args)
    est = fewnomial.estimate_c(args.trials, args.m_max, args.rate_box, cfg.seed)
    _emit(est.to_json(), cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_grid(p):
    p.add_argument("--grid", type=float, default=None, help="grid spacing h")
    p.add_argument("--budget", type=int, default=RunConfig.lp_budget,
                   help="max grid points")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="norming-lab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norming", help="norming constant of a finite set")
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True)
    _add_grid(p)
    p.add_argument("--rank-tol", type=float, default=RunConfig.rank_threshold,
                   dest="rank_tol")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_norming)

    p = sub.add_parser("lebesgue", help="Lebesgue constant of a unisolvent set")
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True)
    _add_grid(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lebesgue)

    p = sub.add_parser("fekete", help="max-|det| subset selection")
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fekete)

    p = sub.add_parser("span", help="metric (d,n)-span of a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cover-cap", type=int, default=RunConfig.cover_cap, dest="cover_cap")
    p.add_argument("--heuristic-cover", action="store_true", dest="heuristic_cover")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_span)

    p = sub.add_parser("bound", help="evaluate one closed-form bound")
    p.add_argument("--name", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--cc", type=float, default=None, help="analytic-space constant C")
    p.add_argument("--exponents", default="", help="comma-separated d_1,...,d_n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("audit", help="audit bounds against the exact constant")
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--bounds", default="", help="comma-separated bound names")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    _add_grid(p)
    p.add_argument("--text", action="store_false", dest="json",
                   help="print the findings summary instead of the JSON report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tn", help="1-D Turan-Nazarov bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-re-rate", type=float, required=True, dest="max_re_rate")
    p.add_argument("--len-i", type=float, required=True, dest="len_i")
    p.add_argument("--meas-z", type=float, required=True, dest="meas_z")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tn)

    p = sub.add_parser("fewnomial", help="fewnomial Remez-type bounds")
    p.add_argument("--form", choices=["theorem", "rectangle", "discrete"],
                   default="theorem")
    p.add_argument("--exponents", required=True,
                   help="semicolon-separated exponent vectors, e.g. '1,0;0,3.5'")
    p.add_argument("--a", default=None, help="box lower corner a1,...,an")
    p.add_argument("--b", default=None, help="box upper corner b1,...,bn")
    p.add_argument("--a-scalar", type=float, default=None, dest="a_scalar")
    p.add_argument("--b-scalar", type=float, default=None, dest="b_scalar")
    p.add_argument("--meas-z", type=float, default=None, dest="meas_z")
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fewnomial)

    p = sub.add_parser("lipschitz", help="Lipschitz stability audit")
    p.add_argument("--space", required=True)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", default=None)
    p.add_argument("--experiment", action="store_true")
    p.add_argument("--magnitudes", default="0.05")
    p.add_argument("--trials", type=int, default=20)
    _add_grid(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("estimate-c", help="empirical Turan-Nazarov constant")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--m-max", type=int, default=3, dest="m_max")
    p.add_argument("--rate-box", type=float, default=2.0, dest="rate_box")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate_c)

    # A prefix of a declared flag is not that flag: "span --c" must not
    # read as "--cover-cap", nor "bound --c" as "--cc".
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, usage errors 2
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except NotNormingError as exc:
        print(f"not norming: {exc}", file=sys.stderr)
        return EXIT_NOT_NORMING
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
