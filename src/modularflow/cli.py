"""Command-line front end.

Subcommands:
  flow        evaluate the 2D flows at a point
  figure      emit one of the four flow-pattern figures
  transform   apply a modular / positive-generator action to a sampled function
  kernel      print the thermal two-point density or the regularized kernel
  verify      run a named verification suite and write its JSON report

Configuration comes from an optional JSON file ($MFL_CONFIG or the
subcommand's --config) with flags taking precedence; unknown keys in the
file are rejected.  All numeric output uses 17 significant digits, and
every file is written to a temporary name and renamed, so a failed run
leaves no partial output.

Exit codes: 0 success; 1 failed verification; 2 domain violation or bad
configuration; 3 I/O failure; 4 unresolved derivative; 5 unconverged
momentum quadrature.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from .cone_wedge import (
    FigureSpec,
    Region,
    SpacetimePoint,
    _fmt,
    emit_flow_figure,
    gamma_flow_2d,
    modular_flow_2d,
)
from .errors import DomainViolation, QuadratureError, ResolutionError
from .files import atomic_write
from .flow_maps import ThermalContext
from .verify import SUITES, report_json, run_suite
from .weyl_field import (
    FieldSpec,
    TestFunction,
    higher_transform,
    two_point_momentum,
    two_point_position,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_RESOLUTION = 4
EXIT_QUADRATURE = 5

_CONFIG_KEYS = {"beta", "epsilon", "grid", "output", "format"}
_GRID_KEYS = {"xmin", "xmax"}


@dataclass
class RunConfig:
    """Validated run configuration with file/flag layering."""

    beta: float = 1.0
    epsilon: float = 1e-4
    grid_xmin: float = -3.0
    grid_xmax: float = 3.0
    output: str | None = None
    format: str = "csv"

    def validate(self):
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive or inf, got {self.beta}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.grid_xmin < self.grid_xmax):
            raise ValueError("grid xmin must be below xmax")
        if self.grid_xmin != -self.grid_xmax:
            # figures span [-w, w] with w = (xmax - xmin)/2
            raise ValueError(
                f"grid xmin={self.grid_xmin} and xmax={self.grid_xmax} must be centred on 0"
            )
        if self.format not in ("csv", "json", "svg"):
            raise ValueError(f"format must be csv, json or svg, got {self.format!r}")
        return self

    def context(self) -> ThermalContext:
        return ThermalContext(beta=self.beta)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path) as fh:
            doc = json.load(fh)
        grid = doc.get("grid", {}) if isinstance(doc, dict) else None
        if not isinstance(grid, dict):
            raise ValueError(f"{path} must hold a JSON object, and its grid an object")
        unknown = sorted(set(doc) - _CONFIG_KEYS)
        unknown += [f"grid.{k}" for k in sorted(set(grid) - _GRID_KEYS)]
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        if any(isinstance(v, bool) for v in (*doc.values(), *grid.values())):
            raise ValueError(f"bad number in {path}: a JSON boolean")
        numbers = {k: doc[k] for k in ("beta", "epsilon") if k in doc}
        numbers.update((f"grid.{k}", v) for k, v in grid.items())
        for key, v in numbers.items():
            # "inf" is beta's one documented string
            if isinstance(v, str) and (key, v) != ("beta", "inf"):
                raise ValueError(f"bad number in {path}: {key} is the JSON string {v!r}")
        cfg = RunConfig()
        try:  # float() of a list, an object or null
            if "beta" in doc:
                cfg.beta = math.inf if doc["beta"] == "inf" else float(doc["beta"])
            if "epsilon" in doc:
                cfg.epsilon = float(doc["epsilon"])
            cfg.grid_xmin = float(grid.get("xmin", cfg.grid_xmin))
            cfg.grid_xmax = float(grid.get("xmax", cfg.grid_xmax))
        except TypeError as e:
            raise ValueError(f"bad number in {path}: {e}") from None
        for key in ("output", "format"):
            if key in doc:
                if not isinstance(doc[key], str):
                    raise ValueError(f"{key} in {path} must be a string, got {doc[key]!r}")
                setattr(cfg, key, doc[key])
        return cfg


def _load_config(args) -> RunConfig:
    path = args.config or os.environ.get("MFL_CONFIG")
    cfg = RunConfig.from_file(path) if path else RunConfig()
    if getattr(args, "beta", None) is not None:
        cfg.beta = math.inf if args.beta == "inf" else float(args.beta)
    for key in ("epsilon", "output", "format"):  # flags take precedence
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg.validate()


def cmd_flow(args) -> int:
    # flag rules before the config file is read, so a bad flag exits 2 even
    # with a missing file
    try:
        x0s, x1s = args.point.split(",")
        p = SpacetimePoint(float(x0s), float(x1s))
    except (ValueError, AttributeError):
        print(f"bad --point {args.point!r}; expected x0,x1", file=sys.stderr)
        return EXIT_DOMAIN
    if args.flow == "modular" and (args.u is None or args.tau is not None):
        print("modular flow needs --u and takes no --tau", file=sys.stderr)
        return EXIT_DOMAIN
    if args.flow == "gamma" and (args.tau is None or args.u is not None):
        print("gamma flow needs --tau and takes no --u", file=sys.stderr)
        return EXIT_DOMAIN
    ctx = _load_config(args).context()
    region = Region.FORWARD_CONE if args.region == "cone" else Region.RIGHT_WEDGE
    if args.flow == "modular":
        q = modular_flow_2d(ctx, region, args.u, p)
    else:
        q = gamma_flow_2d(ctx, region, args.tau, p)
    print(f"{_fmt(q.x0)},{_fmt(q.x1)}")
    return EXIT_OK


_FIGURES = {
    1: (Region.FORWARD_CONE, "modular"),
    2: (Region.RIGHT_WEDGE, "modular"),
    3: (Region.FORWARD_CONE, "gamma"),
    4: (Region.RIGHT_WEDGE, "gamma"),
}


def cmd_figure(args) -> int:
    cfg = _load_config(args)
    ctx = cfg.context()
    region, flow = _FIGURES[args.which]
    out = cfg.output or f"figure{args.which}.{cfg.format}"
    spec = FigureSpec(window=0.5 * (cfg.grid_xmax - cfg.grid_xmin))
    emit_flow_figure(ctx, region, flow, out, fmt=cfg.format, spec=spec)
    print(out)
    return EXIT_OK


def cmd_transform(args) -> int:
    cfg = _load_config(args)
    ctx = cfg.context()
    f = TestFunction.load(args.input)
    which, param = ("modular", args.u) if args.u is not None else ("gamma", args.tau)
    g = higher_transform(ctx, args.n, which, param, f)
    out = cfg.output or (os.path.splitext(args.input)[0] + ".out.json")
    g.save(out)
    print(out)
    return EXIT_OK


def cmd_kernel(args) -> int:
    # flag rules before the config file is read, as in cmd_flow
    if args.p is not None and args.epsilon is not None:
        print("--epsilon regulates the position kernel (--xi) only", file=sys.stderr)
        return EXIT_DOMAIN
    if args.xi is not None and args.n != 0:
        print("the position kernel is available for index 0 only", file=sys.stderr)
        return EXIT_DOMAIN
    cfg = _load_config(args)
    ctx = cfg.context()
    if args.p is not None:
        print(_fmt(two_point_momentum(ctx, FieldSpec(args.n), args.p)))
        return EXIT_OK
    val = two_point_position(ctx, args.xi, cfg.epsilon)
    print(f"{_fmt(val.real)},{_fmt(val.imag)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if not math.isfinite(cfg.beta):
        raise DomainViolation("verification suites need a finite beta, got beta=inf")
    cases = run_suite(args.suite, beta=cfg.beta)
    text = report_json(cases)
    out = cfg.output or "verify_report.json"
    atomic_write(out, text)
    failed = [c for c in cases if not c.passed]
    for c in cases:
        status = "pass" if c.passed else "FAIL"
        print(f"{status} {c.check}: {_fmt(c.lhs)} vs {_fmt(c.rhs)}")
    print(f"{len(cases) - len(failed)}/{len(cases)} checks passed -> {out}")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mfl",
        description="thermal modular flows: evaluate, transform, verify",
    )
    # each subcommand takes only the flags it reads; config-file keys are
    # shared by all of them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (default: $MFL_CONFIG)")
    common.add_argument("--beta", help="inverse temperature (number or 'inf')")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--output", "-o", help="output path")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", parents=[common], help="evaluate a 2D flow at a point")
    p.add_argument("--region", choices=("cone", "wedge"), required=True)
    p.add_argument("--flow", choices=("modular", "gamma"), required=True)
    p.add_argument("--u", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--point", required=True, help="x0,x1")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("figure", parents=[common, writes], help="emit a flow-pattern figure")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--format", choices=("csv", "json", "svg"))
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "transform", parents=[common, writes], help="transform a sampled function"
    )
    p.add_argument("input", help="TestFunction JSON file")
    p.add_argument("--n", type=int, default=0, help="field scaling index")
    param = p.add_mutually_exclusive_group(required=True)
    param.add_argument("--u", type=float)
    param.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("kernel", parents=[common], help="print two-point kernels")
    p.add_argument("--n", type=int, default=0)
    arg = p.add_mutually_exclusive_group(required=True)
    arg.add_argument("--p", type=float, help="momentum argument")
    arg.add_argument("--xi", type=float, help="position argument")
    p.add_argument("--epsilon", type=float, help="position-kernel regulator")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", parents=[common, writes], help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.set_defaults(func=cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing leaves it as
    it was.  Its verify choices are verify.SUITES as they stood then."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainViolation as e:
        print(f"domain violation: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResolutionError as e:
        print(f"resolution failure: {e}", file=sys.stderr)
        return EXIT_RESOLUTION
    except QuadratureError as e:
        print(f"quadrature failure: {e}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
