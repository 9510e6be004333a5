"""Flows of the forward light cone and the right wedge in 2D.

The 2D theory factorizes in light-cone coordinates xR = x0 + x1 and
xL = x0 - x1, so both flows act componentwise through the half-line maps:
the cone pairs two plus-rays, the wedge pairs a minus-ray (left coordinate)
with a plus-ray (right coordinate).  The backward cone and left wedge follow
by the reflections (x0, x1) -> (-x0, -x1) and x1 -> -x1 applied at the call
site; only the two primary regions are first-class here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .axb_group import TWO_PI
from .errors import DomainViolation
from .files import atomic_write
from .flow_maps import (
    RayDirection,
    ThermalContext,
    _require_finite,
    gamma_flow_ray,
    modular_flow_ray,
    modular_remainder,
)


@dataclass(frozen=True)
class SpacetimePoint:
    """2D point in time/space coordinates with light-cone views."""

    x0: float
    x1: float

    @property
    def xR(self) -> float:
        return self.x0 + self.x1

    @property
    def xL(self) -> float:
        return self.x0 - self.x1

    @staticmethod
    def from_lightcone(xL: float, xR: float) -> "SpacetimePoint":
        # halves first: near the float maximum xR + xL overflows, the halves'
        # sum does not, and halving is exact above the subnormals
        return SpacetimePoint(xR / 2.0 + xL / 2.0, xR / 2.0 - xL / 2.0)


class Region(Enum):
    FORWARD_CONE = "cone"
    RIGHT_WEDGE = "wedge"

    def contains(self, p: SpacetimePoint) -> bool:
        if self is Region.FORWARD_CONE:
            return p.xR > 0.0 and p.xL > 0.0
        return p.xR > 0.0 and p.xL < 0.0

    @property
    def left_direction(self) -> RayDirection:
        """Ray direction acting on the xL coordinate."""
        if self is Region.FORWARD_CONE:
            return RayDirection.PLUS
        return RayDirection.MINUS


def _flow_2d(ctx, region, ray, param, p) -> SpacetimePoint:
    """Image of p under ray at param, one ray call per light-cone coordinate.

    param is a float or a 1-D array; with an array the coordinates of the
    result are arrays over it.  When both coordinates leave the domain, the
    error names the one that leaves at the earlier parameter, xL on a tie.
    """
    images, errors = [], []
    for side, name, x, direction in (
        ("left", "xL", p.xL, region.left_direction),
        ("right", "xR", p.xR, RayDirection.PLUS),
    ):
        try:
            images.append(ray(ctx, direction, param, x))
        except DomainViolation as e:
            msg = f"{side} light-cone coordinate {name}={x}: {e}"
            errors.append((_exit_index(param, e.exit_param), msg, e.exit_param))
    if errors:
        _, msg, r = min(errors, key=lambda err: err[0])
        raise DomainViolation(msg, exit_param=r)
    return SpacetimePoint.from_lightcone(*images)


def _exit_index(param, r) -> int:
    """Index in param of the parameter r a ray map failed at; 0 for a failing point."""
    if r is None or np.ndim(param) == 0:
        return 0
    return int(np.argmax(np.isnan(param) if math.isnan(r) else param == r))


def modular_flow_2d(
    ctx: ThermalContext, region: Region, u: float, p: SpacetimePoint
) -> SpacetimePoint:
    """Modular flow of the region algebra applied to a point.

    Componentwise half-line modular flow on (xL, xR); points of the region
    stay in the region for every u.
    """
    return _flow_2d(ctx, region, modular_flow_ray, u, p)


def gamma_flow_2d(
    ctx: ThermalContext, region: Region, tau: float, p: SpacetimePoint
) -> SpacetimePoint:
    """Positive-generator flow of the region applied to a point.

    Translation by tau in both chart coordinates.  The admissible tau range
    is one-sided for the cone and two-sided for the wedge; violations name
    the failing light-cone component.
    """
    return _flow_2d(ctx, region, gamma_flow_ray, tau, p)


def remainder_terms(ctx: ThermalContext, region: Region, u, p: SpacetimePoint):
    """Closed-form deviation of the modular flow from time translation by -beta u.

    Returns (R0, R1) with modular_flow_2d(u, p) = (x0 - beta u + R0, x1 + R1);
    both terms are exponentially small deep inside the region.  u is a float
    or a 1-D array, as in modular_flow_2d: with an array R0 and R1 are
    arrays over it, each entry bit for bit the call with that one u.
    """
    _require_finite(ctx, "remainder_terms")
    u = np.asarray(u, dtype=float)

    def ray(sign, x):
        # remainder of the plus ray (sign 1); the minus ray's is -ray(-1, x)
        r = modular_remainder(ctx.beta, sign * u, sign * x)
        if not np.isfinite(r).all():
            raise DomainViolation(f"remainder undefined at x={x}: modular flow domain violated")
        return float(r) if r.ndim == 0 else r

    rR = ray(1.0, p.xR)
    if region is Region.FORWARD_CONE:
        rL = ray(1.0, p.xL)
        return (rR + rL) / 2.0, (rR - rL) / 2.0
    rL = ray(-1.0, p.xL)
    return (rR - rL) / 2.0, (rR + rL) / 2.0


def velocity_field(ctx: ThermalContext, region: Region, p: SpacetimePoint) -> float:
    """Velocity dx1/dx0 of the positive-generator flow at a point.

    |v| <= 1 in floats: tanh rounds to 1 once |2 pi x/beta| is above about
    19, so beyond about 3 beta from x1 = 0 (cone) or x0 = 0 (wedge) the
    field reads the speed of light.  A non-finite point raises DomainViolation.
    """
    if not (math.isfinite(p.x0) and math.isfinite(p.x1)):
        raise DomainViolation(f"velocity field needs a finite point, got ({p.x0}, {p.x1})")
    if not ctx.finite:
        return 0.0
    if region is Region.FORWARD_CONE:
        return -math.tanh(TWO_PI * p.x1 / ctx.beta)
    return -math.tanh(TWO_PI * p.x0 / ctx.beta)


@dataclass(frozen=True)
class FlowLine:
    """Sampled trajectory of one flow line."""

    params: np.ndarray
    points: np.ndarray  # shape (n, 2), columns (x0, x1)


def flow_line(
    ctx: ThermalContext,
    region: Region,
    flow: str,
    seed: SpacetimePoint,
    param_range: tuple[float, float],
    n_samples: int,
) -> FlowLine:
    """Trajectory of the seed under the named flow ("modular" or "gamma").

    Raises DomainViolation carrying the first parameter value at which the
    flow leaves its domain.
    """
    if flow not in ("modular", "gamma"):
        raise ValueError(f"flow must be 'modular' or 'gamma', got {flow!r}")
    lo, hi = param_range
    # a non-finite end, or ends whose distance overflows, fail at their parameter below
    with np.errstate(invalid="ignore", over="ignore"):
        params = np.linspace(lo, hi, n_samples)
    ray = modular_flow_ray if flow == "modular" else gamma_flow_ray
    try:
        q = _flow_2d(ctx, region, ray, params, seed)
    except DomainViolation as e:
        # a seed the ray maps reject fails at the first parameter
        r = float(params[0] if e.exit_param is None else e.exit_param)
        raise DomainViolation(
            f"flow line leaves the domain at parameter {r}: {e}", exit_param=r
        ) from None
    return FlowLine(params, np.column_stack([q.x0, q.x1]))


# past |y| = 700 sinh y and cosh y near the float maximum (they overflow
# from 710); there log|sinh y| = |y| - ln 2 + log(-expm1(-2|y|)) and
# log cosh y = |y| - ln 2 + log1p(e^{-2|y|}), whose last terms are 0 in
# floats (e^{-1400} underflows), so both logs are |y| - ln 2
_LOG_FAR = 700.0
_LN2 = math.log(2.0)


def _log_abs(fn, y: np.ndarray) -> np.ndarray:
    """log|fn(y)| for fn np.sinh or np.cosh: numpy's own up to |y| = _LOG_FAR."""
    out = np.abs(y)
    near = out <= _LOG_FAR
    out -= _LN2
    out[near] = np.log(np.abs(fn(y[near])))
    return out


def gamma_line_constant(ctx: ThermalContext, region: Region, p: SpacetimePoint) -> float:
    """Integration constant of the closed-form positive-generator flow line.

    Cone lines satisfy x0 = -(beta/2pi) log|sinh(2pi x1/beta)| + C away from
    the time axis; wedge lines satisfy x1 = -(beta/2pi) log(cosh(2pi x0/beta)) + C.
    Past |2pi x/beta| = 700 both logs are |2pi x/beta| - ln 2 (see _LOG_FAR).
    A non-finite point, or a constant beyond the float range, raises
    DomainViolation.
    """
    _require_finite(ctx, "gamma_line_constant")
    b = ctx.beta / TWO_PI
    cone = region is Region.FORWARD_CONE
    y = (p.x1 if cone else p.x0) / b
    if abs(y) > _LOG_FAR:
        log_f = abs(y) - _LN2
    elif not cone:
        log_f = math.log(math.cosh(y))
    elif y == 0.0:
        raise DomainViolation("cone flow line through the time axis has no finite constant")
    else:
        log_f = math.log(abs(math.sinh(y)))
    c = (p.x0 if cone else p.x1) + b * log_f
    if not math.isfinite(c):  # NaN from a NaN point, inf from one at or near inf
        raise DomainViolation(f"gamma line through ({p.x0}, {p.x1}) has no finite constant")
    return c


@dataclass(frozen=True)
class FigureSpec:
    """Deterministic sampling plan for one flow-pattern figure; each figure
    places its n_lines seeds itself."""

    n_lines: int = 12
    n_samples: int = 129
    param_span: float = 1.0  # modular figures: u in [-span, span]
    window: float | None = None  # half-width of the emitted window, default 3 beta


def _default_window(ctx: ThermalContext, spec: FigureSpec) -> float:
    """spec.window, or 3 beta; at beta = inf the window must be given."""
    if spec.window is not None:
        return spec.window
    if not ctx.finite:
        raise DomainViolation(
            "the default figure window is 3 beta; at beta = inf give FigureSpec(window=...)"
        )
    return 3.0 * ctx.beta


def _modular_figure_lines(ctx, region, spec):
    """Modular flow lines from seeds swept over u in [-span, span]."""
    w = _default_window(ctx, spec)
    # seeds fan across the region's interior at fixed x0 (cone) or x1 (wedge)
    fracs = np.linspace(-0.9, 0.9, spec.n_lines)
    if region is Region.FORWARD_CONE:
        seeds = [SpacetimePoint(0.5 * w, 0.5 * w * f) for f in fracs]
    else:
        seeds = [SpacetimePoint(0.5 * w * f, 0.5 * w) for f in fracs]
    span = (-spec.param_span, spec.param_span)
    return [(s, flow_line(ctx, region, "modular", s, span, spec.n_samples)) for s in seeds]


def _gamma_figure_lines(ctx, region, spec):
    """Positive-generator flow lines from their closed forms.

    The cone's seeds sit at (c, 0.35 w) and the wedge's at (0, c), so
    consecutive seeds differ in the invariance direction only.  Lines are
    emitted on a coordinate grid shared by the whole family (x1 for the
    cone, x0 for the wedge) so the pattern's translation symmetry is exact:
    shifting a seed in the invariance direction shifts its polyline
    pointwise.  The log term on that grid is formed once per figure, and
    each line subtracts it from its constant.
    """
    _require_finite(ctx, "figure_lines(flow='gamma')")
    b = ctx.beta / TWO_PI
    w = _default_window(ctx, spec)
    out = []
    if region is Region.FORWARD_CONE:
        cs = np.linspace(-0.75 * w, 0.75 * w, spec.n_lines)
        x1 = np.geomspace(0.02 * w, w, spec.n_samples // 2)  # x1 > 0, dense near axis
        log_term = b * _log_abs(np.sinh, x1 / b)
        for c in cs:
            s = SpacetimePoint(c, 0.35 * w)
            x0 = gamma_line_constant(ctx, region, s) - log_term
            pts = np.column_stack([x0, x1])
            out.append((s, FlowLine(x1, pts)))
    else:
        cs = np.linspace(-1.25 * w, 0.25 * w, spec.n_lines)
        x0 = np.linspace(-w, w, spec.n_samples)
        log_term = b * _log_abs(np.cosh, x0 / b)
        for c in cs:
            s = SpacetimePoint(0.0, c)
            x1 = gamma_line_constant(ctx, region, s) - log_term
            pts = np.column_stack([x0, x1])
            out.append((s, FlowLine(x0, pts)))
    return out


def figure_lines(ctx: ThermalContext, region: Region, flow: str, spec: FigureSpec):
    """(seed, FlowLine) pairs for one figure."""
    if flow == "modular":
        return _modular_figure_lines(ctx, region, spec)
    if flow == "gamma":
        return _gamma_figure_lines(ctx, region, spec)
    raise ValueError(f"flow must be 'modular' or 'gamma', got {flow!r}")


class _Figure:
    """One figure's read-only lines and the "%.17g" strings of each line's
    x0 and x1, the only strings csv and svg both print."""

    __slots__ = ("lines", "xy")

    def __init__(self, lines: tuple, xy: list[tuple[list[str], list[str]]]):
        self.lines, self.xy = lines, xy


def _figure(lines) -> _Figure:
    """The lines, made read-only, and their x0 and x1 strings."""
    lines, memo = tuple(lines), {}
    for _, ln in lines:
        ln.params.flags.writeable = False
        ln.points.flags.writeable = False
    return _Figure(lines, [tuple(_strings(c, "%.17g", memo) for c in ln.points.T)
                           for _, ln in lines])


@functools.lru_cache(maxsize=4)  # the four flow patterns
def _emitted_figure(key: str, ctx, region, flow, spec) -> _Figure:
    """_figure(figure_lines(ctx, region, flow, spec)); failures are not cached.

    key is repr((ctx, spec)): arguments equal but printed apart, such as 0.0
    and -0.0, are then different figures.
    """
    return _figure(figure_lines(ctx, region, flow, spec))


def _strings(col: np.ndarray, spec: str, memo: dict) -> list[str]:
    """spec % x for each x of a float column, in one "%" over the column.

    memo maps column bits to their strings, so a column with another's bits
    is formatted once: a modular figure's parameter column repeats on every
    line, and a positive-generator figure's is its x1 or x0 column.
    """
    key = col.tobytes()
    s = memo.get(key)
    if s is None:
        s = memo[key] = ((spec + "\n") * len(col) % tuple(col.tolist())).splitlines()
    return s


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _render_csv(fig: _Figure) -> str:
    xy = fig.xy
    # x0's and x1's strings serve a parameter column with their bits
    memo = {c.tobytes(): s for (_, ln), pair in zip(fig.lines, xy)
            for c, s in zip(ln.points.T, pair)}
    rows = ["line_id,param,x0,x1,xR,xL"]
    for i, ((_, ln), (s0, s1)) in enumerate(zip(fig.lines, xy)):
        # xR and xL as numpy column sums: the per-element IEEE sums
        x0, x1 = ln.points.T
        param, xr, xl = (_strings(c, "%.17g", memo) for c in (ln.params, x0 + x1, x0 - x1))
        rows += map(",".join, zip([str(i)] * len(s0), param, s0, s1, xr, xl))
    return "\n".join(rows) + "\n"


# json.dumps(doc, indent=1) of the one document shape figures have, by template
_JSON_DOC = '{\n "region": %s,\n "flow": %s,\n "beta": %s,\n "lines": [%s]\n}\n'
_JSON_LINE = '\n  {\n   "id": %d,\n   "seed": [\n    %s,\n    %s\n   ],\n   "points": [%s]\n  }'
_JSON_POINTS = "\n    [\n     %s\n    ]\n   "  # a non-empty "points" list
_JSON_POINT_SEP = "\n    ],\n    [\n     "


def _render_json(fig: _Figure, ctx, region, flow) -> str:
    memo, items = {}, []
    for i, (seed, ln) in enumerate(fig.lines):
        x0, x1 = (_strings(c, "%r", memo) for c in ln.points.T)
        pts = _JSON_POINT_SEP.join(map(",\n     ".join, zip(x0, x1)))
        seed_text = map(json.dumps, (seed.x0, seed.x1))
        items.append(_JSON_LINE % (i, *seed_text, pts and _JSON_POINTS % pts))
    # json spells repr's nan, inf and -inf as NaN, Infinity and -Infinity; no
    # finite repr, key or json.dumps output here contains "nan" or "inf"
    body = ",".join(items).replace("nan", "NaN").replace("inf", "Infinity")
    beta = ctx.beta if ctx.finite else "inf"  # the spelling --beta takes; Infinity is not JSON
    return _JSON_DOC % (*map(json.dumps, (region.value, flow, beta)), body and body + "\n ")


def _render_svg(fig: _Figure, window: float, stroke_width: float) -> str:
    # world (x1, x0) -> svg (x, -y): time axis points up
    w = window
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(-w)} {_fmt(-w)} {_fmt(2 * w)} {_fmt(2 * w)}">\n'
    )
    cone = (
        f'<line x1="{_fmt(-w)}" y1="{_fmt(-w)}" x2="{_fmt(w)}" y2="{_fmt(w)}" '
        f'stroke="#888" stroke-width="{_fmt(stroke_width / 2)}"/>\n'
        f'<line x1="{_fmt(-w)}" y1="{_fmt(w)}" x2="{_fmt(w)}" y2="{_fmt(-w)}" '
        f'stroke="#888" stroke-width="{_fmt(stroke_width / 2)}"/>\n'
    )
    body = []
    for s0, s1 in fig.xy:
        # "%.17g" % -x is x's string with its sign toggled; nan prints unsigned
        pts = " ".join([f"{x},{y[1:]}" if y[0] == "-" else f"{x},{y}" if y == "nan"
                        else f"{x},-{y}" for x, y in zip(s1, s0)])
        body.append(
            f'<polyline fill="none" stroke="#000" '
            f'stroke-width="{_fmt(stroke_width)}" points="{pts}"/>\n'
        )
    return head + cone + "".join(body) + "</svg>\n"


def emit_flow_figure(
    ctx: ThermalContext,
    region: Region,
    flow: str,
    path: str,
    fmt: str = "csv",
    spec: FigureSpec = FigureSpec(),
) -> str:
    """Write one flow-pattern dataset (csv, json or svg); returns the path.

    CSV rows are line_id,param,x0,x1,xR,xL and SVG coordinates are
    (x1, -x0), every number printed as "%.17g".  JSON is the document
    {region, flow, beta, lines: [{id, seed, points}]} as json.dumps writes
    it with indent=1: floats in their shortest repr, and "beta": "inf" at
    beta = inf.  SVG lines are 0.01 beta wide, window/300 at beta = inf.
    Output is written to a temporary file and renamed, so no partial file is
    left behind on error.

    One process emitting a figure in several formats computes its lines and
    formats their numbers once: the last four figures are kept, keyed on the
    reprs of ctx and spec, so a spec with -0.0 where another has 0.0 is
    another figure.  Each keeps its lines, read-only, and the "%.17g"
    strings of x0 and x1, made when the figure is computed, which csv and
    svg both print (svg's -x0 is x0's string with its sign toggled).  The
    other columns and json's reprs are formatted at each emission, each
    distinct column once.  figure_lines itself computes the lines on every
    call.
    """
    fig = _emitted_figure(repr((ctx, spec)), ctx, region, flow, spec)
    if fmt == "csv":
        text = _render_csv(fig)
    elif fmt == "json":
        text = _render_json(fig, ctx, region, flow)
    elif fmt == "svg":
        w = _default_window(ctx, spec)
        text = _render_svg(fig, w, 0.01 * ctx.beta if ctx.finite else w / 300.0)
    else:
        raise ValueError(f"format must be csv, json or svg, got {fmt!r}")
    atomic_write(path, text)
    return path
