"""The three workloads: inputs drawn from the seed, one timed operation, checks.

Each workload has ``make(i)`` (inputs of operation i, a pure function of the
seed and i), ``run(inputs, clock)`` (the timed calls into modularflow;
returns the outputs and the ``clock`` seconds spent inside those calls) and
``check(inputs, outputs)`` (untimed; returns a list of failure messages).
``clock`` is the run's program clock: wall time less the time spent in the
host reference, which interrupts the program at a fixed interval.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import tempfile

import numpy as np

import oracle

VERIFY_SUITES = ("group-laws", "flows", "kernels", "kms", "thm22", "rates")
THM22_U = np.linspace(-1.0, 1.0, 21)
THM22_T = np.linspace(0.5, 6.0, 12)  # times beta


def _rng(seed, i):
    # operation i >= 0; the warm-up operation is i = -1
    return np.random.default_rng([seed, i + 1])


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class Workload:
    traced_ops = 16  # operations whose spans give the per-layer metrics
    setup_probes = 2  # fresh interpreters timed through import and warm-up

    def __init__(self, mf, seed, workdir, tracer):
        self.mf, self.seed, self.workdir, self.tracer = mf, seed, workdir, tracer

    def close(self):
        pass


class VerifyAll(Workload):
    """One ``mfl verify all`` pass, suite by suite through ``cli.main``, at a drawn beta."""

    name = "verify-all"
    traced_ops = 1
    setup_probes = 0  # a warm-up pass takes as long as an operation

    def make(self, i):
        rng = _rng(self.seed, i)
        iu = int(rng.choice([k for k in range(21) if k != 10]))  # u != 0
        return {"beta": _log_uniform(rng, 0.5, 2.0), "node": (iu, int(rng.integers(12)))}

    def run(self, inp, clock):
        outdir = tempfile.mkdtemp(dir=self.workdir, prefix="verify-")
        codes, elapsed = {}, 0.0
        for suite in VERIFY_SUITES:
            path = os.path.join(outdir, f"{suite}.json")
            argv = ["verify", suite, "--beta", repr(inp["beta"]), "-o", path]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = clock()
                codes[suite] = self.mf.cli.main(argv)
                elapsed += clock() - t0
            if os.path.exists(path):
                self.tracer.count("cli.report", os.path.getsize(path))
        return {"dir": outdir, "codes": codes}, elapsed

    def check(self, inp, out):
        try:
            return self._check(inp, out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, inp, out):
        errors = [f"{s}: exit status {c}" for s, c in out["codes"].items() if c != 0]
        reports = {}
        for suite in VERIFY_SUITES:
            with open(os.path.join(out["dir"], f"{suite}.json")) as fh:
                reports[suite] = json.load(fh)
            for case in reports[suite]:
                if not (case["pass"] is True and case["lhs"] <= case["rhs"]):
                    errors.append(f"{suite}/{case['check']}: {case['lhs']} > {case['rhs']}")
        beta = inp["beta"]
        (case,) = reports["thm22"]
        u, t = case["params"]["worst_at"]
        report_margin = -case["lhs"]
        lhs, rhs = oracle.bound_margin(beta, u, t)
        if rhs - lhs < -1e-9 or abs((rhs - lhs) - report_margin) > 1e-9:
            errors.append(f"thm22 worst_at {u, t}: margin {rhs - lhs} vs report {report_margin}")
        # a grid node with u != 0, where the bound is not trivially 0 <= 0
        iu, it = inp["node"]
        u, t = float(THM22_U[iu]), float(THM22_T[it] * beta)
        lhs, rhs = oracle.bound_margin(beta, u, t)
        rep = self._program_bound(beta, u, t)
        if (rhs - lhs < -1e-9 or abs(rep.lhs - lhs) > 1e-12 + 1e-5 * lhs
                or abs(rep.rhs - rhs) > 1e-12 * rhs):
            errors.append(f"thm22 node {u, t}: program {rep.lhs}/{rep.rhs}, own {lhs}/{rhs}")
        return errors

    def _program_bound(self, beta, u, t):
        mf = self.mf
        f = mf.TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
        g = mf.TestFunction.bump(-1.5 * beta, 0.5 * beta)
        return mf.verify.matrix_element_bound(
            mf.ThermalContext(beta=beta), mf.FieldSpec(0), f, g, u, t)


# momentum values for the two-point density check: the p = 0 limit, the
# small-|beta p| series branch, both signs, and the underflowing tail
DENSITY_BETA_P = (0.0, 3e-8, -3e-8, 1e-3, -0.7, 2.5, -40.0, 180.0, -750.0)


class FieldQueries(Workload):
    """One fresh (beta, f, g) per query through one fixed weyl_field/verify recipe."""

    name = "field-queries"
    oracle_every = 8  # queries checked against the direct-DFT and mpmath references

    def make(self, i):
        mf, rng = self.mf, _rng(self.seed, i)
        beta = _log_uniform(rng, 0.5, 2.0)
        hf, hg = rng.uniform(0.3, 0.6, 2) * beta
        cf = hf + rng.uniform(0.3, 1.2) * beta   # supp f in the right half-line
        cg = -hg - rng.uniform(0.1, 1.2) * beta  # supp g in the left half-line
        af, ag = rng.uniform(0.5, 1.2, 2)
        f = mf.TestFunction.bump(cf, hf, amplitude=af)
        g = mf.TestFunction.bump(cg, hg, amplitude=ag)
        return {
            "i": i, "beta": beta, "f": f, "g": g, "bumps": ((cf, hf, af), (cg, hg, ag)),
            # the modular flow of the right half-line acts there only: g's
            # mirror translate joins f for the transforms and their pairings
            "g_right": g.translate(-2.0 * cg),
            "u": rng.uniform(-0.4, 0.25), "tau": rng.uniform(0.05, 0.5) * beta,
            "bound_at": (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 6.0) * beta),
            "ctx": mf.ThermalContext(beta=beta),
        }

    def run(self, inp, clock):
        mf = self.mf
        ctx, spec, norm = inp["ctx"], mf.FieldSpec(0), mf.StateNormalization()
        f, g, gr, u, tau = inp["f"], inp["g"], inp["g_right"], inp["u"], inp["tau"]
        t0 = clock()
        out = {
            "o_fg": mf.omega2(ctx, spec, f, g),
            "o_gf": mf.omega2(ctx, spec, g, f),
            "o_ff": mf.omega2(ctx, spec, f, f),
            "k_fg": mf.symplectic_K(ctx, spec, f, g),
            "w_gf": mf.weyl_inner(ctx, spec, norm, g, f),
            "o_pair": mf.omega2(ctx, spec, f, gr),
            "k_pair": mf.symplectic_K(ctx, spec, f, gr),
        }
        mod_f, mod_g = mf.modular_transform(ctx, u, f), mf.modular_transform(ctx, u, gr)
        gam_f, gam_g = mf.gamma_transform(ctx, tau, f), mf.gamma_transform(ctx, tau, gr)
        out.update(
            o_mod=mf.omega2(ctx, spec, mod_f, mod_g),
            k_mod=mf.symplectic_K(ctx, spec, mod_f, mod_g),
            o_gam=mf.omega2(ctx, spec, gam_f, gam_g),
            k_gam=mf.symplectic_K(ctx, spec, gam_f, gam_g),
            higher=mf.higher_transform(ctx, 1, "modular", u, f),
            bound=mf.matrix_element_bound(ctx, spec, f, g, *inp["bound_at"]),
        )
        return out, clock() - t0

    def check(self, inp, out):
        errors = []

        def need(ok, what):
            if not ok:
                errors.append(what)

        need(abs(out["o_fg"] - out["o_gf"] - out["k_fg"]) <= 1e-10, "omega2 commutator != K")
        need(out["o_ff"].imag == 0.0 and out["o_ff"].real >= 0.0, f"omega2(f,f) = {out['o_ff']}")
        need(abs(out["w_gf"]) <= 1.0, f"|weyl_inner| = {abs(out['w_gf'])}")
        need(abs(out["o_mod"] - out["o_pair"]) <= 1e-6, "omega2 not modular invariant")
        need(abs(out["k_mod"] - out["k_pair"]) <= 1e-6, "K not modular invariant")
        need(all(np.isfinite(complex(out[k])) for k in ("o_gam", "k_gam")),
             "gamma-image pairings not finite")
        need(bool(np.all(np.isfinite(out["higher"].samples))), "higher_transform not finite")
        need(out["bound"].lhs <= out["bound"].rhs, f"bound {out['bound']}")
        if inp["i"] % self.oracle_every == 0:
            errors += self._check_references(inp, out)
        return errors

    def _check_references(self, inp, out):
        errors = []
        beta, f, g = inp["beta"], inp["f"], inp["g"]
        # the program's own sample nodes, closed-form values
        p = oracle.momentum_nodes(beta)
        dens = oracle.thermal_density(beta, p)
        tf, tg = (
            oracle.direct_transform(
                fn.x0, fn.dx, oracle.bump(fn.x0 + fn.dx * np.arange(len(fn.samples)), *bump), p)
            for fn, bump in zip((f, g), inp["bumps"])
        )
        ref_ff, ref_fg = oracle.pairing(dens, p, tf, tf), oracle.pairing(dens, p, tf, tg)
        if abs(out["o_ff"] - ref_ff) > 1e-9 * abs(ref_ff):
            errors.append(f"omega2(f,f) {out['o_ff']} vs direct DFT {ref_ff}")
        # omega2(f,g) of separated supports cancels to ~1e-6 of its integrand:
        # compare at the integrand's scale
        scale = oracle.pairing(np.abs(dens), p, np.abs(tf), np.abs(tg)).real
        if abs(out["o_fg"] - ref_fg) > 1e-12 * scale:
            errors.append(f"omega2(f,g) {out['o_fg']} vs direct DFT {ref_fg}")
        mf = self.mf
        ctx, spec = inp["ctx"], mf.FieldSpec(0)
        p = np.array(DENSITY_BETA_P) / beta
        got = mf.two_point_momentum(ctx, spec, p)
        for pk, gk in zip(p, got):
            want = oracle.density_mp(beta, float(pk))
            if abs(gk - want) > 1e-13 * abs(want) + 1e-300:
                errors.append(f"two_point_momentum({pk}) = {gk}, mpmath {want}")
        return errors


FIGURES = (("cone", "modular"), ("wedge", "modular"), ("cone", "gamma"), ("wedge", "gamma"))
FORMATS = ("csv", "json", "svg")
_SVG_POINTS = re.compile(r'<polyline [^>]*points="([^"]*)"')


class FlowFigures(Workload):
    """The four flow patterns in csv, json and svg through ``emit_flow_figure``."""

    name = "flow-figures"
    mp_points = 8  # points per modular line checked in mpmath

    def __init__(self, mf, seed, workdir, tracer):
        super().__init__(mf, seed, workdir, tracer)
        self.outdir = tempfile.mkdtemp(dir=workdir, prefix="figures-")

    def make(self, i):
        mf, rng = self.mf, _rng(self.seed, i)
        beta = _log_uniform(rng, 0.5, 2.0)
        spec = mf.FigureSpec(
            n_lines=int(rng.integers(4, 6)),
            n_samples=int(rng.integers(44, 65)),
            param_span=rng.uniform(0.5, 1.5),
            window=rng.uniform(2.0, 4.0) * beta,
        )
        return {"ctx": mf.ThermalContext(beta=beta), "spec": spec}

    def run(self, inp, clock):
        mf = self.mf
        ctx, spec = inp["ctx"], inp["spec"]
        paths = {}
        t0 = clock()
        for region, flow in FIGURES:
            for fmt in FORMATS:
                path = os.path.join(self.outdir, f"{region}-{flow}.{fmt}")
                paths[region, flow, fmt] = mf.emit_flow_figure(
                    ctx, mf.Region(region), flow, path, fmt=fmt, spec=spec)
        return paths, clock() - t0

    def check(self, inp, paths):
        errors = []
        for region, flow in FIGURES:
            try:
                lines = self._parse(paths, region, flow)
            except (OSError, ValueError, KeyError, IndexError) as e:
                errors.append(f"{region}/{flow}: unreadable output: {e}")
                continue
            errors += [f"{region}/{flow}: {m}" for m in self._check_figure(inp, region, flow, lines)]
        return errors

    def _parse(self, paths, region, flow):
        """Points per line from each format; raises when the formats disagree."""
        with open(paths[region, flow, "json"]) as fh:
            doc = json.load(fh)
        lines = [{"seed": ln["seed"], "points": np.array(ln["points"], dtype=float)}
                 for ln in doc["lines"]]
        with open(paths[region, flow, "csv"]) as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["line_id", "param", "x0", "x1", "xR", "xL"]:
            raise ValueError("csv header")
        table = np.array(rows[1:], dtype=float)
        with open(paths[region, flow, "svg"]) as fh:
            polylines = _SVG_POINTS.findall(fh.read())
        if len(polylines) != len(lines):
            raise ValueError(f"{len(polylines)} svg polylines for {len(lines)} lines")
        for k, ln in enumerate(lines):
            rows_k = table[table[:, 0] == k]
            svg = np.array([pair.split(",") for pair in polylines[k].split()], dtype=float)
            pts = ln["points"]
            if not (np.array_equal(rows_k[:, 2:4], pts)
                    and np.array_equal(svg, np.column_stack([pts[:, 1], -pts[:, 0]]))):
                raise ValueError(f"line {k}: csv, json and svg points differ")
            ln["params"] = rows_k[:, 1]
        return lines

    def _check_figure(self, inp, region, flow, lines):
        ctx, spec = inp["ctx"], inp["spec"]
        beta, b = ctx.beta, ctx.beta / (2.0 * math.pi)
        n = spec.n_samples // 2 if (region, flow) == ("cone", "gamma") else spec.n_samples
        if len(lines) != spec.n_lines or any(len(ln["points"]) != n for ln in lines):
            return [f"expected {spec.n_lines} lines of {n} points"]
        errors = []
        for k, ln in enumerate(lines):
            x0, x1 = ln["points"][:, 0], ln["points"][:, 1]
            if flow == "gamma":
                inv = (x0 + b * np.log(np.abs(np.sinh(x1 / b))) if region == "cone"
                       else x1 + b * np.log(np.cosh(x0 / b)))
                if np.max(np.abs(inv - inv[0])) > 1e-8:
                    errors.append(f"line {k}: invariant drifts by {np.max(np.abs(inv - inv[0]))}")
                continue
            errors += self._check_plan(ln, k, region, spec)
            xr, xl = x0 + x1, x0 - x1
            inside = (xr > 0) & ((xl > 0) if region == "cone" else (xl < 0))
            if not np.all(inside):
                errors.append(f"line {k}: {np.count_nonzero(~inside)} points outside the {region}")
            s0, s1 = ln["seed"]
            sr, sl = s0 + s1, s0 - s1
            for j in np.linspace(0, len(x0) - 1, self.mp_points).astype(int):
                u = float(ln["params"][j])
                want_r = oracle.modular_plus_mp(beta, u, sr)
                want_l = (oracle.modular_plus_mp(beta, u, sl) if region == "cone"
                          else -oracle.modular_plus_mp(beta, -u, -sl))
                scale = max(beta, abs(want_r), abs(want_l))
                if max(abs(xr[j] - want_r), abs(xl[j] - want_l)) > 1e-12 * scale:
                    errors.append(f"line {k} u={u}: ({xr[j]}, {xl[j]}) vs mpmath "
                                  f"({want_r}, {want_l})")
        return errors

    @staticmethod
    def _check_plan(ln, k, region, spec):
        """Seed and parameters of modular line k as the figure spec lays them out."""
        w = spec.window
        frac = -0.9 + 1.8 * k / (spec.n_lines - 1)
        seed = (0.5 * w, 0.5 * w * frac) if region == "cone" else (0.5 * w * frac, 0.5 * w)
        span = spec.param_span
        params = -span + 2.0 * span * np.arange(spec.n_samples) / (spec.n_samples - 1)
        if (max(abs(a - e) for a, e in zip(ln["seed"], seed)) > 1e-12 * w
                or np.max(np.abs(ln["params"] - params)) > 1e-12 * span):
            return [f"line {k}: seed or parameters off the figure plan"]
        return []

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VerifyAll, FieldQueries, FlowFigures)}
