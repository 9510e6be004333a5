"""Command-line interface tests: exit-code contract, schemas, determinism."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from modularflow import cli
from modularflow.cli import (
    EXIT_DOMAIN, EXIT_OK, EXIT_QUADRATURE, EXIT_RESOLUTION, RunConfig, main,
)
from modularflow.errors import QuadratureError
from modularflow.cone_wedge import Region, SpacetimePoint, modular_flow_2d
from modularflow.flow_maps import ThermalContext
from modularflow.weyl_field import TestFunction

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig().validate()
        assert cfg.beta == 1.0
        assert cfg.epsilon == 1e-4

    @pytest.mark.parametrize("flag", [("--np", "17"), ("--pmax", "3")])
    def test_quadrature_flags_rejected(self, capsys, flag):
        # the verify suites and all other commands run on the default
        # momentum grid, so a grid flag would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["verify", "kernels", *flag])
        assert exc.value.code == EXIT_DOMAIN
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_file_and_flag_layering(self, tmp_path, capsys, monkeypatch):
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"beta": 2.0}))
        monkeypatch.setenv("MFL_CONFIG", str(cfgfile))
        # flag overrides file: beta 1 makes the pure-dilation value exact
        code, out, _ = run(
            capsys, "flow", "--beta", "1", "--region", "cone",
            "--flow", "modular", "--u", "0", "--point", "1,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "1,0"

    def test_config_flag_belongs_to_the_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"beta": 2.0}))
        code, out, _ = run(capsys, "kernel", "--config", str(cfgfile), "--p", "1")
        assert code == EXIT_OK
        assert out.strip() == "1.1565176427496657"  # 1/(1 - e^{-2}), not the beta = 1 value
        # a --config before the subcommand used to be dropped silently
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfgfile), "kernel", "--p", "1"])
        assert exc.value.code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "doc,key", [({"epsilo": 1e-3}, "epsilo"), ({"grid": {"xmn": -2.0}}, "grid.xmn")]
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, doc, key):
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps(doc))
        code, out, err = run(capsys, "kernel", "--config", str(cfgfile), "--p", "1")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert key in err

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"beta": -3.0}))
        code, _, err = run(
            capsys, "flow", "--config", str(cfgfile), "--region", "cone",
            "--flow", "modular", "--u", "0", "--point", "1,0",
        )
        assert code == EXIT_DOMAIN
        assert "beta" in err

    # each was accepted and then ignored, exiting 0
    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--region", "cone", "--flow", "modular", "--u", "0",
             "--point", "1,0", "--format", "svg", "-o", "x.txt", "--epsilon", "3"),
            ("kernel", "--p", "1", "-o", "x.txt"),
            ("kernel", "--p", "1", "--format", "json"),
            ("verify", "rates", "--format", "svg"),
            ("verify", "rates", "--epsilon", "7"),
            ("transform", "in.json", "--u", "0", "--format", "csv"),
            ("transform", "in.json", "--u", "0", "--epsilon", "1"),
            ("figure", "--which", "1", "--epsilon", "1"),
        ],
    )
    def test_flags_a_command_does_not_read_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_DOMAIN
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    def test_config_keys_shared_by_every_command(self, tmp_path, capsys):
        # a file's epsilon and format do not make a momentum kernel fail
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"epsilon": 1e-3, "format": "svg"}))
        code, out, _ = run(capsys, "kernel", "--config", str(cfgfile), "--p", "1")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_verify_choices_are_the_suites(self, tmp_path, monkeypatch, capsys):
        # the subcommand offers verify.SUITES plus "all", not a copied list
        from modularflow import verify

        monkeypatch.setitem(verify.SUITES, "empty", lambda beta: [])
        # the parser reads the suites when it is built
        cli._parser.cache_clear()
        try:
            out = tmp_path / "report.json"
            code, stdout, _ = run(capsys, "verify", "empty", "-o", str(out))
        finally:
            cli._parser.cache_clear()
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == []
        assert "0/0 checks passed" in stdout

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        # main parses with one parser per process; build_parser stays fresh
        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "kernel", "--p", "1")[0] == EXIT_OK
        assert len(calls) == 1
        assert real() is not real()

    @pytest.mark.parametrize(
        "argv", [["verify", "--help"], ["verify", "nope"], ["--help"], ["figure", "--which", "7"]]
    )
    def test_shared_parser_prints_a_fresh_parsers_text(self, capsys, argv):
        texts = []
        for parse in (main, cli.build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            texts.append((exc.value.code, capsys.readouterr()))
        assert texts[0] == texts[1] == texts[2]

    def test_off_centre_grid_rejected(self, tmp_path, capsys):
        # figures span [-w, w]; a grid on [0, 6] used to draw [-3, 3] silently
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"grid": {"xmin": 0, "xmax": 6}}))
        out = tmp_path / "f1.csv"
        code, stdout, err = run(
            capsys, "figure", "--config", str(cfgfile), "--which", "1", "-o", str(out)
        )
        assert code == EXIT_DOMAIN
        assert stdout == ""
        assert "xmin" in err and "xmax" in err
        assert not out.exists()


class TestFlowCommand:
    def test_identity_case(self, capsys):
        code, out, _ = run(
            capsys, "flow", "--region", "cone", "--flow", "modular",
            "--u", "0", "--point", "1,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "1,0"

    @pytest.mark.parametrize("u", ["-100", "-200", "-1000"])
    def test_fixed_point_past_2pi_u_700(self, capsys, u):
        # the origin lies on both rays' fixed point, for every finite u
        code, out, _ = run(
            capsys, "flow", "--region", "cone", "--flow", "modular", f"--u={u}", "--point", "0,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "0,0"

    def test_gamma_origin_path(self, capsys):
        code, out, _ = run(
            capsys, "flow", "--beta", format(TWO_PI, ".17g"), "--region", "cone",
            "--flow", "gamma", "--tau", "1", "--point", "0,0",
        )
        assert code == EXIT_OK
        x0, x1 = map(float, out.strip().split(","))
        assert x0 == pytest.approx(math.log(2.0), abs=1e-15)
        assert x1 == 0.0

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(
            capsys, "flow", "--region", "wedge", "--flow", "modular",
            "--u", "5", "--point", "0.5,0",
        )
        assert code == EXIT_DOMAIN
        assert "must be positive" in err

    @pytest.mark.parametrize(
        "flow,param,value",
        [("modular", "--u", "nan"), ("gamma", "--tau", "inf"), ("modular", "--u", "inf")],
    )
    def test_non_finite_parameter_exit_2(self, capsys, flow, param, value):
        code, out, err = run(
            capsys, "flow", "--region", "cone", "--flow", flow,
            param, value, "--point", "1,0",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "region,flow,param,point",
        [
            ("wedge", "gamma", ("--tau", "1"), "nan,1"),
            ("cone", "modular", ("--u", "0.3"), "1,inf"),
        ],
    )
    def test_non_finite_point_exit_2(self, capsys, region, flow, param, point):
        code, out, err = run(
            capsys, "flow", "--region", region, "--flow", flow, *param,
            f"--point={point}",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "point x must be finite" in err

    @pytest.mark.parametrize(
        "flow,params,named",
        [
            ("gamma", ("--tau", "0.1", "--u", "5"), "--u"),
            ("modular", ("--u", "0.3", "--tau", "7"), "--tau"),
        ],
    )
    def test_other_flows_parameter_exit_2(self, capsys, flow, params, named):
        # the other flow's parameter used to be ignored
        code, out, err = run(
            capsys, "flow", "--region", "cone", "--flow", flow, *params, "--point", "1,0"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"takes no {named}" in err

    # a broken flag rule exits 2 before the config file is opened, so a
    # missing file is never reported as an I/O error (exit 3)
    @pytest.mark.parametrize(
        "params, named",
        [
            (("--flow", "modular", "--tau", "1", "--point", "1,0"), "modular flow needs --u"),
            (("--flow", "gamma", "--u", "1", "--point", "1,0"), "gamma flow needs --tau"),
            (("--flow", "gamma", "--tau", "1", "--point", "1;0"), "bad --point"),
        ],
    )
    def test_flag_rules_checked_before_the_config(self, tmp_path, capsys, params, named):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "flow", "--config", missing, "--region", "cone", *params)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert named in err

    def test_large_negative_u(self, capsys):
        code, out, _ = run(
            capsys, "flow", "--region", "cone", "--flow", "modular",
            "--u", "-200", "--point", "1,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "200.99970250939845,0"

    @pytest.mark.parametrize(
        "args, named",
        [
            # e^{2 pi 200} overflowed math.exp at beta = inf: a traceback, exit 1
            (("--beta", "inf", "--u=-200", "--point", "1,0"), "at u=-200.0, got x=1.0"),
            # 1e300 e^{200 pi} printed inf,nan with a RuntimeWarning, exit 0
            (("--beta", "inf", "--u=-100", "--point", "1e300,0"), "at u=-100.0, got x=1e+300"),
            # x - beta u lies beyond the float maximum at beta = 1
            (("--u=-1e307", "--point", "1.7e308,0"), "at u=-1e+307, got x=1.7e+308"),
        ],
    )
    def test_image_beyond_float_range_exit_2(self, capsys, args, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "flow", "--region", "cone", "--flow", "modular", *args)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "leaves the float range" in err
        assert named in err

    @pytest.mark.parametrize(
        "args, want",
        [
            # e^{300 pi} overflows, the image 1e-300 e^{300 pi} does not
            (("--beta", "inf", "--u=-150", "--point", "1e-300,0"), "2.055446383017698e+109,0"),
            # x/b overflows, and so did xR + xL for the spacetime point
            (("--u", "0.3", "--point", "1e308,0"), "1e+308,0"),
            (("--u=-0.5", "--point", "1.7e308,0"), "1.6999999999999999e+308,0"),
            # x/b - 2 pi u was inf - inf; the image is (beta/2pi) log 2 on both rays
            (("--u", "1e308", "--point", "1e308,0"), "0.1103178000763258,0"),
        ],
    )
    def test_finite_image_after_overflowing_intermediate(self, capsys, args, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "flow", "--region", "cone", "--flow", "modular", *args)
        assert code == EXIT_OK
        assert out.strip() == want

    def test_negative_values_joined_with_equals(self, capsys):
        # argparse takes a bare -1e-3 or -0.5,1 for an option; --flag=value works
        code, out, _ = run(
            capsys, "flow", "--region", "wedge", "--flow", "modular",
            "--u=-1e-3", "--point=-0.5,1",
        )
        assert code == EXIT_OK
        q = modular_flow_2d(
            ThermalContext(), Region.RIGHT_WEDGE, -1e-3, SpacetimePoint(-0.5, 1.0)
        )
        assert out.strip() == f"{q.x0:.17g},{q.x1:.17g}"

    def test_subnormal_tau_at_large_beta(self, capsys):
        code, out, err = run(
            capsys, "flow", "--region", "wedge", "--flow", "gamma", "--beta", "20",
            "--tau=-5e-324", "--point", "0,1",
        )
        assert code == EXIT_OK, err
        assert out.strip() == "0,1"

    def test_bad_point_exit_2(self, capsys):
        code, _, err = run(
            capsys, "flow", "--region", "cone", "--flow", "modular",
            "--u", "0", "--point", "oops",
        )
        assert code == EXIT_DOMAIN


class TestFigureCommand:
    def test_figure_one_exists_with_schema(self, tmp_path, capsys):
        out = tmp_path / "f1.json"
        code, _, _ = run(
            capsys, "figure", "--which", "1", "--format", "json", "-o", str(out)
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["region"] == "cone" and doc["flow"] == "modular"
        assert len(doc["lines"]) == 12

    def test_figures_three_four_invariance_direction(self, tmp_path, capsys):
        # figure 3 is the cone positive-generator pattern, 4 the wedge one
        for which, region, flow in ((3, "cone", "gamma"), (4, "wedge", "gamma")):
            out = tmp_path / f"f{which}.json"
            code, _, _ = run(
                capsys, "figure", "--which", str(which), "--format", "json",
                "-o", str(out),
            )
            assert code == EXIT_OK
            doc = json.loads(out.read_text())
            assert (doc["region"], doc["flow"]) == (region, flow)

    @pytest.mark.parametrize("which", [3, 4])
    def test_positive_generator_figures_on_a_wide_grid(self, tmp_path, capsys, which):
        # a +-400 grid: figure 3 exited 1 on an OverflowError, figure 4 wrote -inf
        cfgfile = tmp_path / "conf.json"
        cfgfile.write_text(json.dumps({"grid": {"xmin": -400, "xmax": 400}}))
        for fmt in ("csv", "json", "svg"):
            out = tmp_path / f"f{which}.{fmt}"
            code, _, err = run(capsys, "figure", "--config", str(cfgfile), "--which",
                               str(which), "--format", fmt, "-o", str(out))
            assert (code, err) == (EXIT_OK, "")
            text = out.read_text()
            assert "inf" not in text.lower() and "nan" not in text.lower()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "figure", "--which", "2", "-o", str(a))[0] == EXIT_OK
        assert run(capsys, "figure", "--which", "2", "-o", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_svg(self, tmp_path, capsys):
        out = tmp_path / "f3.svg"
        code, _, _ = run(
            capsys, "figure", "--which", "3", "--format", "svg", "-o", str(out)
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize("which", ["3", "4"])
    def test_positive_generator_figures_need_finite_beta(self, tmp_path, capsys, which):
        # the closed-form lines divide by beta/2pi: figure 4 used to write
        # all-NaN columns with exit 0, figure 3 to blame the time axis
        out = tmp_path / f"f{which}.csv"
        code, _, err = run(capsys, "figure", "--which", which, "--beta", "inf", "-o", str(out))
        assert code == EXIT_DOMAIN
        assert "figure_lines(flow='gamma') requires finite beta" in err
        assert not out.exists()

    # the vacuum modular flows scale xR by e^{-2pi u} and xL by e^{-2pi u}
    # (cone) or e^{2pi u} (wedge)
    @pytest.mark.parametrize("which, left", [("1", -1.0), ("2", 1.0)])
    def test_modular_figures_at_infinite_beta_are_dilations(self, tmp_path, capsys, which, left):
        out = tmp_path / f"f{which}.csv"
        code, _, _ = run(capsys, "figure", "--which", which, "--beta", "inf", "-o", str(out))
        assert code == EXIT_OK
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        for k in range(12):
            _, u, x0, x1, _, _ = rows[rows[:, 0] == k].T
            seed_r, seed_l = (x0 + x1)[u == 0.0], (x0 - x1)[u == 0.0]  # u = 0 is a sample
            xr = np.exp(-TWO_PI * u) * seed_r
            xl = np.exp(left * TWO_PI * u) * seed_l
            scale = np.maximum(np.abs(xr), np.abs(xl))
            assert np.all(np.abs(x0 - (xr + xl) / 2) <= 1e-14 * scale)
            assert np.all(np.abs(x1 - (xr - xl) / 2) <= 1e-14 * scale)


_BUMP = TestFunction.bump(1.5, 0.5).to_dict()
# the first five used to exit 1, the code of a failed verification, with a
# traceback; "compact_support string" ran and exited 0, reading "false" as
# true.  Of the later six, "beta true", "output number", "x0 true" and
# "sample false" ran and exited 0 (a boolean read as 1 or 0, the number as
# the file name "3"); the other two were refused only for the value read,
# xmin 0 not centred and the format "None"
MALFORMED = {
    "config list": ("flow", [1, 2]),
    "config grid number": ("flow", {"grid": 3}),
    "config beta list": ("flow", {"beta": [1]}),
    "function without samples": ("transform", {k: v for k, v in _BUMP.items() if k != "samples"}),
    "function list": ("transform", [1]),
    "compact_support string": ("transform", {**_BUMP, "compact_support": "false"}),
    "config beta true": ("flow", {"beta": True}),
    "config grid xmin false": ("flow", {"grid": {"xmin": False, "xmax": 3.0}}),
    "config output number": ("flow", {"output": 3}),
    "config format null": ("flow", {"format": None}),
    "function x0 true": ("transform", {**_BUMP, "x0": True}),
    "function sample false": ("transform", {**_BUMP, "samples": [False] + _BUMP["samples"][1:]}),
    # float() reads a numeric string: these ran, "2" as beta 2
    "config beta string": ("flow", {"beta": "2"}),
    "config epsilon string": ("flow", {"epsilon": "1e-4"}),
    "config grid xmin string": ("flow", {"grid": {"xmin": "-3", "xmax": 3.0}}),
    "function x0 string": ("transform", {**_BUMP, "x0": str(_BUMP["x0"])}),
    "function dx string": ("transform", {**_BUMP, "dx": str(_BUMP["dx"])}),
    "function support string": ("transform", {**_BUMP, "support": ["1.0", _BUMP["support"][1]]}),
    "function sample string": ("transform", {**_BUMP, "samples": ["0"] + _BUMP["samples"][1:]}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_exits_2(tmp_path, capsys, case):
    command, doc = MALFORMED[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    if command == "flow":
        argv = ("flow", "--config", str(path), "--region", "cone", "--flow", "modular",
                "--u", "0", "--point", "1,0")
    else:
        argv = ("transform", str(path), "--u", "0.2", "-o", str(tmp_path / "out.json"))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == "" and err.startswith("invalid input:")
    assert not (tmp_path / "out.json").exists()


def test_config_beta_inf_is_the_one_string(tmp_path, capsys):
    # the documented "inf" reads as the vacuum, as --beta inf does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beta": "inf"}))
    argv = ("flow", "--region", "cone", "--flow", "modular", "--u", "0.5", "--point", "1,0")
    code, out, _ = run(capsys, *argv, "--config", str(path))
    assert code == EXIT_OK
    assert out == run(capsys, *argv, "--beta", "inf")[1]


class TestTransformCommand:
    def test_identity_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(1.5, 0.5).save(str(src))
        out = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "transform", str(src), "--u", "0", "--n", "0", "-o", str(out)
        )
        assert code == EXIT_OK
        f = TestFunction.load(str(src))
        g = TestFunction.load(str(out))
        x = np.linspace(0.9, 2.1, 300)
        assert np.max(np.abs(f(x) - g(x))) < 1e-10

    def test_gamma_threshold_support_positive(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(-1.0, 0.6).save(str(src))
        out = tmp_path / "out.json"
        tau = format(1.0 / TWO_PI, ".17g")  # beta/(2 pi) at beta = 1
        code, _, _ = run(
            capsys, "transform", str(src), "--tau", tau, "--n", "0", "-o", str(out)
        )
        assert code == EXIT_OK
        g = TestFunction.load(str(out))
        assert g.support[0] >= 0.0

    def test_higher_index_flags_noncompact(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(1.5, 0.5).save(str(src))
        out = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "transform", str(src), "--u", "0.2", "--n", "1", "-o", str(out)
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["compact_support"] is False

    def test_domain_violation_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(-1.0, 0.5).save(str(src))
        code, _, _ = run(capsys, "transform", str(src), "--u", "-1.0")
        assert code == EXIT_DOMAIN

    def test_resolution_failure_exit_4(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(1.0, 0.4, n=80).save(str(src))
        code, _, err = run(capsys, "transform", str(src), "--u", "0.2", "--n", "3")
        assert code == 4

    def test_overflowing_derivative_exit_4(self, tmp_path, capsys):
        # the 150th derivative leaves the float range: it exited 2 on
        # "samples must be finite"
        src = tmp_path / "in.json"
        TestFunction.bump(1.5, 0.5).save(str(src))
        code, _, err = run(capsys, "transform", str(src), "--u", "0.2", "--n", "150",
                           "-o", str(tmp_path / "out.json"))
        assert code == EXIT_RESOLUTION
        assert "overflows the float range" in err
        assert not (tmp_path / "out.json").exists()

    def test_non_finite_sample_exit_2(self, tmp_path, capsys):
        doc = TestFunction.bump(1.5, 0.5).to_dict()
        doc["samples"][100] = math.nan
        src = tmp_path / "nan.json"
        src.write_text(json.dumps(doc))
        code, _, err = run(capsys, "transform", str(src), "--u", "0.2")
        assert code == EXIT_DOMAIN
        assert "samples must be finite" in err

    def test_negative_index_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(1.5, 0.5).save(str(src))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN derivative used to warn here
            code, _, err = run(capsys, "transform", str(src), "--u", "0.2", "--n", "-1")
        assert code == EXIT_DOMAIN
        assert "non-negative integer" in err

    def test_no_partial_file_on_error(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        TestFunction.bump(-1.0, 0.5).save(str(src))
        out = tmp_path / "never.json"
        run(capsys, "transform", str(src), "--u", "-1.0", "-o", str(out))
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_flow_parameter_checked_before_the_file(self, tmp_path, capsys):
        # both flags on a missing file opened it first and exited 3 (I/O);
        # a file that exists with neither flag exits 2 as well
        src = tmp_path / "in.json"
        TestFunction.bump(1.5, 0.5).save(str(src))
        for argv in ((str(tmp_path / "missing.json"), "--u", "1", "--tau", "2"), (str(src),)):
            with pytest.raises(SystemExit) as exc:
                main(["transform", *argv])
            assert exc.value.code == EXIT_DOMAIN
            captured = capsys.readouterr()
            assert captured.out == "" and "--u" in captured.err and "--tau" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


class TestKernelCommand:
    def test_momentum_value(self, capsys):
        code, out, _ = run(capsys, "kernel", "--p", "1.0")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_position_value(self, capsys):
        code, out, _ = run(capsys, "kernel", "--xi", "0.5", "--epsilon", "1e-4")
        assert code == EXIT_OK
        re, im = map(float, out.strip().split(","))
        assert re == pytest.approx(1.0 / math.sinh(math.pi * 0.5) ** 2, rel=1e-3)

    def test_requires_exactly_one_argument(self, capsys):
        for argv in ((), ("--p", "1", "--xi", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["kernel", *argv])
            assert exc.value.code == EXIT_DOMAIN
            assert capsys.readouterr().out == ""

    def test_epsilon_with_momentum_exit_2(self, capsys):
        # the regulator belongs to the position kernel; with --p it was ignored
        code, out, err = run(capsys, "kernel", "--p", "1", "--epsilon", "3")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "--epsilon" in err

    # as in flow: exit 2 before the config file is opened, not an I/O error
    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--p", "1", "--epsilon", "3"), "--epsilon regulates"),
            (("--n", "1", "--xi", "0.3"), "index 0 only"),
        ],
    )
    def test_flag_rules_checked_before_the_config(self, tmp_path, capsys, argv, named):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "kernel", "--config", missing, *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert named in err

    # each printed nan (and exited 0) before
    @pytest.mark.parametrize(
        "argv",
        [("--p", "nan"), ("--p=-inf",), ("--xi", "nan"), ("--xi", "1", "--epsilon", "inf")],
    )
    def test_non_finite_arguments_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "kernel", *argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "finite" in err


    def test_kernel_beyond_the_float_range_exit_2(self, capsys):
        # it printed nan,nan and exited 0
        code, out, err = run(capsys, "kernel", "--xi", "0", "--epsilon", "1e-300")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "leaves the float range" in err

    def test_regulator_over_beta_beyond_the_float_range_exit_2(self, capsys):
        # it printed "invalid input: math domain error"
        code, out, err = run(capsys, "kernel", "--xi", "0", "--beta", "1e-300", "--epsilon", "1e10")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "epsilon=10000000000.0, beta=1e-300: b = pi epsilon/beta leaves the float range" in err

    def test_separation_past_the_float_range_over_pi(self, capsys):
        # pi xi overflows: the kernel is 0 there, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "kernel", "--xi", "1e308")
        assert (code, out) == (EXIT_OK, "0,-0\n")


class TestVerifyCommand:
    def test_group_laws_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", "group-laws", "-o", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert all(entry["pass"] for entry in doc)
        assert "checks passed" in stdout

    def test_report_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "verify", "flows", "-o", str(out))
        doc = json.loads(out.read_text())
        for entry in doc:
            assert set(entry) == {"check", "params", "lhs", "rhs", "pass"}

    def test_deterministic_at_beta_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "verify", "kernels", "--beta", "2.0", "-o", str(a))[0] == EXIT_OK
        assert run(capsys, "verify", "kernels", "--beta", "2.0", "-o", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_beta_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, "verify", "group-laws", "--beta", "inf", "-o", str(out)
        )
        assert code == EXIT_DOMAIN
        assert "finite beta" in err
        assert stdout == ""
        assert not out.exists()

    def test_quadrature_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        # an unconverged momentum quadrature has its own code, not the
        # domain-violation 2
        def unconverged(suite, beta):
            raise QuadratureError("two-point form: integrand tail above tolerance")

        monkeypatch.setattr(cli, "run_suite", unconverged)
        out = tmp_path / "report.json"
        code, stdout, err = run(capsys, "verify", "kms", "-o", str(out))
        assert code == EXIT_QUADRATURE == 5
        assert "quadrature failure: two-point form" in err
        assert stdout == ""
        assert not out.exists()
