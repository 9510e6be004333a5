"""Reach map of the package: what the checks and the CLI run.

A fresh interpreter installs a profile hook before it imports modularflow,
then runs `mfl verify all --beta 1` and one call per subcommand form: each
figure in each format, `flow` for both flows, `transform` at n = 0, 1 and
2, `kernel --p` and `--xi`, and one command with `--config`.  Every
module-level function, method and property the package defines that no
call entered must be listed in UNREACHED with its reason, and every listed
one must still exist and still be unreached: a function added with nothing
that reaches it fails here, and so does an entry that has become reached
or been deleted.

The run needs a fresh process: the plan, figure and parser caches of a warm
test process would answer calls without entering the functions behind them.
"""

import json
import os
import subprocess
import sys

import pytest

import modularflow
from modularflow.weyl_field import TestFunction

UNREACHED = {
    "axb_group.inverse": "group API, checked by the axiom tests",
    "axb_group.GroupElement.identity": "group API, checked by the axiom tests",
    "axb_group.GroupElement.u": "group API, checked by the axiom tests",
    "cone_wedge.Region.contains": "region membership, kept for clipping figures to their region",
    "weyl_field._derivative_once_fd4": "the only derivative for spectra that have not decayed",
    "cone_wedge._exit_index": "error path: a flow leaving its domain",
    "flow_maps._undefined": "error path: a ray image outside the float range",
    "errors.DomainViolation.__init__": "error path: every domain violation",
}

# runs the commands under a profile hook and writes the unreached names and
# each command's exit code to argv[1]
_DRIVER = r"""
import sys

seen = set()


def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(hook)

import contextlib, functools, importlib, io, json, os, pkgutil, types

import modularflow
from modularflow import cli

out_path, src, cfg, tmp = sys.argv[1:]
commands = [["verify", "all", "--beta", "1", "-o", f"{tmp}/report.json"]]
commands += [["figure", "--which", w, "--format", fmt, "-o", f"{tmp}/figure{w}.{fmt}"]
             for w in "1234" for fmt in ("csv", "json", "svg")]
commands += [
    ["flow", "--region", "cone", "--flow", "modular", "--u", "0.3", "--point", "1,0.2"],
    ["flow", "--region", "wedge", "--flow", "gamma", "--tau", "0.1", "--point", "0.1,1"],
    ["transform", src, "--n", "0", "--u", "0.2", "-o", f"{tmp}/out0.json"],
    ["transform", src, "--n", "1", "--tau", "0.1", "-o", f"{tmp}/out1.json"],
    ["transform", src, "--n", "2", "--u", "0.2", "-o", f"{tmp}/out2.json"],
    ["kernel", "--p", "1"],
    ["kernel", "--xi", "0.5"],
    ["figure", "--which", "2", "--config", cfg, "-o", f"{tmp}/config.csv"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
sys.setprofile(None)


def members(obj):
    # a class's own functions, properties and cached properties; a
    # module-level function behind its lru_cache
    if not isinstance(obj, type):
        yield getattr(obj, "__wrapped__", obj)
        return
    for attr in vars(obj).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if isinstance(attr, property):
            yield from (f for f in (attr.fget, attr.fset, attr.fdel) if f)
        elif isinstance(attr, functools.cached_property):
            yield attr.func
        else:
            yield attr


pkg_dir = os.path.dirname(modularflow.__file__)
defined = {}
for info in pkgutil.iter_modules(modularflow.__path__):
    mod = importlib.import_module(f"modularflow.{info.name}")
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        for fn in members(obj):
            if isinstance(fn, types.FunctionType) and fn.__code__.co_filename.startswith(pkg_dir):
                defined[f"{info.name}.{fn.__qualname__}"] = fn.__code__
unreached = sorted(name for name, code in defined.items() if code not in seen)
with open(out_path, "w") as fh:
    json.dump({"unreached": unreached, "codes": codes}, fh)
"""


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """The hooked run's unreached names and exit codes, once per module."""
    tmp_path = tmp_path_factory.mktemp("reach")
    src, cfg = tmp_path / "bump.json", tmp_path / "config.json"
    TestFunction.bump(1.5, 0.5).save(str(src))
    cfg.write_text(json.dumps({"beta": 1.3, "epsilon": 1e-3, "grid": {"xmin": -2, "xmax": 2}}))
    out = tmp_path / "reach.json"
    root = os.path.dirname(os.path.dirname(modularflow.__file__))
    path = [root, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [root]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    subprocess.run(
        [sys.executable, "-c", _DRIVER, str(out), str(src), str(cfg), str(tmp_path)],
        cwd=tmp_path, env=env, check=True, timeout=120,
    )
    got = json.loads(out.read_text())
    return set(got["unreached"]), got["codes"]


def test_every_command_exits_0(reach):
    _, codes = reach
    assert codes == [0] * len(codes)


def test_every_function_is_reached_or_listed(reach):
    unreached, _ = reach
    assert not unreached - set(UNREACHED), (
        f"reached by nothing and not listed: {sorted(unreached - set(UNREACHED))}"
    )


def test_every_listed_function_is_defined_and_unreached(reach):
    unreached, _ = reach
    assert not set(UNREACHED) - unreached, (
        f"listed but reached or gone: {sorted(set(UNREACHED) - unreached)}"
    )
