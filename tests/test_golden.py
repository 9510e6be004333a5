"""Golden verify reports and flow figures against the committed ones.

golden/verify_all_beta{0.6,1,1.7}.json are the reports of
`mfl verify all --beta B`, and golden/toolchain.json names the Python and
numpy versions and numpy's enabled CPU features they were made with (the
package runs on numpy alone).  On that toolchain a fresh report must match byte for byte.  On
another, the check names, param keys and pass flags must match, and each
lhs may move by at most 1e-2 * rhs.  Either way a failure lists every
moved value.

golden/figure{1..4}_beta{1,1.7}.{csv,json,svg} are the four flow figures
(`mfl figure --which N` numbering) drawn with FIGURE_SPEC.  On the recorded
toolchain they must match byte for byte; elsewhere the text between the
numbers must match and each number may move by at most
1e-12 * max(beta, |x|).

A change that moves a value rewrites the files with
`PYTHONPATH=src python tests/test_golden.py`, so the move shows in its diff.
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from modularflow.cone_wedge import FigureSpec, Region, emit_flow_figure
from modularflow.flow_maps import ThermalContext
from modularflow.verify import report_json, run_suite

GOLDEN = Path(__file__).parent / "golden"
BETAS = ("0.6", "1", "1.7")
FIGURE_BETAS = ("1", "1.7")
FIGURE_SPEC = FigureSpec(n_lines=3, n_samples=9)
# `mfl figure --which N`
FIGURES = {
    1: (Region.FORWARD_CONE, "modular"),
    2: (Region.RIGHT_WEDGE, "modular"),
    3: (Region.FORWARD_CONE, "gamma"),
    4: (Region.RIGHT_WEDGE, "gamma"),
}
FORMATS = ("csv", "json", "svg")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def toolchain() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def fresh_report(beta: str) -> str:
    return report_json(run_suite("all", beta=float(beta)))


def moved_values(old: list, new: list) -> list[str]:
    """One line per value that differs: the check, the key, old and new
    values, and the absolute and relative change of numbers."""
    lines = []
    if len(old) != len(new):
        lines.append(f"case count {len(old)} -> {len(new)}")
    for i, (a, b) in enumerate(zip(old, new)):
        fields = {"check": (a["check"], b["check"]), "pass": (a["pass"], b["pass"])}
        fields.update(lhs=(a["lhs"], b["lhs"]), rhs=(a["rhs"], b["rhs"]))
        for k in sorted(a["params"].keys() | b["params"].keys()):
            fields[f"params.{k}"] = (a["params"].get(k), b["params"].get(k))
        for key, (x, y) in fields.items():
            if json.dumps(x) == json.dumps(y):
                continue
            line = f"#{i} {a['check']} {key}: {x!r} -> {y!r}"
            if all(isinstance(v, float) for v in (x, y)):
                rel = abs(y - x) / abs(x) if x else math.inf
                line += f" (abs {abs(y - x):.3e}, rel {rel:.3e})"
            lines.append(line)
    return lines


@pytest.mark.parametrize("beta", BETAS)
def test_verify_all_matches_golden(beta):
    golden = (GOLDEN / f"verify_all_beta{beta}.json").read_text()
    text = fresh_report(beta)
    old, new = json.loads(golden), json.loads(text)
    moved = "\n".join(moved_values(old, new))
    if json.loads((GOLDEN / "toolchain.json").read_text()) == toolchain():
        assert text == golden, f"values moved at beta {beta}:\n{moved}"
        return
    shape = [(c["check"], sorted(c["params"]), c["pass"]) for c in new]
    assert shape == [(c["check"], sorted(c["params"]), c["pass"]) for c in old], moved
    far = [
        (c["check"], c["lhs"], o["lhs"])
        for c, o in zip(new, old)
        if not abs(c["lhs"] - o["lhs"]) <= 1e-2 * c["rhs"]
    ]
    assert not far, f"lhs moved by more than 1e-2 * rhs at beta {beta}:\n{moved}"


def figure_name(which: int, beta: str, fmt: str) -> str:
    return f"figure{which}_beta{beta}.{fmt}"


def write_figure(which: int, beta: str, fmt: str, path: Path):
    region, flow = FIGURES[which]
    ctx = ThermalContext(beta=float(beta))
    emit_flow_figure(ctx, region, flow, str(path), fmt=fmt, spec=FIGURE_SPEC)


def moved_numbers(old: str, new: str, beta: float) -> list[str]:
    """One line per number of new that differs from old by more than
    1e-12 * max(beta, |x|); any difference in the text between the numbers
    is reported as one line."""
    if NUMBER.split(old) != NUMBER.split(new):
        return ["text between the numbers differs"]
    lines = []
    for i, (a, b) in enumerate(zip(NUMBER.findall(old), NUMBER.findall(new))):
        x, y = float(a), float(b)
        if not abs(y - x) <= 1e-12 * max(beta, abs(x)):
            lines.append(f"number #{i}: {a} -> {b} (abs {abs(y - x):.3e})")
    return lines


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("beta", FIGURE_BETAS)
@pytest.mark.parametrize("which", sorted(FIGURES))
def test_figure_matches_golden(which, beta, fmt, tmp_path):
    name = figure_name(which, beta, fmt)
    golden = (GOLDEN / name).read_text()
    write_figure(which, beta, fmt, tmp_path / name)
    text = (tmp_path / name).read_text()
    moved = moved_numbers(golden, text, float(beta))
    if json.loads((GOLDEN / "toolchain.json").read_text()) == toolchain():
        assert text == golden, f"{name} moved:\n" + "\n".join(moved)
        return
    assert not moved, f"{name} moved:\n" + "\n".join(moved)


def test_figure_diff_reports_moved_number():
    old = "1,0.5,-2.25e-3\n"
    assert moved_numbers(old, old, 1.0) == []
    assert moved_numbers(old, "1,0.5000000000001,-2.25e-3\n", 1.0) == []
    assert moved_numbers(old, "1,0.50000000001,-2.25e-3\n", 1.0) == [
        "number #1: 0.5 -> 0.50000000001 (abs 1.000e-11)"
    ]
    assert moved_numbers(old, "1;0.5,-2.25e-3\n", 1.0) == [
        "text between the numbers differs"
    ]


if __name__ == "__main__":
    for beta in BETAS:
        (GOLDEN / f"verify_all_beta{beta}.json").write_text(fresh_report(beta))
    for which in FIGURES:
        for beta in FIGURE_BETAS:
            for fmt in FORMATS:
                write_figure(which, beta, fmt, GOLDEN / figure_name(which, beta, fmt))
    (GOLDEN / "toolchain.json").write_text(json.dumps(toolchain(), indent=1) + "\n")
