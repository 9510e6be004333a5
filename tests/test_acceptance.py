"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance here is fixed; the checks delegate to the
verification suites (which were written to mirror the criteria) plus the
few headline numbers asserted directly.
"""

import time

from modularflow.verify import run_suite

_T0 = time.time()


def _report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run(name):
    cases = run_suite(name)
    failed = [(c.check, c.lhs, c.rhs) for c in cases if not c.passed]
    return cases, failed


def test_criterion_1_group_laws():
    t0 = time.time()
    cases, failed = _run("group-laws")
    elapsed = time.time() - t0
    worst = max(c.lhs for c in cases)
    ok = not failed and worst < 1e-12 and elapsed < 5.0
    _report(
        1,
        "group-law suite: associativity, subgroup additivity, exchange, "
        "decompositions, conjugations < 1e-12",
        ok,
        f"max deviation {worst:.2e}, runtime {elapsed:.2f}s" + (f", failed {failed}" if failed else ""),
    )


def test_criterion_2_flow_maps():
    cases, failed = _run("flows")
    by = {c.check: c for c in cases}
    details = []
    ok = not failed
    # headline numbers beyond the suite's own thresholds
    ok &= by["flow-group-laws"].lhs < 1e-12 and by["flow-inverses"].lhs < 1e-12
    ok &= by["chart-conjugacy"].lhs < 1e-12
    ok &= by["translation-commutation"].lhs < 1e-10
    ok &= by["gamma-translation-covariance"].lhs < 1e-10
    ok &= by["vacuum-limit"].lhs < 1e-5
    ok &= by["half-line-image"].passed
    details.append(f"chart conjugacy {by['chart-conjugacy'].lhs:.2e}")
    details.append(f"vacuum limit {by['vacuum-limit'].lhs:.2e}")
    _report(
        2,
        "flow-map suite: group laws, chart conjugacy 1e-12, point-map "
        "commutations 1e-10, vacuum limit 1e-5, half-line image",
        ok,
        "; ".join(details) + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_3_geometry():
    cases, failed = _run("flows")
    by = {c.check: c for c in cases}
    ok = not failed
    ok &= by["remainder-reconstruction"].lhs < 1e-12
    ok &= by["deep-interior-translation"].lhs < 1e-6
    ok &= by["near-apex-dilation"].lhs < 1e-2
    ok &= by["near-edge-boost"].lhs < 1e-2
    ok &= by["velocity-consistency"].lhs < 1e-6
    ok &= by["closed-form-flow-lines"].lhs < 1e-8
    _report(
        3,
        "geometry suite: remainders 1e-12, deep interior 1e-6 beta, "
        "near-boundary limits, velocity 1e-6, flow lines on their "
        "closed-form constant 1e-8",
        ok,
        f"remainders {by['remainder-reconstruction'].lhs:.2e}, "
        f"velocity {by['velocity-consistency'].lhs:.2e}"
        + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_4_kernels():
    cases, failed = _run("kernels")
    by = {c.check: c for c in cases}
    ok = not failed
    ok &= by["momentum-kms-identity"].lhs < 1e-14
    ok &= by["commutator-identity"].lhs < 1e-10
    ok &= by["fourier-pair-calibration"].lhs < 1e-4
    ok &= by["gram-positivity"].lhs < 1e-8
    _report(
        4,
        "kernel suite: momentum KMS 1e-14, commutator identity 1e-10, "
        "Fourier pair 1e-4 at eps=1e-3 beta, Gram PSD 1e-8",
        ok,
        f"kms {by['momentum-kms-identity'].lhs:.2e}, "
        f"pair dev {by['fourier-pair-calibration'].lhs:.2e}"
        + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_5_modular_action():
    cases, failed = _run("kms")
    by = {c.check: c for c in cases}
    ok = not failed
    ok &= by["modular-group-law"].lhs < 1e-8 and by["gamma-additivity"].lhs < 1e-8
    ok &= by["two-point-invariance"].lhs < 1e-6
    ok &= by["symplectic-invariance"].lhs < 1e-6
    ok &= by["kms-boundary-identity"].lhs < 1e-9
    ok &= by["pull-back-integral"].lhs < 1e-10
    defect = by["localization-defect"]
    ok &= defect.lhs < 2e-7 and defect.params["closed_form"] != 0.0
    _report(
        5,
        "modular-action suite: group laws 1e-8, unitarity and symplectic "
        "invariance 1e-6, thermal boundary identity 1e-9 (relative), supports "
        "and integrals of the actions 1e-10, nonzero localization defect on its "
        "closed form 2e-7 (relative)",
        ok,
        f"boundary identity {by['kms-boundary-identity'].lhs:.2e}, "
        f"defect {defect.params['d1']:.6e}"
        + (f"; failed {failed}" if failed else ""),
    )


def test_criterion_6_operator_bounds_and_runtime():
    cases_b, failed_b = _run("thm22")
    cases_r, failed_r = _run("rates")
    worst_margin = -max(c.lhs for c in cases_b)
    slopes = [c for c in cases_r if c.check == "decay-rate"]
    ok = not failed_b and not failed_r
    ok &= worst_margin >= -1e-9
    ok &= len(slopes) == 3 and all(c.lhs < 0.05 for c in slopes)
    total = time.time() - _T0
    ok &= total < 600.0
    _report(
        6,
        "operator-bound suite: bound margin >= -1e-9 on the 21x12 grid with "
        "M = 1, decay slopes within 5% for three shapes, total runtime "
        "under 10 minutes",
        ok,
        f"worst margin {worst_margin:.2e}, slope errors "
        + ", ".join(f"{c.lhs:.2e}" for c in slopes)
        + f", elapsed {total:.0f}s"
        + (f"; failed {failed_b + failed_r}" if (failed_b or failed_r) else ""),
    )
