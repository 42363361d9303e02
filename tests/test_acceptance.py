"""Acceptance criteria A1-A9.

Each test prints exactly one `A<n> ...: PASS/FAIL (...)` line on the
real stdout (bypassing capture) and asserts the same condition, so a
plain `pytest -v` run shows the verdicts inline.

A1/A2/A9 are full Monte-Carlo order-reproduction studies at desk scale
and take a couple of minutes combined; everything else is fast.
"""

import math
import sys
import time

import numpy as np

import conftest
import oracles

from spderk.cli import ORDER_BANDS
from spderk.experiments import (
    ReferenceSpec,
    StudyConfig,
    fit_order,
    run_study,
)
from spderk.nemytskii import ProblemSpec, builtin_problem
from spderk.qwiener import QSpec, coarsen, sample_path, theta_weights
from spderk.schemes import (
    StepContext,
    erkm15_tableau,
    erkm_step,
    ewp_step,
    solve,
)
from spderk.spectral import SineBasisGrid, to_physical, to_spectral


def _report(name, ok, detail=""):
    line = "%s: %s%s" % (name, "PASS" if ok else "FAIL",
                         " (%s)" % detail if detail else "")
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, line


def _in_band(slope, band):
    return band[0] <= slope <= band[1]


def _slope_detail(slopes, bands, elapsed):
    # out-of-band entries get the expected band appended
    parts = []
    for s, v in slopes.items():
        tag = "" if _in_band(v, bands[s]) else " [want %g..%g]" % bands[s]
        parts.append("%s=%.3f%s" % (s, v, tag))
    return ", ".join(parts) + ", %.0fs" % elapsed


def test_a1_example1_order_reproduction():
    bands = ORDER_BANDS["example1"]
    cfg = StudyConfig(
        "example1", N=64, K=1, T=1.0,
        M_list=(8, 16, 32, 64, 128, 256, 512), realizations=200,
        schemes=("lie", "exe", "dfmm", "ewp", "erkm15"),
        reference=ReferenceSpec("exact"), seed=101,
    )
    t0 = time.time()
    table = run_study(cfg)
    elapsed = time.time() - t0
    slopes = {s: fit_order(table, s)[0] for s in bands}
    ok = all(_in_band(slopes[s], bands[s]) for s in bands)
    _report("A1 example1 convergence orders", ok,
            _slope_detail(slopes, bands, elapsed))


def test_a2_example2_order_reproduction():
    bands = ORDER_BANDS["example2"]
    cfg = StudyConfig(
        "example2", N=64, K=64, T=1.0,
        M_list=(8, 16, 32, 64, 128, 256), realizations=100,
        schemes=("lie", "exe", "dfmm", "ewp", "erkm15"),
        reference=ReferenceSpec("ewp", 4096), seed=202,
    )
    t0 = time.time()
    table = run_study(cfg)
    elapsed = time.time() - t0
    slopes = {s: fit_order(table, s)[0] for s in bands}
    ok = all(_in_band(slopes[s], bands[s]) for s in bands)
    _report("A2 example2 convergence orders", ok,
            _slope_detail(slopes, bands, elapsed))


def test_a3_tableau_closed_form_equivalence():
    p = builtin_problem("example3", 16)
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(50):
        h = (0.1, 0.01)[trial % 2]
        c = rng.uniform(-2.0, 2.0, 7)
        while np.any(np.abs(c) < 0.05):  # nonzero per contract
            c = np.where(np.abs(c) < 0.05, rng.uniform(-2.0, 2.0, 7), c)
        ctx = StepContext(p, h)
        path = sample_path(p.qspec, 1, h, 7000, realization=trial)
        dW, Iw = theta_weights(path.dB[0], path.I[0], p.G)
        y = rng.standard_normal(16) / (1.0 + np.arange(16.0)) ** 2
        a = erkm_step(erkm15_tableau(c), ctx, y, oracles.noise_row("erkm15", ctx, dW, Iw))
        b = oracles.erkm15_closed_form_step(oracles.hatted_coefficients(c, h), ctx, y,
                                            oracles.noise_row("ewp", ctx, dW, Iw))
        rel = np.abs(a - b).max() / max(1.0, np.abs(a).max(), np.abs(b).max())
        worst = max(worst, rel)
    _report("A3 tableau = closed form (50 tuples)", worst <= 1e-12,
            "max rel diff %.2e" % worst)


def test_a4_joint_increment_covariance():
    h, n = 0.37, 100_000
    eta = np.array([1.0, 0.5, 0.25, 0.125])
    q = QSpec(4, eta)
    path = sample_path(q, n, h, 404)
    target = np.array([[h, h * h / 2.0], [h * h / 2.0, h**3 / 3.0]])
    # standard errors of sample (co)variances of a bivariate Gaussian
    se = np.array([
        [math.sqrt(2.0 / n) * target[0, 0],
         math.sqrt((target[0, 0] * target[1, 1] + target[0, 1] ** 2) / n)],
        [0.0, math.sqrt(2.0 / n) * target[1, 1]],
    ])
    se[1, 0] = se[0, 1]
    ok = True
    worst_z = worst_rel = 0.0
    for j in range(4):
        cov = np.cov(path.dB[:, j], path.I[:, j])
        dev = np.abs(cov - target)
        z = (dev / se).max()
        rel = (dev / np.abs(target)).max()
        worst_z = max(worst_z, z)
        worst_rel = max(worst_rel, rel)
        ok = ok and z <= 3.0 and rel <= 0.02
    _report("A4 (dB, I) covariance, 1e5 samples", ok,
            "max |z|=%.2f, max rel=%.4f" % (worst_z, worst_rel))


def test_a5_coarsening_identity():
    q = QSpec(3, np.array([1.0, 0.5, 0.25]))
    worst = 0.0
    for r in range(100):
        path = sample_path(q, 16, 1.0 / 16.0, 505, realization=r)
        a = coarsen(coarsen(path, 2), 2)
        b = coarsen(path, 4)
        worst = max(worst, np.abs(a.dB - b.dB).max(), np.abs(a.I - b.I).max())
    _report("A5 two-level coarsening identity (100 paths)", worst <= 1e-14,
            "max residual %.2e" % worst)


def _zero(x, y):
    return np.zeros_like(y)


def test_a6_deterministic_exactness():
    worst = 0.0
    cases = [(0.01, 64, 4), (0.01, 64, 32), (1.0, 8, 16)]
    for kappa, N, M in cases:
        q = QSpec(1, np.array([0.0]), "scalar_constant")
        y0 = 1.0 / (1.0 + np.arange(N, dtype=float)) ** 2
        p = ProblemSpec(kappa, _zero, _zero, y0, q,
                        f_y=_zero, f_yy=_zero, b_y=_zero, b_yy=_zero)
        path = sample_path(q, M, 1.0 / M, 606)
        exact = np.exp(-p.eigenvalues) * y0
        for scheme in ("erkm15", "ewp", "exe", "dfmm"):
            got = solve(StepContext(p, 1.0, M), scheme, path)
            worst = max(worst, (np.abs(got - exact) / exact).max())
    _report("A6 semigroup decay with f=b=0", worst <= 1e-12,
            "max rel error %.2e" % worst)


def test_a7_evaluation_counts():
    # the problem's own maps, wrapped before the context is built, count
    # each step's (f, b, f_y, f_yy, b_y, b_yy) evaluations
    p, calls = oracles.counting(builtin_problem("example3", 12))
    ctx = StepContext(p, 0.1)
    path = sample_path(p.qspec, 3, 0.1, 707)
    tab = erkm15_tableau(np.ones(7))

    ok = True
    y = p.initial_coeffs
    for m in range(3):
        dW, Iw = theta_weights(path.dB[m], path.I[m], p.G)
        y = erkm_step(tab, ctx, y, oracles.noise_row("erkm15", ctx, dW, Iw))
        ok = ok and oracles.spent(calls) == oracles.A7_EVALS["erkm15"]
    ewp_step(ctx, p.initial_coeffs, oracles.noise_row("ewp", ctx, dW, Iw))
    ok = ok and oracles.spent(calls) == oracles.A7_EVALS["ewp"]
    _report("A7 cost accounting (5f+6b per RK step, 6 per WP step)", ok)


def test_a8_transform_and_norm_suite():
    rng = np.random.default_rng(808)
    grid = SineBasisGrid(64)
    a = rng.standard_normal(64)
    back = to_spectral(to_physical(a, grid), grid)
    round_trip = np.abs(back - a).max() / max(1.0, np.abs(a).max())

    lam = builtin_problem("example1", 64).eigenvalues  # kappa = 1
    parseval_exact = oracles.h_r_norm(lam, 0.0, a) == float(np.sqrt(np.sum(a * a)))

    lam2 = builtin_problem("example2", 12).eigenvalues  # kappa = 0.1
    v = rng.standard_normal(12)
    one = oracles.apply_diagonal("semigroup", lam2,
                                 oracles.apply_diagonal("semigroup", lam2, v, t=0.4), t=0.6)
    two = oracles.apply_diagonal("semigroup", lam2, v, t=1.0)
    semi = np.abs(one - two).max() / np.abs(two).max()

    ok = round_trip <= 1e-12 and parseval_exact and semi <= 1e-13
    _report("A8 transform/Parseval/semigroup invariants", ok,
            "round-trip %.1e, semigroup %.1e, parseval exact=%s"
            % (round_trip, semi, parseval_exact))


def test_a9_example3_robustness():
    cfg = StudyConfig(
        "example3", N=64, K=64, T=1.0,
        M_list=(8, 16, 32, 64, 128, 256), realizations=100,
        schemes=("lie", "exe", "dfmm", "ewp", "erkm15"),
        reference=ReferenceSpec("ewp", 4096), seed=909,
    )
    t0 = time.time()
    try:
        table = run_study(cfg)
    except Exception as e:  # divergence flags fail the study
        _report("A9 example3 robustness", False, str(e))
        return
    elapsed = time.time() - t0
    flags = sum(r.flagged for r in table.rows)
    slopes = {s: fit_order(table, s)[0] for s in ("erkm15", "ewp", "dfmm")}
    # only erkm15 is binding
    bands = {s: ORDER_BANDS["example3"].get(s, (-math.inf, math.inf)) for s in slopes}
    ok = flags == 0 and _in_band(slopes["erkm15"], ORDER_BANDS["example3"]["erkm15"])
    _report("A9 example3 robustness", ok,
            _slope_detail(slopes, bands, elapsed) + ", flagged=%d" % flags)
