"""Fast invariant checks, one per load-bearing property, runnable from
the command line (`spderk selftest`).  Each check raises on failure and
finishes in well under a second."""

from dataclasses import astuple

import numpy as np

from .experiments import (
    ErrorRow,
    ErrorTable,
    ReferenceSpec,
    StudyConfig,
    fit_order,
    run_study,
)
from .nemytskii import ProblemSpec, builtin_problem, eval_coeff
from .qwiener import QSpec, coarsen, sample_path, theta_weights
from .schemes import (
    SCHEME_NAMES,
    StepContext,
    erkm15_closed_form_step,
    erkm15_tableau,
    erkm_step,
    hatted_coefficients,
    resolve_scheme,
    solve,
)
from .spectral import (
    LinearOperatorSpec,
    SineBasisGrid,
    apply_diagonal,
    h_r_norm,
    to_physical,
    to_spectral,
)


def _round_trip():
    grid = SineBasisGrid(32)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(32)
    back = to_spectral(to_physical(a, grid), grid)
    assert np.abs(back - a).max() <= 1e-12 * max(1.0, np.abs(a).max())


def _parseval():
    op = LinearOperatorSpec(1.0, 16)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(16)
    assert h_r_norm(op, 0.0, a) == float(np.sqrt(np.sum(a * a)))


def _semigroup():
    op = LinearOperatorSpec(0.1, 12)
    a = np.ones(12)
    one = apply_diagonal("semigroup", op, apply_diagonal("semigroup", op, a, t=0.3), t=0.7)
    two = apply_diagonal("semigroup", op, a, t=1.0)
    np.testing.assert_allclose(one, two, rtol=1e-13)


def _joint_covariance():
    q = QSpec(2, np.array([1.0, 0.25]))
    h = 0.37
    path = sample_path(q, 20_000, h, 99)
    for j in range(2):
        cov = np.cov(path.dB[:, j], path.I[:, j])
        np.testing.assert_allclose(
            cov, [[h, h * h / 2], [h * h / 2, h**3 / 3]], rtol=0.05
        )


def _coarsen_composition():
    q = QSpec(3, np.array([1.0, 0.5, 0.25]))
    path = sample_path(q, 16, 0.0625, 4)
    two_step = coarsen(coarsen(path, 2), 2)
    one_step = coarsen(path, 4)
    assert np.abs(two_step.dB - one_step.dB).max() <= 1e-14
    assert np.abs(two_step.I - one_step.I).max() <= 1e-14


def _derivative_maps():
    p = builtin_problem("example3", 8)
    grid = p.grid
    v = np.linspace(-1.0, 1.0, grid.n_nodes)
    eps = 1e-6
    fd = (eval_coeff(p.b, v + eps, grid) - eval_coeff(p.b, v - eps, grid)) / (2 * eps)
    assert np.abs(fd - eval_coeff(p.b_y, v, grid)).max() <= 1e-6


def _scheme_equivalence():
    p = builtin_problem("example3", 16)
    rng = np.random.default_rng(21)
    erkm15, ewp = resolve_scheme("erkm15"), resolve_scheme("ewp")
    for h in (0.1, 0.01):
        ctx = StepContext(p, h)
        path = sample_path(p.qspec, 1, h, 13)
        dW, Iw = theta_weights(path.dB[0], path.I[0], p.G)
        y = rng.standard_normal(16) / (1 + np.arange(16.0)) ** 2
        c = rng.uniform(0.2, 2.0, 7)
        a = erkm_step(erkm15_tableau(c), ctx, y, erkm15.noise(ctx, dW, Iw))
        b = erkm15_closed_form_step(hatted_coefficients(c, h), ctx, y, ewp.noise(ctx, dW, Iw))
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


# the A7 cost model: (f, b, f_y, f_yy, b_y, b_yy) evaluations per step
_A7 = dict(erkm15=(5, 6, 0, 0, 0, 0), ewp=(1, 1, 1, 1, 1, 1), dfmm=(1, 2, 0, 0, 0, 0),
           lie=(1, 1, 0, 0, 0, 0), exe=(1, 1, 0, 0, 0, 0))


def _eval_counts():
    # one step of each study scheme on one context; its bound maps count
    # the evaluations the step made
    p = builtin_problem("example3", 8)
    ctx = StepContext(p, 0.1)
    path = sample_path(p.qspec, 1, 0.1, 2)
    dW, Iw = theta_weights(path.dB[0], path.I[0], p.G)
    for name in SCHEME_NAMES:
        scheme = resolve_scheme(name)
        before = ctx.counters.copy()
        scheme.step(ctx, p.initial_coeffs, scheme.noise(ctx, dW, Iw))
        spent = astuple(ctx.counters - before)
        assert spent == _A7[name], "%s made %s evaluations, A7: %s" % (name, spent, _A7[name])


def _semigroup_decay():
    def zero(x, y):
        return np.zeros_like(y)

    q = QSpec(1, np.array([0.0]), "scalar_constant")
    p = ProblemSpec(0.05, zero, zero, np.ones(8) / (1 + np.arange(8.0)) ** 2, q,
                    f_y=zero, f_yy=zero, b_y=zero, b_yy=zero)
    path = sample_path(q, 16, 1.0 / 16, 0)
    y = solve(StepContext(p, 1.0, 16), "erkm15", path)
    lam = LinearOperatorSpec(0.05, 8).eigenvalues
    expected = np.exp(-lam) * p.initial_coeffs
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def _study_self_consistency():
    cfg = StudyConfig("example2", N=6, M_list=(8,), realizations=2,
                      schemes=("ewp",), reference=ReferenceSpec("ewp", 8), seed=1)
    table = run_study(cfg)
    assert table.rows[0].rms_error == 0.0


def _order_fit():
    rows = tuple(
        ErrorRow("x", M, 1.0 / M, 2.0 * (1.0 / M) ** 1.5, 0.0, 0)
        for M in (8, 16, 32, 64)
    )
    slope, _ = fit_order(ErrorTable(rows), "x")
    assert abs(slope - 1.5) <= 1e-12


SELFTESTS = (
    ("spectral.round_trip", _round_trip),
    ("spectral.parseval", _parseval),
    ("spectral.semigroup", _semigroup),
    ("qwiener.joint_covariance", _joint_covariance),
    ("qwiener.coarsen_composition", _coarsen_composition),
    ("nemytskii.derivative_maps", _derivative_maps),
    ("schemes.tableau_equivalence", _scheme_equivalence),
    ("schemes.eval_counts", _eval_counts),
    ("schemes.semigroup_decay", _semigroup_decay),
    ("experiments.reference_self_consistency", _study_self_consistency),
    ("experiments.order_fit", _order_fit),
)


def run_selftests(write=None):
    """Run every check; returns the number of failures."""
    failed = 0
    for name, fn in SELFTESTS:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report, do not mask siblings
            failed += 1
            line = "%s: FAIL (%s)" % (name, e)
        else:
            line = "%s: ok" % name
        if write is not None:
            write(line)
    return failed
