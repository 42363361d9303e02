"""Stepper tests.

The load-bearing checks are the tableau
vs. closed-form equivalence (two independent formulations of the same
scheme must agree to rounding) and the scalar Ito-Taylor oracle (with
A ~ 0 and multiplicative scalar noise every order-1.5 scheme must
reproduce the classical one-dimensional expansion term by term).
"""

import json
import math
import os
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
import spderk.schemes as schemes
from spderk.errors import CapabilityError, DimensionError, DivergenceError
from spderk.nemytskii import ProblemSpec, builtin_problem
from spderk.qwiener import (
    CHUNK_STEPS,
    NoisePath,
    QSpec,
    coarsen,
    sample_path,
    theta_weights,
)
from spderk.schemes import (
    SCHEME_NAMES,
    StepContext,
    baseline_step,
    erkm15_tableau,
    erkm_step,
    ewp_step,
    resolve_scheme,
    solve,
)
from spderk.spectral import SineBasisGrid, to_physical, to_spectral


def _zero(x, y):
    return np.zeros_like(y)


def _one(x, y):
    return np.ones_like(y)


def _identity(x, y):
    return y


def _decaying_state(N, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N) / (1.0 + np.arange(N)) ** 2


def _silent_problem(N, kappa=0.5, with_derivs=True):
    """f = b = 0 with a single zero-variance noise mode."""
    q = QSpec(1, np.array([0.0]), "scalar_constant")
    derivs = dict(f_y=_zero, f_yy=_zero, b_y=_zero, b_yy=_zero) if with_derivs else {}
    return ProblemSpec(kappa, _zero, _zero, _decaying_state(N, 7), q, **derivs)


def _context_for(p, h, seed=0, realization=0, M=1):
    """A one-step context and the noise fields (dW, Iw) of M sampled steps."""
    ctx = StepContext(p, h)
    path = sample_path(p.qspec, M, h, seed, realization)
    fields = [theta_weights(path.dB[m], path.I[m], p.G) for m in range(M)]
    return ctx, fields


def test_tableau_frozen_entries():
    tab = erkm15_tableau(np.ones(7))
    assert tab.stages == (1, 1, 1, 1, 1, -1, -1, 1, -1, 1)
    assert tab.alpha == ((0.5, 0.5), (-1, 1), (-0.5, 0.25, 0.25))
    assert tab.beta == ((0, 1), (1, -1), (0.5, -0.5), (1, -0.5, -0.5), (0.5, -0.5))


def test_tableau_row_sums():
    # consistency: the theta^0_1 and theta^1_1 rows sum to 1 (they
    # reproduce f and b at the base point), all other rows to 0; the
    # theta^2_1 weight of b_0 is 1 in erkm_step itself, and A3 checks the
    # step against the closed form
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(0.2, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
        tab = erkm15_tableau(c)
        np.testing.assert_allclose([sum(tab.alpha[0]), sum(tab.beta[0])], 1.0, rtol=1e-13)
        zeros = [sum(row) for row in tab.alpha[1:] + tab.beta[1:]]
        np.testing.assert_allclose(zeros, 0.0, atol=1e-13)


def test_strict_table_variant_breaks_second_difference_row():
    # the published table prints the stage-4/5 alpha^(3) entries as
    # 1/(4 c3); that row sums to zero only at c3 = 1, which is why
    # erkm15_tableau uses 1/(4 c3^2)
    def published_row(c3):
        return (-1.0 / (2.0 * c3**2), 1.0 / (4.0 * c3), 1.0 / (4.0 * c3))

    c = np.ones(7)
    c[2] = 1.6
    assert abs(sum(published_row(1.6))) > 0.05
    assert abs(sum(erkm15_tableau(c).alpha[2])) < 1e-15
    assert published_row(1.0) == erkm15_tableau(np.ones(7)).alpha[2]


def test_tableau_validation():
    with pytest.raises(ValueError, match="nonzero"):
        erkm15_tableau(np.array([1, 1, 0, 1, 1, 1, 1.0]))
    with pytest.raises(DimensionError):
        erkm15_tableau(np.ones(6))
    # finite, nonzero c whose tableau leaves the family: 1/(2 c_3^2)
    # overflows, 1/c_6^2 and c_7/c_6 round to 0; no numpy warning either way
    for c in ([1, 1, 1e-160, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1e200, 1],
              [1, 1, 1, 1, 1, 1e150, 1e-200]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^c = .* leaves the ERKM1\.5 family"):
                erkm15_tableau(c)
    # 1 - 1/(2 c_1) and 1 - 1/c_4 vanish at c_1 = 1/2, c_4 = 1 in the family
    tab = erkm15_tableau([0.5, 1, 1, 1, 1, 1, 1])
    assert tab.alpha[0][0] == 0.0 and tab.beta[0][0] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**20),
)
def test_tableau_matches_closed_form(data, seed):
    # two formulations of the same scheme, assembled in different term
    # groupings, on a problem with nontrivial f and b
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=7, max_size=7))
    mags = data.draw(
        st.lists(st.floats(0.2, 2.0, allow_nan=False), min_size=7, max_size=7)
    )
    c = np.array(mags) * np.array(signs)
    p = builtin_problem("example3", 16)
    h = data.draw(st.floats(0.005, 0.5))
    ctx, ((dW, Iw),) = _context_for(p, h, seed=seed)
    y = _decaying_state(16, seed + 1)

    via_tableau = erkm_step(erkm15_tableau(c), ctx, y, oracles.noise_row("erkm15", ctx, dW, Iw))
    via_sum = oracles.erkm15_closed_form_step(oracles.hatted_coefficients(c, h), ctx, y,
                                              oracles.noise_row("ewp", ctx, dW, Iw))

    scale = max(1.0, np.abs(via_tableau).max(), np.abs(via_sum).max())
    assert np.abs(via_tableau - via_sum).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_erkm15_coefficients_cancel_for_linear_maps(name):
    # f = 0 and b(y) = y: every difference quotient is exact, so any
    # nonzero c gives the c = 1 run to rounding
    p = builtin_problem(name, 16)
    rng = np.random.default_rng(4)
    ctx = StepContext(p, 1.0, 8)
    for seed in range(5):
        path = sample_path(p.qspec, 8, 1.0 / 8, seed)
        c = rng.uniform(0.2, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
        got = solve(ctx, {"name": "erkm15", "c": list(c)}, path)
        ones = solve(ctx, "erkm15", path)
        assert np.abs(got - ones).max() <= 1e-13 * np.abs(ones).max()


def test_erkm15_tends_to_ewp_as_c_shrinks():
    # the difference quotients tend to ewp's derivatives linearly in c:
    # on example3 (nonlinear f and b) one step's gap to ewp shrinks
    # tenfold per decade of c, all seven entries equal
    p = builtin_problem("example3", 16)
    for seed in range(5):
        ctx, ((dW, Iw),) = _context_for(p, 0.1, seed=seed)
        y = p.initial_coeffs
        wp = ewp_step(ctx, y, oracles.noise_row("ewp", ctx, dW, Iw))
        rk_row = oracles.noise_row("erkm15", ctx, dW, Iw)
        gaps = [np.abs(erkm_step(erkm15_tableau(np.full(7, c)), ctx, y, rk_row) - wp).max()
                for c in (1.0, 1e-1, 1e-2, 1e-3)]
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((8.0 <= ratios) & (ratios <= 12.0)), ratios


def test_eval_counts_table1():
    # one context for the three steps; the problem's wrapped maps count
    # each step's (f, b, f_y, f_yy, b_y, b_yy) evaluations
    p, calls = oracles.counting(builtin_problem("example3", 12))
    ctx, ((dW, Iw),) = _context_for(p, 0.2, seed=5)
    y = _decaying_state(12, 2)
    wp_row = oracles.noise_row("ewp", ctx, dW, Iw)

    erkm_step(erkm15_tableau(np.full(7, 0.7)), ctx, y, oracles.noise_row("erkm15", ctx, dW, Iw))
    assert oracles.spent(calls) == oracles.A7_EVALS["erkm15"]

    oracles.erkm15_closed_form_step(oracles.hatted_coefficients(np.full(7, 0.7), ctx.h),
                                    ctx, y, wp_row)
    assert oracles.spent(calls) == oracles.A7_EVALS["erkm15"]

    ewp_step(ctx, y, wp_row)
    assert oracles.spent(calls) == oracles.A7_EVALS["ewp"]


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_solve_eval_counts_match_the_model(scheme):
    # M = 65 crosses the 64-step chunk edge.  The problem's maps, wrapped
    # before the context is built, count the model times M.
    M = 65
    p, calls = oracles.counting(builtin_problem("example3", 8))
    ctx = StepContext(p, 0.5, M)
    solve(ctx, scheme, sample_path(p.qspec, M, 0.5 / M, 3))
    assert oracles.spent(calls) == tuple(M * n for n in oracles.A7_EVALS[scheme])


def test_a_context_is_a_value():
    # every solve of a study's step count shares one context: after all
    # five study schemes and a mixed-c erkm15 have run on it, it has the
    # same attributes, its arrays are read-only and unchanged, and the
    # rest are numbers or the problem's own objects
    M = 65
    p = builtin_problem("example3", 8)
    ctx = StepContext(p, 0.5, M)
    keys = set(vars(ctx))
    arrays = {k: (a.dtype, a.shape, a.tobytes()) for k, a in vars(ctx).items()
              if isinstance(a, np.ndarray)}
    path = sample_path(p.qspec, M, 0.5 / M, 11)
    mixed = {"name": "erkm15", "c": [0.5, -1.5, 2.0, -0.7, 1.2, -0.9, 1.1]}
    for scheme in (*SCHEME_NAMES, mixed):
        solve(ctx, scheme, path)
    assert set(vars(ctx)) == keys
    for k, v in vars(ctx).items():
        if isinstance(v, np.ndarray):
            assert not v.flags.writeable and (v.dtype, v.shape, v.tobytes()) == arrays[k], k
        else:
            assert type(v) in (int, float) or v is p or v is getattr(p, k, None), k


def test_deterministic_exactness():
    # with f = b = 0 every exponential scheme must follow the semigroup
    N, h, M = 6, 0.0625, 8
    p = _silent_problem(N)
    path = sample_path(p.qspec, M, h, 0)
    lam = p.eigenvalues
    times = h * np.arange(M + 1)
    expected = np.exp(-np.outer(times, lam)) * p.initial_coeffs
    for scheme in ("erkm15", "ewp", "exe", "dfmm"):
        # solve returns the terminal state: run it on every prefix of the path
        for m in range(1, M + 1):
            prefix = NoisePath(path.dB[:m], path.I[:m], h)
            y = solve(StepContext(p, m * h, m), scheme, prefix)
            np.testing.assert_allclose(y, expected[m], rtol=1e-12, atol=0.0)
    # the closed form, stepped by hand: under hatted_coefficients (5 f +
    # 6 b per step) and with c^_7 != c^_6 (a 7th b evaluation)
    hatted = oracles.hatted_coefficients(np.ones(7), h)
    counted, calls = oracles.counting(p)
    ctx = StepContext(counted, h)
    for chat, b_evals in ((hatted, 6), (np.r_[hatted[:6], 0.5, hatted[7]], 7)):
        y = p.initial_coeffs
        for m in range(M):
            dW, Iw = theta_weights(path.dB[m], path.I[m], ctx.G)
            row = oracles.noise_row("ewp", ctx, dW, Iw)
            y = oracles.erkm15_closed_form_step(chat, ctx, y, row)
            assert oracles.spent(calls) == (5, b_evals, 0, 0, 0, 0)
            np.testing.assert_allclose(y, expected[m + 1], rtol=1e-12, atol=0.0)


def test_lie_resolvent_pin():
    N, h = 5, 0.3
    p = _silent_problem(N, kappa=0.9, with_derivs=False)
    path = sample_path(p.qspec, 1, h, 0)
    lam = p.eigenvalues
    y = solve(StepContext(p, h), "lie", path)
    np.testing.assert_allclose(y, p.initial_coeffs / (1.0 + h * lam), rtol=1e-15)


def test_lie_one_step_formula():
    # recompute (I - hA)^{-1}(Y + h f + b dW) by hand for f = 1, b = y
    N, h = 5, 0.3
    q = QSpec(1, np.array([1.0]), "scalar_constant")
    p = ProblemSpec(0.9, _one, _identity, _decaying_state(N, 2), q)
    path = sample_path(q, 1, h, 4)
    dB = float(path.dB[0, 0])
    grid = SineBasisGrid(N)
    lam = p.eigenvalues
    F = to_spectral(np.ones(grid.n_nodes), grid)
    y0 = p.initial_coeffs
    expected = (y0 + h * F + dB * y0) / (1.0 + h * lam)
    y = solve(StepContext(p, h), "lie", path)
    np.testing.assert_allclose(y, expected, rtol=1e-13)


def test_exe_constant_forcing_is_exact():
    # with b = 0 and constant f the mild solution is available in closed
    # form, and the phi1 weighting of the drift reproduces it
    N, h = 12, 0.3
    q = QSpec(1, np.array([0.0]), "scalar_constant")
    p = ProblemSpec(0.8, _one, _zero, _decaying_state(N, 4), q)
    path = sample_path(q, 1, h, 0)
    grid = SineBasisGrid(N)
    lam = p.eigenvalues
    F = to_spectral(np.ones(grid.n_nodes), grid)
    exact = np.exp(-lam * h) * p.initial_coeffs + (-np.expm1(-lam * h)) / lam * F

    y = solve(StepContext(p, h), "exe", path)
    np.testing.assert_allclose(y, exact, rtol=1e-13)
    # drift weighted by e^{Ah} instead of h phi1(hA) misses it
    grouped = np.exp(-lam * h) * (p.initial_coeffs + h * F)
    assert np.abs(grouped - exact).max() > 1e-6


def _one_plus_x(x, y):
    return 1.0 + x


@pytest.mark.parametrize("M", [1, 7, 64])
def test_exe_is_exact_for_forcing_that_depends_on_x(M):
    # f(x, y) = 1 + x, not symmetric about x = 1/2, and b = 0: exe is
    # exact for the projected forcing F, mode by mode
    #     Y_M = e^{-lambda T} Y_0 + (1 - e^{-lambda T}) / lambda F,
    # so it sees the x that eval_coeff passes: the nodes in another
    # order, or scaled to (0, 2), miss it
    N, T = 16, 1.0
    q = QSpec(1, np.array([1.0]), "scalar_constant")
    p = ProblemSpec(0.1, _one_plus_x, _zero, _decaying_state(N, 4), q)
    F = to_spectral(1.0 + p.grid.nodes, p.grid)
    lam = p.eigenvalues
    exact = np.exp(-lam * T) * p.initial_coeffs + (-np.expm1(-lam * T)) / lam * F
    y = solve(StepContext(p, T, M), "exe", sample_path(q, M, T / M, 0))
    np.testing.assert_allclose(y, exact, rtol=1e-12, atol=0.0)


def test_dfmm_difference_quotient_linear_noise():
    # for b(y) = y the shifted evaluation collapses to sqrt(h) * y, so the
    # correction is y (dW^2 - h gsq) / 2; assembled here independently
    p = builtin_problem("example1", 8)
    h = 0.2
    ctx, ((dW, Iw),) = _context_for(p, h, seed=9)
    y = _decaying_state(8, 3)
    got = baseline_step("dfmm", ctx, y, oracles.noise_row("dfmm", ctx, dW, Iw))

    yp = to_physical(y, ctx.grid)
    incr = yp * dW + 0.5 * yp * (dW**2 - h * ctx.gsq)
    expected = ctx.E_h * (y + to_spectral(incr, ctx.grid))
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def _closed_form(ctx, y, noise):
    return oracles.erkm15_closed_form_step(oracles.hatted_coefficients(np.ones(7), ctx.h),
                                           ctx, y, noise)


@pytest.mark.parametrize("scheme", ["ewp", "erkm15", "closed-form", "dfmm"])
def test_scalar_ito_taylor_oracle(scheme):
    # kappa ~ 0 and one constant noise mode turn the full stepper into a
    # one-dimensional SDE integrator for dX = X dW; orders 1.5 match the
    # classical expansion X+ = X (1 + dW + (dW^2 - h)/2 + (dW^3 - 3h dW)/6),
    # order 1.0 (dfmm) drops the last bracket.
    q = QSpec(1, np.array([1.0]), "scalar_constant")
    p = ProblemSpec(
        1e-12, _zero, _identity, np.array([0.7]), q,
        f_y=_zero, f_yy=_zero, b_y=_one, b_yy=_zero,
    )
    rng = np.random.default_rng(12)
    # the closed form reads ewp's noise factors
    sel, noise = ((_closed_form, "ewp") if scheme == "closed-form"
                  else (resolve_scheme(scheme).step, scheme))
    for trial in range(5):
        h = rng.uniform(0.05, 0.5)
        ctx, ((dW, Iw),) = _context_for(p, h, seed=trial, M=1)
        got = sel(ctx, np.array([0.7]), oracles.noise_row(noise, ctx, dW, Iw))
        dW = float(dW[0])
        factor = 1.0 + dW + 0.5 * (dW**2 - h)
        if scheme != "dfmm":
            factor += (dW**3 - 3.0 * h * dW) / 6.0
        np.testing.assert_allclose(got, 0.7 * factor, rtol=1e-9)


def test_zero_noise_degeneracy_linear_b():
    # a zero Wiener increment leaves only the Ito compensator
    # -(h/2) y gsq; for example1's b(y) = y the ERKM and EWP updates then
    # agree exactly, for any coefficient tuple
    N, h = 8, 0.25
    p = builtin_problem("example1", N)
    grid = p.grid
    ctx = StepContext(p, h)
    zero = NoisePath(np.zeros((1, 1)), np.zeros((1, 1)), h)
    dW, Iw = theta_weights(zero.dB[0], zero.I[0], ctx.G)
    y = _decaying_state(N, 11)

    drift_part = to_spectral(-0.5 * h * to_physical(y, grid) * ctx.gsq, grid)
    expected = ctx.E_h2 * (ctx.E_h2 * y + drift_part)

    rng = np.random.default_rng(8)
    c = rng.uniform(0.2, 2.0, 7)
    got_rk = erkm_step(erkm15_tableau(c), ctx, y, oracles.noise_row("erkm15", ctx, dW, Iw))
    got_wp = ewp_step(ctx, y, oracles.noise_row("ewp", ctx, dW, Iw))
    np.testing.assert_allclose(got_rk, expected, rtol=1e-12, atol=1e-17)
    np.testing.assert_allclose(got_wp, expected, rtol=1e-12, atol=1e-17)

    got_mm = baseline_step("dfmm", ctx, y, oracles.noise_row("dfmm", ctx, dW, Iw))
    expected_mm = ctx.E_h * (y + to_spectral(-0.5 * h * to_physical(y, grid) * ctx.gsq, grid))
    np.testing.assert_allclose(got_mm, expected_mm, rtol=1e-12, atol=1e-17)


def test_ewp_requires_derivative_maps():
    N = 4
    q = QSpec(1, np.array([1.0]), "scalar_constant")
    p = ProblemSpec(1.0, _zero, _identity, _decaying_state(N, 1), q)
    ctx, ((dW, Iw),) = _context_for(p, 0.1)
    with pytest.raises(CapabilityError, match="ewp"):
        ewp_step(ctx, _decaying_state(N, 1), oracles.noise_row("ewp", ctx, dW, Iw))


def test_solve_determinism_and_layout():
    p = builtin_problem("example2", 12)
    path = sample_path(p.qspec, 6, 0.05, 42, realization=3)
    y0 = p.initial_coeffs.copy()
    ctx = StepContext(p, 0.3, 6)
    a = solve(ctx, "erkm15", path)
    b = solve(ctx, "erkm15", path)
    assert a.shape == (12,)
    np.testing.assert_array_equal(a, b)
    # the run starts from the initial coefficients and leaves them intact
    np.testing.assert_array_equal(p.initial_coeffs, y0)
    ctx, ((dW, Iw),) = _context_for(p, path.h, seed=42, realization=3)
    first = solve(ctx, "erkm15", NoisePath(path.dB[:1], path.I[:1], path.h))
    np.testing.assert_array_equal(
        first, resolve_scheme("erkm15").step(ctx, y0, oracles.noise_row("erkm15", ctx, dW, Iw)))
    assert np.all(np.isfinite(a))


def test_solve_divergence_error():
    def blowup(x, y):
        return y * 1e200

    N = 4
    q = QSpec(1, np.array([0.0]), "scalar_constant")
    p = ProblemSpec(0.1, blowup, _zero, np.full(N, 0.5), q)
    path = sample_path(q, 4, 0.5, 0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        solve(StepContext(p, 2.0, 4), "exe", path)
    assert exc.value.scheme == "exe"
    assert exc.value.step == 1
    assert 0 <= exc.value.mode < N
    assert "exe" in str(exc.value)


def test_solve_runs_on_when_only_the_squared_norm_overflows():
    # entries of 1e200 are finite but y . y overflows; the scan that
    # follows finds no non-finite entry, so the run goes on, and without
    # a warning
    N, M, T = 4, 4, 1.0
    p = replace(_silent_problem(N), initial_coeffs=np.full(N, 1e200))
    with np.errstate(over="ignore"):
        assert not math.isfinite(p.initial_coeffs @ p.initial_coeffs)
    path = sample_path(p.qspec, M, T / M, 0)
    exact = np.exp(-p.eigenvalues * T) * p.initial_coeffs
    for scheme in ("erkm15", "ewp", "exe", "dfmm"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = solve(StepContext(p, T, M), scheme, path)
        np.testing.assert_allclose(y, exact, rtol=1e-12)


_PINS = os.path.join(os.path.dirname(__file__), "data", "solve_pins.json")


def _kernel_fingerprint():
    """float.hex of a few results of the floating-point kernels solve
    uses (BLAS matrix-vector products, sin, cos, integer powers)."""
    grid = SineBasisGrid(16)
    v = np.linspace(-1.0, 1.0, 16) / 3.0
    vals = np.concatenate([to_physical(v, grid), to_spectral(v, grid),
                           np.sin(v), np.cos(v), v**3])
    return [float(x).hex() for x in vals]


@pytest.mark.parametrize("M", [63, 64, 65, 513])
def test_solve_terminal_states_pinned(M):
    # float.hex of every scheme's terminal state, recorded from the engine
    # that built each step's noise factors inside the step.  The step
    # counts cross the edges of the 64-step noise chunk, and 513 the edge
    # of the 512-step chunk the pins were recorded with; a reassociated
    # sum or a reordered product moves the last bits.
    # Other BLAS or libm kernels round differently, so the pins hold only
    # where the kernels reproduce the recorded fingerprint
    with open(_PINS) as fh:
        pins = json.load(fh)
    if _kernel_fingerprint() != pins["kernels"]:
        pytest.skip("pins were recorded with other floating-point kernels")
    N, T = 16, 0.5
    p = builtin_problem("example3", N)
    path = sample_path(p.qspec, M, T / M, 37, realization=M)
    ctx = StepContext(p, T, M)
    for scheme in SCHEME_NAMES:
        got = [float(v).hex() for v in solve(ctx, scheme, path)]
        assert got == pins["states"]["%s@%d" % (scheme, M)], scheme


_FAMILY_PINS = os.path.join(os.path.dirname(__file__), "data", "erkm15_family_pins.json")


@pytest.mark.parametrize("M", [63, 65])
def test_erkm15_family_terminal_states_pinned(M):
    # float.hex of erkm15's terminal states for three c of the family,
    # recorded with a general two-family tableau interpreter that skipped
    # zero terms: all ones, c_1 = 1/2 (alpha^0 then has a zero base-point
    # weight) and mixed signs; same problem, paths and kernel fingerprint
    # as above
    with open(_FAMILY_PINS) as fh:
        pins = json.load(fh)
    if _kernel_fingerprint() != pins["kernels"]:
        pytest.skip("pins were recorded with other floating-point kernels")
    N, T = 16, 0.5
    p = builtin_problem("example3", N)
    path = sample_path(p.qspec, M, T / M, 37, realization=M)
    ctx = StepContext(p, T, M)
    for name, c in pins["c"].items():
        got = [float(v).hex() for v in solve(ctx, {"name": "erkm15", "c": c}, path)]
        assert got == pins["states"]["%s@%d" % (name, M)], name


# ------------------------------------------ local orders by quadrature

_LOCAL_H = 2.0 ** -np.arange(3, 9)


def _local_slopes(scheme):
    """The slopes in h, over h = 2^-3..2^-8, of the RMS and of the mean
    of the distance from one step of the Scheme record scheme to one step
    of ewp, both from example3's initial state at N = 64 and K = 1.  Each
    step is a polynomial of degree at most 3 in the step's (dB, I), so
    oracles.gauss_hermite_pairs gives both moments exactly."""
    p = builtin_problem("example3", 64, 1)
    y, ewp = p.initial_coeffs, resolve_scheme("ewp")
    rms, mean = [], []
    for h in _LOCAL_H:
        ctx = StepContext(p, h)
        dB, I, w = oracles.gauss_hermite_pairs(h)
        fields = theta_weights(dB[:, None], I[:, None], ctx.G)
        d = np.array([scheme.step(ctx, y, row) - ewp.step(ctx, y, ewp_row) for row, ewp_row
                      in zip(zip(*scheme.noise(ctx, *fields)), zip(*ewp.noise(ctx, *fields)))])
        rms.append(math.sqrt(w @ np.sum(d * d, axis=1)))
        mean.append(np.linalg.norm(w @ d))
    log_h = np.diff(np.log(_LOCAL_H))
    return np.diff(np.log(rms)) / log_h, np.diff(np.log(mean)) / log_h


def _family_members():
    """(label, c) of each erkm15 member of the family pins and the family demo."""
    with open(_FAMILY_PINS) as fh:
        members = list(json.load(fh)["c"].items())
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "erkm15_family",
                           "config.json")) as fh:
        members += [(s["label"], s["c"]) for s in json.load(fh)["schemes"]
                    if isinstance(s, dict) and s["name"] == "erkm15"]
    return members


@pytest.mark.parametrize("c", [pytest.param(c, id=label) for label, c in _family_members()])
def test_erkm15_family_local_order_by_quadrature(c):
    # by Milstein's fundamental theorem a local error of RMS O(h^2) and
    # mean O(h^(5/2)) gives global order 3/2: every member sits that
    # close to ewp (measured: RMS 1.99 -> 2.00, mean 2.90 -> 3.00)
    rms, mean = _local_slopes(resolve_scheme({"name": "erkm15", "c": c}))
    assert np.all((1.9 <= rms) & (rms <= 2.1)), rms
    assert np.all(mean >= 2.5), mean


def test_baseline_local_orders_by_quadrature():
    # dfmm sits O(h^(3/2)) from ewp, order 1 (measured 1.49 -> 1.50); exe
    # and lie O(h), order 1/2, once the slope settles (1.19 -> 1.02)
    rms, _ = _local_slopes(resolve_scheme("dfmm"))
    assert np.all((1.4 <= rms) & (rms <= 1.6)), rms
    for name in ("exe", "lie"):
        rms, _ = _local_slopes(resolve_scheme(name))
        assert 0.9 <= rms[-1] <= 1.1, (name, rms)


def test_printed_erratum_fails_the_local_order_check():
    # the published 1/(4 c_3) in alpha^(3)'s stage-4 and stage-5 entries
    # (see erkm15_tableau) at c_3 = 1/2: the row no longer sums to zero and
    # the step falls to O(h) from ewp, order 1/2 (measured 0.97 -> 1.00)
    c3 = 0.5
    tab = erkm15_tableau((1.0, 1.0, c3, 1.0, 1.0, 1.0, 1.0))
    a1, a2, a3 = tab.alpha
    printed = tab._replace(alpha=(a1, a2, (a3[0], 1.0 / (4.0 * c3), 1.0 / (4.0 * c3))))
    rms, _ = _local_slopes(resolve_scheme("erkm15")._replace(step=partial(erkm_step, printed)))
    assert np.all((0.9 <= rms) & (rms <= 1.1)), rms


def _with(t, i, value):
    """The tuple t with its entry i replaced by value."""
    return t[:i] + (value,) + t[i + 1:]


def test_erkm_step_reads_every_nonzero_tableau_entry():
    # a coefficient erkm_step did not read would be silently ignored, so
    # scaling any one of the record's 28 coefficients must move the step
    p = builtin_problem("example3", 16)
    rng = np.random.default_rng(11)
    ctx, fields = _context_for(p, 0.1, seed=4)
    noise = oracles.noise_row("erkm15", ctx, *fields[0])
    y = _decaying_state(16, 5)
    for _ in range(3):
        c = rng.uniform(0.3, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
        tab = erkm15_tableau(c)
        base = erkm_step(tab, ctx, y, noise)
        bumped = [tab._replace(stages=_with(tab.stages, i, 1.25 * k))
                  for i, k in enumerate(tab.stages)]
        for name in ("alpha", "beta"):
            rows = getattr(tab, name)
            bumped += [tab._replace(**{name: _with(rows, r, _with(row, j, 1.25 * w))})
                       for r, row in enumerate(rows) for j, w in enumerate(row)]
        assert len(bumped) == 28
        for t in bumped:
            assert not np.array_equal(erkm_step(t, ctx, y, noise), base), t


def test_resolve_scheme_forms():
    assert resolve_scheme("ewp").label == "ewp"
    scheme = resolve_scheme({"name": "erkm15", "c": list(np.full(7, 0.5)),
                             "label": "rk-half"})
    assert (scheme.name, scheme.label) == ("erkm15", "rk-half")
    assert resolve_scheme({"name": "exe"}).label == "exe"
    assert resolve_scheme({"name": "erkm15", "c": [1, 2, 3, 1, 1, 1, 1]}).name == "erkm15"
    # only the two forms a JSON config can hold are accepted
    with pytest.raises(ValueError, match="unrecognized"):
        resolve_scheme(("exe", {}))
    with pytest.raises(ValueError, match="unused"):
        resolve_scheme({"name": "exe", "variant": "group"})
    with pytest.raises(ValueError, match="unknown scheme"):
        resolve_scheme("milstein")
    # the summed closed form is the tableau engine's oracle, not a scheme
    with pytest.raises(ValueError, match="unknown scheme 'erkm-closed'"):
        resolve_scheme({"name": "erkm-closed", "c": [1.0] * 7})
    with pytest.raises(ValueError, match="unused"):
        resolve_scheme({"name": "ewp", "bogus": 1})
    with pytest.raises(ValueError, match="missing key 'name'"):
        resolve_scheme({"label": "x"})
    # c is 7 real numbers; strings and bools are not coerced
    for bad in ([1.0] * 5, [1.0] * 8, ["0.5"] * 7, [True] * 7, "1234567", 0.5):
        with pytest.raises(ValueError, match="'c' must be a list of 7 numbers"):
            resolve_scheme({"name": "erkm15", "c": bad})
    # a label must fit one CSV field
    for bad in (5, None, "", "a,b", "a\nb", " a"):
        with pytest.raises(ValueError, match="label must be"):
            resolve_scheme({"name": "exe", "label": bad})


def test_context_guards():
    p = builtin_problem("example1", 6)
    ctx = StepContext(p, 0.1)
    assert (ctx.T, ctx.M, ctx.h) == (0.1, 1, 0.1)
    # M is an integer, not a float or a bool; T is finite and > 0
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match="^M must be an integer >= 1, got %r$" % bad):
            StepContext(p, 1.0, bad)
    for bad in (0.0, -1.0, math.inf, math.nan, "0.1", None):
        with pytest.raises(ValueError, match="^T must be finite and > 0"):
            StepContext(p, bad)
    # T and M that are each valid but whose step size underflows
    with pytest.raises(ValueError, match=r"^T=5e-324 over M=2 steps: the step size T / M"
                       " underflows to 0$"):
        StepContext(builtin_problem("example3", 8), 5e-324, 2)
    # contexts match paths by step count, then by time span
    path2 = sample_path(p.qspec, 2, 0.1, 0)
    with pytest.raises(ValueError, match="does not match path"):
        solve(StepContext(p, 0.05), "exe", path2)
    with pytest.raises(ValueError, match="does not match path"):
        solve(StepContext(p, 0.4, 2), "exe", path2)
    # and by noise modes: example3's 6-mode path on example1's context
    p3 = builtin_problem("example3", 6)
    with pytest.raises(DimensionError, match="^path has 6 noise modes, problem 1$"):
        solve(StepContext(p, 0.1), "exe", sample_path(p3.qspec, 1, 0.1, 0))


def test_solve_takes_a_context_first():
    # the problem comes from the context alone: a call that passes a
    # problem, or anything else, first is told how to build a context
    p = builtin_problem("example1", 6)
    path = sample_path(p.qspec, 2, 0.05, 0)
    for first in (p, None, "ewp"):
        with pytest.raises(TypeError, match=r"^solve takes a StepContext first, got %s: build"
                           r" one with StepContext\(problem, T, M\)$" % type(first).__name__):
            solve(first, "ewp", path)
    ctx = StepContext(p, 0.1, 2)
    with pytest.raises(TypeError):
        solve(ctx, "ewp", path, ctx=ctx)
    # a context holds no scratch buffer: each solve allocates its own
    assert "tables" not in vars(ctx)


def test_context_arrays_are_read_only():
    # every solve of a study's step count shares its context, so none of
    # the arrays it derives can be written through it
    p = builtin_problem("example3", 8)
    ctx = StepContext(p, 0.5, 4)
    path = sample_path(p.qspec, 4, 0.125, 3)
    first = solve(ctx, "exe", path)
    for name in ("h_gsq", "E_h", "E_h2", "neg_lam", "resolvent", "phi1"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ctx, name)[0] = 0.0
    assert solve(ctx, "exe", path).tobytes() == first.tobytes()


def _oracle_factors(ctx):
    """The context's diagonal factors, from the oracle's own formulas."""
    lam, h, one = ctx.problem.eigenvalues, ctx.h, np.ones(ctx.problem.N)
    return {
        "neg_lam": oracles.apply_diagonal("generator", lam, one),
        "E_h": oracles.apply_diagonal("semigroup", lam, one, t=h),
        "E_h2": oracles.apply_diagonal("semigroup", lam, one, t=h / 2.0),
        "resolvent": oracles.apply_diagonal("resolvent", lam, one, h=h),
        "phi1": oracles.apply_diagonal("phi1", lam, one, h=h),
    }


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_context_factors_match_the_oracle_formulas(name):
    # byte for byte, from h lambda near 0 to h lambda near 1e305 and, at
    # T = 1e306, past the largest float for the top modes, and without a
    # warning anywhere
    p = builtin_problem(name, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny, one, half, huge, over = (StepContext(p, T, M) for T, M in (
            (1e-14, 1), (1.0, 7), (1.0, 14), (1e300, 1), (1e306, 1)))
    for ctx in (tiny, one, half, huge, over):
        with np.errstate(over="ignore"):  # the oracle's h lambda overflows at T = 1e306
            oracle = _oracle_factors(ctx)
        for which, factor in oracle.items():
            assert getattr(ctx, which).tobytes() == factor.tobytes(), which
    # phi1 -> 1 (as do E_h and the resolvent) as h lambda -> 0
    for factor in (tiny.phi1, tiny.E_h, tiny.resolvent):
        np.testing.assert_allclose(factor, 1.0, rtol=1e-9)
    # E_h, resolvent and phi1 -> 0 as h lambda -> inf
    for ctx in (huge, over):
        assert ctx.E_h.max() == ctx.E_h2.max() == 0.0
        assert ctx.resolvent.max() < 1e-297 and ctx.phi1.max() < 1e-297
    assert over.resolvent[-1] == over.phi1[-1] == 0.0
    # the semigroup property across two contexts: half a step of one is a
    # whole step of the other, exactly, since h / 2 is exact; two steps
    # of the other compose to one of the first
    assert one.E_h2.tobytes() == half.E_h.tobytes()
    np.testing.assert_allclose(half.E_h * half.E_h, one.E_h, rtol=1e-12, atol=1e-280)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "custom"])
def test_context_operator_data_is_the_problems_own(name):
    # a context reads grid, operator and noise matrix from its problem, so
    # one with another problem's kappa (1.0 for example3's 0.01) cannot be
    # written: the old form StepContext(problem, grid, operator, T, M) is gone
    if name == "custom":
        p = ProblemSpec(0.9, _one, _identity, _decaying_state(8, 3),
                        QSpec(3, [1.0, 0.5, 0.25]))
    else:
        p = builtin_problem(name, 8)
    with pytest.raises(TypeError):
        StepContext(p, SineBasisGrid(8), builtin_problem("example1", 8).eigenvalues, 0.5, 4)
    k = np.arange(1, p.N + 1, dtype=float)
    assert p.eigenvalues.tobytes() == (p.kappa * np.pi**2 * k**2).tobytes()
    ctxs = [StepContext(p, 0.5, M) for M in (1, 4, 64)]
    for ctx in ctxs:
        oracle = _oracle_factors(ctx)
        for which in ("neg_lam", "E_h"):
            assert getattr(ctx, which).tobytes() == oracle[which].tobytes()
        assert ctx.G is p.G and ctx.gsq is p.gsq and ctx.grid is ctxs[0].grid is p.grid


@settings(max_examples=25, deadline=None)
@given(
    T=st.floats(0.01, 10.0),
    base=st.integers(1, 7),
    factors=st.lists(st.integers(2, 5), min_size=1, max_size=3),
)
def test_coarsened_paths_match_contexts_by_step_count(T, base, factors):
    # a path coarsened from T / M_fine can carry an h an ulp away from
    # T / M; contexts built from (T, M) must accept it all the same
    Ms = [base]
    for f in factors:
        Ms.append(Ms[-1] * f)
    assume(Ms[-1] <= 2000)
    p = builtin_problem("example2", 4)
    fine = sample_path(p.qspec, Ms[-1], T / Ms[-1], 1)
    for M in Ms:
        path = coarsen(fine, Ms[-1] // M)
        y = solve(StepContext(p, T, M), "exe", path)
        assert y.shape == (4,) and np.all(np.isfinite(y))


def _step_by_hand(p, scheme, path, ctx):
    """Terminal state of scheme on path, each step's fields assembled by
    theta_weights and its noise row by the scheme's noise function."""
    scheme = resolve_scheme(scheme)
    y = p.initial_coeffs
    for m in range(path.M):
        dW, Iw = theta_weights(path.dB[m], path.I[m], ctx.G)
        y = scheme.step(ctx, y, scheme.noise(ctx, dW, Iw))
    return y


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_noise_of_one_step_is_the_chunk_row(scheme):
    # the noise functions are elementwise, so on one step's 1-d fields
    # they return the row that a one-row chunk of tables gives, and the
    # step taken from it is the same, to the bit; erkm15 also as a
    # member with mixed c
    selectors = [scheme]
    if scheme == "erkm15":
        selectors.append({"name": "erkm15", "c": [1.0, 0.7, -1.3, 0.9, 1.1, 0.6, -0.8]})
    for name in ("example1", "example2", "example3"):
        p = builtin_problem(name, 16)
        ctx, fields = _context_for(p, 0.1, seed=6, M=3)
        for sel in selectors:
            resolved = resolve_scheme(sel)
            y = p.initial_coeffs
            for dW, Iw in fields:
                row = resolved.noise(ctx, dW, Iw)
                chunk_row = next(zip(*resolved.noise(ctx, dW[None], Iw[None])))
                assert [a.tobytes() for a in row] == [a.tobytes() for a in chunk_row]
                assert all(a.shape == dW.shape for a in row)
                y_next = resolved.step(ctx, y, row)
                assert y_next.tobytes() == resolved.step(ctx, y, chunk_row).tobytes()
                y = y_next


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_solve_streams_chunks_like_stepping_by_hand(scheme):
    # paths just below, at, above and well past one noise-field chunk;
    # the streamed tables are bit-identical to per-step assembly
    N = 16
    p = builtin_problem("example3", N)
    for M in (CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 3):
        ctx = StepContext(p, 0.5, M)
        path = sample_path(p.qspec, M, 0.5 / M, 31, realization=M)
        y = solve(ctx, scheme, path)
        assert np.array_equal(y, _step_by_hand(p, scheme, path, ctx)), M


def test_solve_takes_its_fields_from_theta_weights_per_chunk(monkeypatch):
    # one call of schemes.theta_weights per chunk: 64, 64 and 3 rows at
    # M = 2 CHUNK_STEPS + 3, and the same terminal state as unwrapped
    p = builtin_problem("example3", 8)
    M = 2 * CHUNK_STEPS + 3
    ctx = StepContext(p, 0.5, M)
    path = sample_path(p.qspec, M, 0.5 / M, 4)
    expect = solve(ctx, "erkm15", path)
    rows = []

    def counting(dB, I, G):
        rows.append(len(dB))
        return theta_weights(dB, I, G)

    monkeypatch.setattr(schemes, "theta_weights", counting)
    y = solve(ctx, "erkm15", path)
    assert rows == [CHUNK_STEPS, CHUNK_STEPS, 3]
    assert np.array_equal(y, expect)
