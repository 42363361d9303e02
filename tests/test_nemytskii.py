"""Problem definitions, pointwise evaluation, derivative maps."""

import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import oracles
from spderk.errors import CapabilityError, DimensionError
from spderk.nemytskii import (
    ProblemSpec,
    builtin_problem,
    eval_coeff,
)
from spderk.qwiener import QSpec, noise_matrix, sample_path
from spderk.schemes import StepContext, solve
from spderk.spectral import SineBasisGrid


def test_example1_data():
    p = builtin_problem("example1", N=8)
    assert p.kappa == 1.0
    assert p.qspec.mode_kind == "scalar_constant" and p.qspec.K == 1
    assert p.qspec.mode_eigenvalues[0] == 1.0
    n = np.arange(1, 9, dtype=float)
    assert np.array_equal(p.initial_coeffs, n**-4.0)
    assert p.initial_coeffs[0] == 1.0 and p.initial_coeffs[1] == 1.0 / 16.0
    assert p.exact is not None


def test_example1_exact_frozen_values():
    p = builtin_problem("example1", N=4)
    a = p.exact(1.0, 0.0)
    assert np.isclose(a[0], np.exp(-(np.pi**2 + 0.5)), rtol=1e-14)
    a = p.exact(0.5, 1.25)
    expect = (1.0 / 16.0) * np.exp(-(4 * np.pi**2 + 0.5) * 0.5 + 1.25)
    assert np.isclose(a[1], expect, rtol=1e-14)


def test_example2_data():
    p = builtin_problem("example2", N=16, K=8)
    assert p.kappa == 0.1
    j = np.arange(1, 9, dtype=float)
    assert np.allclose(p.qspec.mode_eigenvalues, (0.1 * np.pi**2 * j**2) ** -3.0)
    assert p.initial_coeffs[0] == 1.0 / np.sqrt(2.0)
    assert np.all(p.initial_coeffs[1:] == 0.0)
    # K defaults to N
    assert builtin_problem("example2", N=16).qspec.K == 16


def test_example3_data():
    p = builtin_problem("example3", N=16, K=12)
    assert p.kappa == 0.01
    assert np.allclose(
        p.qspec.mode_eigenvalues, np.arange(1, 13, dtype=float) ** -3.0
    )
    assert p.initial_coeffs[1] == 1.0 / (2.0 * np.sqrt(2.0))
    assert np.all(np.delete(p.initial_coeffs, 1) == 0.0)


def test_example1_rejects_multimode_noise():
    with pytest.raises(ValueError):
        builtin_problem("example1", N=8, K=2)


@pytest.mark.parametrize("N, K", [(True, None), (8.0, None), (8, 2.5), (8, False)])
def test_builtin_problem_takes_integer_counts(N, K):
    name = "N" if K is None else "K"
    with pytest.raises(ValueError, match="^%s must be an integer >= 1" % name):
        builtin_problem("example2", N, K)


def test_unknown_problem():
    with pytest.raises(ValueError):
        builtin_problem("example9", N=8)


def test_eval_f_example3_at_zero():
    p, calls = oracles.counting(builtin_problem("example3", N=8))
    ctx = StepContext(p, 0.1)
    assert np.all(eval_coeff(ctx, "f", np.zeros(8)) == 0.0)
    assert oracles.spent(calls) == (1, 0, 0, 0, 0, 0)


def test_eval_b_example1_is_identity():
    p, calls = oracles.counting(builtin_problem("example1", N=6))
    ctx = StepContext(p, 0.1)
    v = np.random.default_rng(0).standard_normal(6)
    assert np.array_equal(eval_coeff(ctx, "b", v), v)
    assert oracles.spent(calls) == (0, 1, 0, 0, 0, 0)


def _custom(f, b=lambda x, y: y, N=4, **derivs):
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    return ProblemSpec(kappa=1.0, f=f, b=b, initial_coeffs=np.zeros(N), qspec=q, **derivs)


def test_eval_scalar_result_broadcasts():
    ctx = StepContext(_custom(lambda x, y: 3.0), 0.1)
    out = eval_coeff(ctx, "f", np.zeros(4))
    assert out.shape == (4,) and np.all(out == 3.0)


def test_eval_passes_the_nodes_to_the_map():
    seen = []

    def f(x, y):
        seen.append(x)
        raise RuntimeError("map failed")

    ctx = StepContext(_custom(f), 0.1)
    with pytest.raises(RuntimeError, match="map failed"):
        eval_coeff(ctx, "f", np.zeros(4))
    assert seen[0] is ctx.grid.nodes


def test_missing_derivative_names_requester():
    # eval_coeff looks each map up on the problem; one it leaves None
    # raises, naming ewp for a derivative map and no requester for f or b
    p = _custom(lambda x, y: np.zeros_like(y))
    ctx = StepContext(p, 0.1)
    with pytest.raises(CapabilityError, match=r"^problem 'custom' does not provide the"
                                              r" b_yy map \(required by ewp\)$"):
        eval_coeff(ctx, "b_yy", np.zeros(4))
    no_f = StepContext(replace(p, f=None), 0.1)
    with pytest.raises(CapabilityError, match=r"^problem 'custom' does not provide the f map$"):
        eval_coeff(no_f, "f", np.zeros(4))


def test_eval_converts_non_float_results():
    # an integer field of the grid's shape comes back as floats
    ctx = StepContext(_custom(lambda x, y: np.arange(4)), 0.1)
    out = eval_coeff(ctx, "f", np.zeros(4))
    assert out.dtype == float and np.array_equal(out, [0.0, 1.0, 2.0, 3.0])
    ctx = StepContext(builtin_problem("example1", N=4), 0.1)
    assert eval_coeff(ctx, "b", np.ones(4)).dtype == float


@pytest.mark.parametrize("result, error, got", [
    (lambda y: None, TypeError, "NoneType of dtype object, not real numbers"),
    (lambda y: 1j + y, TypeError, "ndarray of dtype complex128, not real numbers"),
    (lambda y: True, TypeError, "bool of dtype bool, not real numbers"),
    (lambda y: "a", TypeError, "str of dtype <U1, not real numbers"),
    (lambda y: np.zeros(5), DimensionError,
     "shape (5,), which does not broadcast to the nodes' shape (4,)"),
], ids=["None", "complex", "bool", "str", "shape"])
def test_eval_rejects_results_that_are_not_real_fields(result, error, got):
    # such a result is not coerced (None to nan, complex to its real part,
    # True to 1.0): eval_coeff raises, naming the problem and the map, so
    # solve does not blame the scheme for it
    p = _custom(lambda x, y: result(y))
    msg = "^%s$" % re.escape("problem 'custom': the f map returned " + got)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=msg):
            eval_coeff(StepContext(p, 0.1), "f", np.zeros(4))
        with pytest.raises(error, match=msg):
            solve(StepContext(p, 0.1), "lie", sample_path(p.qspec, 1, 0.1, 0))


def central_difference(fn, x, y, delta=1e-5):
    return (fn(x, y + delta) - fn(x, y - delta)) / (2.0 * delta)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_derivative_maps_match_finite_differences(name):
    p = builtin_problem(name, N=16)
    grid = SineBasisGrid(16)
    rng = np.random.default_rng(42)
    for _ in range(200 // grid.N + 1):
        y = rng.uniform(-3.0, 3.0, size=grid.N)
        for fn, dfn in [(p.f, p.f_y), (p.b, p.b_y), (p.f_y, p.f_yy), (p.b_y, p.b_yy)]:
            fd = central_difference(fn, grid.nodes, y)
            exact = dfn(grid.nodes, y)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)


def test_custom_derivative_against_fd():
    # f(x, y) = y^2 with hand-coded f_y = 2y
    p = _custom(lambda x, y: y**2, N=8, f_y=lambda x, y: 2.0 * y)
    y = np.random.default_rng(1).uniform(-2, 2, size=8)
    fd = central_difference(p.f, p.grid.nodes, y)
    assert np.allclose(fd, eval_coeff(StepContext(p, 0.1), "f_y", y), rtol=1e-8, atol=1e-8)


def test_exact_must_match_initial():
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    for kappa in (0.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="^kappa must be finite and > 0"):
            ProblemSpec(kappa, lambda x, y: y, lambda x, y: y, np.ones(3), q)
    with pytest.raises(ValueError):
        ProblemSpec(
            kappa=1.0,
            f=lambda x, y: y,
            b=lambda x, y: y,
            initial_coeffs=np.ones(3),
            qspec=q,
            exact=lambda t, beta: np.zeros(3),
        )


@pytest.mark.parametrize("kappa, N, finite", [(1e306, 64, 1e303), (1e305, 256, 1e302),
                                               (1.7e308, 1, 1e307)])
def test_kappa_whose_eigenvalues_overflow_is_rejected(kappa, N, finite):
    # kappa is finite, but kappa pi^2 N^2 is not: no problem is built, and
    # no overflow warning is emitted on the way to saying so
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "kappa=%r with N=%d: the largest eigenvalue kappa pi^2 N^2 overflows"
                % (kappa, N))):
            ProblemSpec(kappa, lambda x, y: y, lambda x, y: y, np.ones(N), q)
        # a smaller kappa leaves every eigenvalue and every factor of a
        # context finite
        p = ProblemSpec(finite, lambda x, y: y, lambda x, y: y, np.ones(N), q)
        ctx = StepContext(p, 1e-300)
        for a in (p.eigenvalues, ctx.neg_lam, ctx.E_h, ctx.resolvent, ctx.phi1):
            assert np.all(np.isfinite(a))


@pytest.mark.parametrize(
    "record, name",
    [("problem", f.name) for f in fields(ProblemSpec)]
    + [("qspec", f.name) for f in fields(QSpec)],
)
def test_problem_and_qspec_fields_cannot_be_assigned(record, name):
    # a problem is a value: its cached grid, eigenvalues, G and gsq cannot
    # go stale
    p = builtin_problem("example3", 8)
    target = p if record == "problem" else p.qspec
    with pytest.raises(FrozenInstanceError):
        setattr(target, name, getattr(target, name))
    with pytest.raises(FrozenInstanceError):
        delattr(target, name)
    assert p.kappa == 0.01 and p.eigenvalues[0] == 0.01 * np.pi**2


def test_problem_and_qspec_own_read_only_copies_of_their_arrays():
    init, eta = np.array([0.0, 0.5, 0.25]), np.array([1.0, 0.5])
    q = QSpec(2, eta)
    p = ProblemSpec(1.0, lambda x, y: y, lambda x, y: y, init, q)
    # the caller's arrays may change after construction ...
    init[0], eta[1] = 7.0, -3.0
    assert p.initial_coeffs.tolist() == [0.0, 0.5, 0.25]
    assert q.mode_eigenvalues.tolist() == [1.0, 0.5]
    assert np.array_equal(p.G, noise_matrix(QSpec(2, [1.0, 0.5]), p.grid))
    # ... and the record's own cannot
    with pytest.raises(ValueError, match="read-only"):
        p.initial_coeffs[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        q.mode_eigenvalues[1] = -3.0


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_cached_arrays_of_a_problem_are_read_only(name):
    # every context of a problem shares its grid, eigenvalues, G and gsq,
    # so none of their arrays can be written through one of them
    p = builtin_problem(name, 6)
    first = StepContext(p, 0.1)
    for a in (p.grid.nodes, p.grid._synth, p.grid._anal, p.eigenvalues, p.G, p.gsq):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # so eigenvalues[0] = 1.0 cannot reach a later context's neg_lam
    assert StepContext(p, 0.1).neg_lam.tobytes() == first.neg_lam.tobytes()
    assert first.neg_lam[0] == -p.kappa * np.pi**2


@pytest.mark.parametrize("init", [np.ones((3, 3)), np.ones((1, 4)), np.zeros(0), [], 1.0])
def test_initial_coeffs_must_be_a_nonempty_vector(init):
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    with pytest.raises(ValueError, match=r"^initial_coeffs must be a nonempty 1-d vector, got shape"
                       r" %s$" % re.escape(repr(np.shape(init)))):
        ProblemSpec(1.0, lambda x, y: y, lambda x, y: y, init, q)
    with pytest.raises(ValueError, match="^initial_coeffs must be finite$"):
        ProblemSpec(1.0, lambda x, y: y, lambda x, y: y, [0.0, np.nan], q)
