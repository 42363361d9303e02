"""Problem definitions, pointwise evaluation, derivative maps."""

import numpy as np
import pytest

from spderk.errors import CapabilityError
from spderk.nemytskii import (
    ProblemSpec,
    builtin_problem,
    coeff_map,
    eval_coeff,
)
from spderk.qwiener import QSpec
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


def test_unknown_problem():
    with pytest.raises(ValueError):
        builtin_problem("example9", N=8)


def test_eval_f_example3_at_zero():
    p = builtin_problem("example3", N=8)
    grid = SineBasisGrid(8)
    assert np.all(eval_coeff(coeff_map(p, "f"), np.zeros(8), grid) == 0.0)


def test_eval_b_example1_is_identity():
    p = builtin_problem("example1", N=6)
    grid = SineBasisGrid(6)
    v = np.random.default_rng(0).standard_normal(6)
    assert np.array_equal(eval_coeff(coeff_map(p, "b"), v, grid), v)


def test_eval_scalar_result_broadcasts():
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    p = ProblemSpec(
        kappa=1.0,
        f=lambda x, y: 3.0,
        b=lambda x, y: y,
        initial_coeffs=np.zeros(4),
        qspec=q,
    )
    grid = SineBasisGrid(4)
    out = eval_coeff(coeff_map(p, "f"), np.zeros(4), grid)
    assert out.shape == (4,) and np.all(out == 3.0)


def test_unknown_selector():
    p = builtin_problem("example1", N=4)
    with pytest.raises(ValueError, match="unknown selector"):
        coeff_map(p, "g")


def test_missing_derivative_names_requester():
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    p = ProblemSpec(
        kappa=1.0,
        f=lambda x, y: np.zeros_like(y),
        b=lambda x, y: y,
        initial_coeffs=np.zeros(4),
        qspec=q,
    )
    grid = SineBasisGrid(4)
    # binding a missing map succeeds; evaluating it raises
    b_yy = coeff_map(p, "b_yy", needed_by="ewp")
    with pytest.raises(CapabilityError, match="b_yy map .required by ewp"):
        eval_coeff(b_yy, np.zeros(4), grid)
    with pytest.raises(CapabilityError, match="b_y map$"):
        eval_coeff(coeff_map(p, "b_y"), np.zeros(4), grid)


def test_eval_converts_non_float_results():
    # an integer field of the grid's shape comes back as floats
    p = builtin_problem("example1", N=4)
    grid = SineBasisGrid(4)
    out = eval_coeff(lambda x, y: np.arange(4), np.zeros(4), grid)
    assert out.dtype == float and np.array_equal(out, [0.0, 1.0, 2.0, 3.0])
    assert eval_coeff(coeff_map(p, "b"), np.ones(4), grid).dtype == float


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
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    p = ProblemSpec(
        kappa=1.0,
        f=lambda x, y: y**2,
        f_y=lambda x, y: 2.0 * y,
        b=lambda x, y: y,
        initial_coeffs=np.zeros(8),
        qspec=q,
    )
    grid = SineBasisGrid(8)
    y = np.random.default_rng(1).uniform(-2, 2, size=8)
    fd = central_difference(p.f, grid.nodes, y)
    assert np.allclose(fd, eval_coeff(coeff_map(p, "f_y"), y, grid), rtol=1e-8, atol=1e-8)


def test_exact_must_match_initial():
    q = QSpec(1, [1.0], mode_kind="scalar_constant")
    with pytest.raises(ValueError):
        ProblemSpec(
            kappa=1.0,
            f=lambda x, y: y,
            b=lambda x, y: y,
            initial_coeffs=np.ones(3),
            qspec=q,
            exact=lambda t, beta: np.zeros(3),
        )
