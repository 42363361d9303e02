"""Transforms, diagonal operator actions, and H_r norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spderk.errors import DimensionError
from spderk.spectral import (
    LinearOperatorSpec,
    SineBasisGrid,
    apply_diagonal,
    diagonal_factor,
    h_r_norm,
    to_physical,
    to_spectral,
)


def dense_synthesis(coeffs, nodes):
    """Oracle: evaluate sum_k a_k sqrt(2) sin(k pi x) by explicit summation."""
    out = np.zeros(len(nodes))
    for k, a in enumerate(coeffs, start=1):
        out += a * np.sqrt(2.0) * np.sin(k * np.pi * np.asarray(nodes))
    return out


def test_grid_nodes_interior_and_increasing():
    g = SineBasisGrid(17)
    assert g.n_nodes == g.N == 17
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1
    assert np.allclose(g.nodes, np.arange(1, 18) / 18.0)


def test_to_physical_single_mode_frozen():
    # a=(1,0,0) on N=3: sqrt(2) sin(pi p/4) = (1, sqrt(2), 1)
    g = SineBasisGrid(3)
    vals = to_physical(np.array([1.0, 0.0, 0.0]), g)
    assert np.allclose(vals, [1.0, np.sqrt(2.0), 1.0], rtol=0, atol=1e-14)


def test_to_physical_zero():
    g = SineBasisGrid(8)
    assert np.all(to_physical(np.zeros(8), g) == 0.0)


def test_to_spectral_single_mode():
    g = SineBasisGrid(12)
    vals = np.sqrt(2.0) * np.sin(np.pi * g.nodes)
    coeffs = to_spectral(vals, g)
    expect = np.zeros(12)
    expect[0] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-13)


def test_transform_matches_dense_oracle():
    rng = np.random.default_rng(7)
    g = SineBasisGrid(33)
    a = rng.standard_normal(33)
    assert np.allclose(to_physical(a, g), dense_synthesis(a, g.nodes), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_identity(n, seed):
    g = SineBasisGrid(n)
    a = np.random.default_rng(seed).standard_normal(n)
    back = to_spectral(to_physical(a, g), g)
    assert np.allclose(back, a, rtol=1e-12, atol=1e-12)


def test_length_mismatch_rejected():
    g = SineBasisGrid(5)
    with pytest.raises(DimensionError):
        to_physical(np.zeros(6), g)
    with pytest.raises(DimensionError):
        to_spectral(np.zeros(4), g)


def test_eigenvalues():
    op = LinearOperatorSpec(kappa=0.1, N=6)
    k = np.arange(1, 7)
    assert np.allclose(op.eigenvalues, 0.1 * np.pi**2 * k**2)
    assert np.all(np.diff(op.eigenvalues) > 0) and op.eigenvalues[0] > 0


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        LinearOperatorSpec(kappa=0.0, N=4)
    # an infinite kappa gives non-finite eigenvalues
    for kappa in (np.inf, np.nan, True):
        with pytest.raises(ValueError, match="^kappa must be finite and > 0"):
            LinearOperatorSpec(kappa=kappa, N=4)
    for N in (4.0, True, 0):
        with pytest.raises(ValueError, match="^N must be an integer >= 1"):
            LinearOperatorSpec(kappa=1.0, N=N)


def test_grid_takes_an_integer_mode_count():
    assert SineBasisGrid(np.int64(3)).N == 3
    for N in (3.0, True, 0, -2):
        with pytest.raises(ValueError, match="^N must be an integer >= 1, got "):
            SineBasisGrid(N)


def test_semigroup_single_mode_frozen():
    op = LinearOperatorSpec(kappa=1.0, N=4)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    out = apply_diagonal("semigroup", op, e, t=1.0)
    assert np.isclose(out[0], np.exp(-np.pi**2), rtol=1e-14)
    assert np.all(out[1:] == 0.0)


def test_generator_on_zero():
    op = LinearOperatorSpec(kappa=1.0, N=4)
    assert np.all(apply_diagonal("generator", op, np.zeros(4)) == 0.0)


def test_resolvent_inverts_i_minus_ha():
    # (I - hA)^(-1) (I - hA) = I per mode; A acts as -lambda_k
    rng = np.random.default_rng(11)
    op = LinearOperatorSpec(kappa=2.0, N=40)
    a = rng.standard_normal(40)
    h = 0.37
    forward = (1.0 + h * op.eigenvalues) * a
    back = apply_diagonal("resolvent", op, forward, h=h)
    assert np.allclose(back, a, rtol=1e-13)


def test_semigroup_property():
    # relative form; exp argument rounding grows like lambda*(s+t)*eps, so
    # the 1e-13 band is checked on a spectrum whose factors stay normal
    rng = np.random.default_rng(5)
    op = LinearOperatorSpec(kappa=0.1, N=12)
    a = rng.standard_normal(12)
    for _ in range(20):
        s, t = rng.uniform(0.0, 1.0, size=2) + 1e-12
        both = apply_diagonal("semigroup", op, a, t=s + t)
        composed = apply_diagonal(
            "semigroup", op, apply_diagonal("semigroup", op, a, t=t), t=s
        )
        assert np.allclose(both, composed, rtol=1e-13, atol=0.0)


def test_semigroup_property_stiff_tail_absolute():
    # for large lambda*t both sides are indistinguishable from zero
    op = LinearOperatorSpec(kappa=1.0, N=64)
    a = np.ones(64)
    both = apply_diagonal("semigroup", op, a, t=1.7)
    composed = apply_diagonal(
        "semigroup", op, apply_diagonal("semigroup", op, a, t=0.9), t=0.8
    )
    assert np.allclose(both, composed, rtol=1e-12, atol=1e-280)


def test_diagonality_one_hot():
    op = LinearOperatorSpec(kappa=1.0, N=9)
    for kind, kw in [
        ("semigroup", {"t": 0.3}),
        ("generator", {}),
        ("resolvent", {"h": 0.1}),
        ("phi1", {"h": 0.1}),
    ]:
        e = np.zeros(9)
        e[4] = 1.0
        out = apply_diagonal(kind, op, e, **kw)
        mask = np.ones(9, dtype=bool)
        mask[4] = False
        assert np.all(out[mask] == 0.0) and out[4] != 0.0


def test_phi1_values():
    op = LinearOperatorSpec(kappa=1.0, N=3)
    h = 0.25
    z = h * op.eigenvalues
    expect = (1.0 - np.exp(-z)) / z
    assert np.allclose(diagonal_factor("phi1", op, h=h), expect, rtol=1e-13)
    # phi1 -> 1 as h -> 0
    tiny = diagonal_factor("phi1", op, h=1e-14)
    assert np.allclose(tiny, 1.0, rtol=1e-9)


def test_bad_diagonal_arguments():
    op = LinearOperatorSpec(kappa=1.0, N=3)
    for kind in ("resolvent", "phi1"):
        for bad in (None, 0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="^h must be finite and > 0, got %r$" % bad):
                diagonal_factor(kind, op, h=bad)
            with pytest.raises(ValueError, match="^h must be finite and > 0, got %r$" % bad):
                apply_diagonal(kind, op, np.ones(3), h=bad)
    for bad in (None, -1.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="^t must be finite and >= 0, got %r$" % bad):
            diagonal_factor("semigroup", op, t=bad)
        with pytest.raises(ValueError, match="^t must be finite and >= 0, got %r$" % bad):
            apply_diagonal("semigroup", op, np.ones(3), t=bad)
    assert np.all(diagonal_factor("semigroup", op, t=0.0) == 1.0)
    with pytest.raises(ValueError):
        diagonal_factor("no_such_kind", op)


def test_h_norm_parseval_frozen():
    op = LinearOperatorSpec(kappa=1.0, N=2)
    assert h_r_norm(op, 0.0, np.array([3.0, 4.0])) == 5.0


def test_h_norm_parseval_same_arithmetic():
    rng = np.random.default_rng(2)
    op = LinearOperatorSpec(kappa=3.0, N=50)
    v = rng.standard_normal(50)
    assert h_r_norm(op, 0.0, v) == float(np.sqrt(np.sum(v**2)))


def test_h1_norm_single_mode_frozen():
    op = LinearOperatorSpec(kappa=1.0, N=5)
    e = np.zeros(5)
    e[0] = 1.0
    assert np.isclose(h_r_norm(op, 1.0, e), np.pi**2, rtol=1e-14)


def test_h_half_norm_direct_sum_oracle():
    rng = np.random.default_rng(9)
    op = LinearOperatorSpec(kappa=0.7, N=30)
    v = rng.standard_normal(30)
    direct = np.sqrt(sum(lam * a * a for lam, a in zip(op.eigenvalues, v)))
    assert np.isclose(h_r_norm(op, 0.5, v), direct, rtol=1e-12)
    # interpolation consistency: ||v||_{1/2}^2 <= ||v||_0 ||v||_1 (Cauchy-Schwarz)
    assert h_r_norm(op, 0.5, v) ** 2 <= h_r_norm(op, 0.0, v) * h_r_norm(op, 1.0, v) * (
        1 + 1e-12
    )
