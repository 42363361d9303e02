"""Transforms, the operator's eigenvalues, and diagonal factors and H_r
norms (through the test oracles apply_diagonal and h_r_norm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_diagonal, h_r_norm
from spderk.errors import DimensionError
from spderk.nemytskii import ProblemSpec
from spderk.qwiener import QSpec
from spderk.schemes import StepContext
from spderk.spectral import SineBasisGrid, to_physical, to_spectral


def _identity(x, y):
    return y


def _problem(kappa, N):
    """A problem of kappa * Laplace on N modes; its eigenvalues are the operator."""
    return ProblemSpec(kappa, _identity, _identity, np.ones(N),
                       QSpec(1, [1.0], mode_kind="scalar_constant"))


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
    lam = _problem(0.1, 6).eigenvalues
    k = np.arange(1, 7)
    assert np.allclose(lam, 0.1 * np.pi**2 * k**2)
    assert np.all(np.diff(lam) > 0) and lam[0] > 0


def test_grid_takes_an_integer_mode_count():
    assert SineBasisGrid(np.int64(3)).N == 3
    for N in (3.0, True, 0, -2):
        with pytest.raises(ValueError, match="^N must be an integer >= 1, got "):
            SineBasisGrid(N)


def test_semigroup_single_mode_frozen():
    lam = _problem(1.0, 4).eigenvalues
    e = np.array([1.0, 0.0, 0.0, 0.0])
    out = apply_diagonal("semigroup", lam, e, t=1.0)
    assert np.isclose(out[0], np.exp(-np.pi**2), rtol=1e-14)
    assert np.all(out[1:] == 0.0)


def test_generator_on_zero():
    lam = _problem(1.0, 4).eigenvalues
    assert np.all(apply_diagonal("generator", lam, np.zeros(4)) == 0.0)


def test_resolvent_inverts_i_minus_ha():
    # (I - hA)^(-1) (I - hA) = I per mode; A acts as -lambda_k
    rng = np.random.default_rng(11)
    lam = _problem(2.0, 40).eigenvalues
    a = rng.standard_normal(40)
    h = 0.37
    forward = (1.0 + h * lam) * a
    back = apply_diagonal("resolvent", lam, forward, h=h)
    assert np.allclose(back, a, rtol=1e-13)


def test_semigroup_property():
    # relative form; exp argument rounding grows like lambda*(s+t)*eps, so
    # the 1e-13 band is checked on a spectrum whose factors stay normal
    rng = np.random.default_rng(5)
    lam = _problem(0.1, 12).eigenvalues
    a = rng.standard_normal(12)
    for _ in range(20):
        s, t = rng.uniform(0.0, 1.0, size=2) + 1e-12
        both = apply_diagonal("semigroup", lam, a, t=s + t)
        composed = apply_diagonal(
            "semigroup", lam, apply_diagonal("semigroup", lam, a, t=t), t=s
        )
        assert np.allclose(both, composed, rtol=1e-13, atol=0.0)


def test_semigroup_property_stiff_tail_absolute():
    # for large lambda*t both sides are indistinguishable from zero
    lam = _problem(1.0, 64).eigenvalues
    a = np.ones(64)
    both = apply_diagonal("semigroup", lam, a, t=1.7)
    composed = apply_diagonal(
        "semigroup", lam, apply_diagonal("semigroup", lam, a, t=0.9), t=0.8
    )
    assert np.allclose(both, composed, rtol=1e-12, atol=1e-280)


def test_diagonality_one_hot():
    lam = _problem(1.0, 9).eigenvalues
    for kind, kw in [
        ("semigroup", {"t": 0.3}),
        ("generator", {}),
        ("resolvent", {"h": 0.1}),
        ("phi1", {"h": 0.1}),
    ]:
        e = np.zeros(9)
        e[4] = 1.0
        out = apply_diagonal(kind, lam, e, **kw)
        mask = np.ones(9, dtype=bool)
        mask[4] = False
        assert np.all(out[mask] == 0.0) and out[4] != 0.0


def test_phi1_values():
    # a context's phi1 against the textbook form, which cancels as z -> 0
    p = _problem(1.0, 3)
    h = 0.25
    z = h * p.eigenvalues
    expect = (1.0 - np.exp(-z)) / z
    assert np.allclose(StepContext(p, h).phi1, expect, rtol=1e-13)
    # phi1 -> 1 as h -> 0
    tiny = StepContext(p, 1e-14).phi1
    assert np.allclose(tiny, 1.0, rtol=1e-9)


def test_h_norm_parseval_frozen():
    lam = _problem(1.0, 2).eigenvalues
    assert h_r_norm(lam, 0.0, np.array([3.0, 4.0])) == 5.0


def test_h_norm_parseval_same_arithmetic():
    rng = np.random.default_rng(2)
    lam = _problem(3.0, 50).eigenvalues
    v = rng.standard_normal(50)
    assert h_r_norm(lam, 0.0, v) == float(np.sqrt(np.sum(v**2)))


def test_h1_norm_single_mode_frozen():
    lam = _problem(1.0, 5).eigenvalues
    e = np.zeros(5)
    e[0] = 1.0
    assert np.isclose(h_r_norm(lam, 1.0, e), np.pi**2, rtol=1e-14)


def test_h_half_norm_direct_sum_oracle():
    rng = np.random.default_rng(9)
    lam = _problem(0.7, 30).eigenvalues
    v = rng.standard_normal(30)
    direct = np.sqrt(sum(lam_k * a * a for lam_k, a in zip(lam, v)))
    assert np.isclose(h_r_norm(lam, 0.5, v), direct, rtol=1e-12)
    # interpolation consistency: ||v||_{1/2}^2 <= ||v||_0 ||v||_1 (Cauchy-Schwarz)
    assert h_r_norm(lam, 0.5, v) ** 2 <= h_r_norm(lam, 0.0, v) * h_r_norm(lam, 1.0, v) * (
        1 + 1e-12
    )
