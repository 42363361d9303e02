"""Noise sampling, coarsening, and random-weight assembly."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spderk.errors import DimensionError
from spderk.qwiener import (
    CHUNK_STEPS,
    NoisePath,
    QSpec,
    coarsen,
    dump_path,
    gsq_field,
    noise_matrix,
    sample_path,
    theta_weights,
)
from spderk.nemytskii import ProblemSpec
from spderk.schemes import StepContext, theta_fields
from spderk.spectral import SineBasisGrid


class _FixedNormals:
    """Stub generator feeding prescribed z values into oracles.sample_step,
    whose factor sample_path applies bit for bit (see
    test_sample_path_equals_chunked_sample_step)."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, shape):
        assert self.z.shape == shape
        return self.z


def scalar_q():
    return QSpec(1, [1.0], mode_kind="scalar_constant")


def test_cholesky_factor_frozen_examples():
    q = scalar_q()
    dB, I = oracles.sample_step(_FixedNormals([[0.0, 0.0]]), q, h=1.0)
    assert dB[0] == 0.0 and I[0] == 0.0
    dB, I = oracles.sample_step(_FixedNormals([[1.0, 0.0]]), q, h=1.0)
    assert np.isclose(dB[0], 1.0) and np.isclose(I[0], 0.5)
    dB, I = oracles.sample_step(_FixedNormals([[0.0, 1.0]]), q, h=1.0)
    assert dB[0] == 0.0 and np.isclose(I[0], 1.0 / (2.0 * np.sqrt(3.0)))


def test_cholesky_factor_reproduces_covariance():
    # the factor L must satisfy L L^T = [[h, h^2/2], [h^2/2, h^3/3]]
    h = 0.73
    q = scalar_q()
    a_dB, a_I = oracles.sample_step(_FixedNormals([[1.0, 0.0]]), q, h)
    b_dB, b_I = oracles.sample_step(_FixedNormals([[0.0, 1.0]]), q, h)
    L = np.array([[a_dB[0], b_dB[0]], [a_I[0], b_I[0]]])
    C = L @ L.T
    expect = np.array([[h, h**2 / 2.0], [h**2 / 2.0, h**3 / 3.0]])
    assert np.allclose(C, expect, rtol=1e-14)


def test_sample_path_rejects_bad_h():
    # h <= 0 alone would let nan through, and nan or inf paths are not
    # finite; a string is not compared with 0, it is rejected
    for h in (0.0, -0.1, np.nan, np.inf, "0.1"):
        with pytest.raises(ValueError, match="^h must be finite and > 0"):
            sample_path(scalar_q(), 4, h, 0)


def test_sample_path_rejects_h_whose_power_overflows():
    # I scales with h**1.5, which a float power raises on, not rounds to inf
    for h in (1e300, 2**683):
        with pytest.raises(ValueError, match="^h=.* is too large: h\\*\\*1.5 overflows"):
            sample_path(scalar_q(), 8, h, 0)
    path = sample_path(scalar_q(), 1, 1e150, 0)
    assert np.all(np.isfinite(path.I))


def test_sample_path_is_reproducible():
    q = QSpec(5, np.ones(5) * 0.3)
    p1 = sample_path(q, M=16, h=1 / 16, base_seed=42, realization=3)
    p2 = sample_path(q, M=16, h=1 / 16, base_seed=42, realization=3)
    assert np.array_equal(p1.dB, p2.dB) and np.array_equal(p1.I, p2.I)
    p3 = sample_path(q, M=16, h=1 / 16, base_seed=42, realization=4)
    assert not np.array_equal(p1.dB, p3.dB)


def test_sample_path_equals_chunked_sample_step():
    # bulk (M, K, 2) draw and M successive (K, 2) draws consume the same
    # stream, so the documented layout is an honest contract; each step
    # is scaled by the oracle's own triangular factor
    q = QSpec(3, [1.0, 0.5, 0.25])
    M, h = 8, 0.125
    path = sample_path(q, M, h, base_seed=7, realization=1)
    seq = np.random.SeedSequence([7, 1])
    rng = np.random.Generator(np.random.Philox(seq))
    for m in range(M):
        dB, I = oracles.sample_step(rng, q, h)
        assert np.array_equal(dB, path.dB[m])
        assert np.array_equal(I, path.I[m])


def test_sample_path_chunked_draw_equals_one_draw():
    # M is not a multiple of the draw chunk: the last chunk is partial
    q = QSpec(3, [1.0, 0.5, 0.25])
    M = 2 * CHUNK_STEPS + 37
    h = 1.0 / M
    path = sample_path(q, M, h, base_seed=5, realization=2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 2])))
    z = rng.standard_normal((M, q.K, 2))
    root = h**1.5
    dB = np.sqrt(h) * z[..., 0]
    I = (root / 2.0) * z[..., 0] + (root / (2.0 * np.sqrt(3.0))) * z[..., 1]
    assert path.M == M
    assert np.array_equal(path.dB, dB) and np.array_equal(path.I, I)


def test_sample_path_allocates_its_own_arrays():
    # each call owns new arrays: two draws of one key are equal and share
    # no memory, so a caller may keep or change one path freely
    q = QSpec(2, [1.0, 0.5])
    first = sample_path(q, 40, 0.025, base_seed=9, realization=1)
    again = sample_path(q, 40, 0.025, base_seed=9, realization=1)
    assert np.array_equal(again.dB, first.dB) and np.array_equal(again.I, first.I)
    assert not np.shares_memory(again.dB, first.dB)
    assert not np.shares_memory(again.I, first.I)
    assert not np.shares_memory(again.dB, again.I)


def test_coarsen_two_substeps_frozen():
    # (dB, I) = (1, 0) twice at h=1: increments add, first dB drifts for
    # the remaining 1 time unit
    p = NoisePath([[1.0], [1.0]], [[0.0], [0.0]], h=1.0)
    c = coarsen(p, 2)
    assert c.M == 1 and c.h == 2.0
    assert c.dB[0, 0] == 2.0 and c.I[0, 0] == 1.0


def test_coarsen_factor_one_is_identity():
    # the general formula at factor 1: the same bits, in new arrays
    for K, r in ((K, r) for K in (1, 3, 64) for r in range(5)):
        p = sample_path(QSpec(K, np.ones(K)), 70, 1.0 / 70, base_seed=1, realization=r)
        c = coarsen(p, 1)
        assert (c.M, c.K, c.h) == (p.M, p.K, p.h)
        assert c.dB.tobytes() == p.dB.tobytes() and c.I.tobytes() == p.I.tobytes()
        assert not np.shares_memory(c.dB, p.dB) and not np.shares_memory(c.I, p.I)


def test_coarsen_rejects_bad_factor():
    p = sample_path(scalar_q(), 6, 0.1, base_seed=1)
    with pytest.raises(ValueError):
        coarsen(p, 4)
    for bad in (0, 2.0, True):
        with pytest.raises(ValueError, match="^factor must be an integer >= 1"):
            coarsen(p, bad)


@pytest.mark.parametrize("arg, bad", [
    ("M", 4.0), ("M", True), ("M", 0), ("base_seed", 0.5), ("base_seed", -1),
    ("realization", 1.5), ("realization", False), ("realization", -2),
])
def test_sample_path_takes_integer_counts_and_seeds(arg, bad):
    # 1.5 would draw realization 1's path under another name
    args = dict(q=scalar_q(), M=4, h=0.1, base_seed=0, realization=0)
    args[arg] = bad
    with pytest.raises(ValueError, match="^%s must be an integer >= " % arg):
        sample_path(**args)


def coarse_mixed_integral_oracle(dB, I, h):
    """Recompute I over the whole span from the definition via prefix sums.

    int_{t_a}^{t_b}(W_s - W_{t_a}) ds = sum_i [ I_i + (W_{t_i} - W_{t_a}) h ].
    """
    W_before = np.concatenate([np.zeros((1, dB.shape[1])), np.cumsum(dB, axis=0)[:-1]])
    return I.sum(axis=0) + h * W_before.sum(axis=0)


def test_coarsen_matches_direct_recomputation():
    q = QSpec(4, [1.0, 0.3, 0.1, 0.03])
    p = sample_path(q, 24, 1 / 24, base_seed=11)
    c = coarsen(p, 24)
    assert np.allclose(
        c.I[0], coarse_mixed_integral_oracle(p.dB, p.I, p.h), atol=1e-15
    )
    assert np.allclose(c.dB[0], p.dB.sum(axis=0), atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_coarsen_composition(seed):
    q = QSpec(2, [1.0, 0.5])
    p = sample_path(q, 32, 1 / 32, base_seed=seed)
    two_level = coarsen(coarsen(p, 2), 2)
    one_level = coarsen(p, 4)
    assert np.max(np.abs(two_level.I - one_level.I)) <= 1e-14
    assert np.max(np.abs(two_level.dB - one_level.dB)) <= 1e-14
    # the coarse data follow from the fine path, interval by interval
    assert np.max(np.abs(one_level.dB - p.dB.reshape(8, 4, 2).sum(axis=1))) <= 1e-14
    for c in range(8):
        seg = slice(4 * c, 4 * c + 4)
        oracle = coarse_mixed_integral_oracle(p.dB[seg], p.I[seg], p.h)
        assert np.max(np.abs(one_level.I[c] - oracle)) <= 1e-14


def test_qspec_validation():
    with pytest.raises(ValueError):
        QSpec(2, [1.0, 1.0], mode_kind="scalar_constant")
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^mode_eigenvalues must be finite and nonnegative$"):
            QSpec(2, [1.0, bad])
    with pytest.raises(DimensionError):
        QSpec(3, [1.0, 1.0])
    with pytest.raises(ValueError, match="K must be an integer >= 1"):
        QSpec(-3, [])
    # a K that is not an integer is named, not reported as a shape mismatch
    for bad in (2.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="^K must be an integer >= 1, got "):
            QSpec(bad, [1.0, 1.0])
    with pytest.raises(ValueError):
        QSpec(1, [1.0], mode_kind="white")


def test_gsq_scalar_constant():
    grid = SineBasisGrid(10)
    assert np.all(gsq_field(scalar_q(), grid) == 1.0)
    # the ones basis gives gsq = eta_1 at every node, to the bit
    for eta in (0.0, 1e-300, 0.3, 7.5e12):
        q = QSpec(1, [eta], mode_kind="scalar_constant")
        for n in (1, 5, 64):
            assert gsq_field(q, SineBasisGrid(n)).tobytes() == np.full(n, eta).tobytes()


def test_gsq_single_sine_mode():
    grid = SineBasisGrid(16)
    q = QSpec(3, [1.0, 0.0, 0.0])
    expect = 2.0 * np.sin(np.pi * grid.nodes) ** 2
    assert np.allclose(gsq_field(q, grid), expect, rtol=1e-13)


def test_gsq_matches_brute_force_sum():
    # eta_j = j^(-3) over K=256 modes against an explicit double loop
    grid = SineBasisGrid(32)
    K = 256
    eta = np.arange(1, K + 1, dtype=float) ** -3.0
    q = QSpec(K, eta)
    brute = np.zeros(grid.n_nodes)
    for p, x in enumerate(grid.nodes):
        s = 0.0
        for j in range(1, K + 1):
            s += eta[j - 1] * (np.sqrt(2.0) * np.sin(j * np.pi * x)) ** 2
        brute[p] = s
    assert np.allclose(gsq_field(q, grid), brute, rtol=1e-12, atol=1e-12)


def test_noise_matrix_scalar_is_ones():
    grid = SineBasisGrid(6)
    G = noise_matrix(scalar_q(), grid)
    assert G.shape == (6, 1) and np.all(G == 1.0)
    # and sqrt(eta_1) at every node, to the bit
    for eta in (0.0, 1e-300, 0.3, 7.5e12):
        q = QSpec(1, [eta], mode_kind="scalar_constant")
        for n in (1, 5, 64):
            G = noise_matrix(q, SineBasisGrid(n))
            assert G.tobytes() == np.full((n, 1), np.sqrt(eta)).tobytes()


def step_context(q, N, h):
    """The one-step context of h for noise q on N modes: theta_fields
    reads its h and gsq alone, so the problem has no maps."""
    return StepContext(ProblemSpec(1.0, None, None, np.zeros(N), q), h)


def test_theta_zero_noise():
    grid = SineBasisGrid(8)
    q = QSpec(2, [0.5, 0.25])
    gsq = gsq_field(q, grid)
    dW, Iw = theta_weights(np.zeros(2), np.zeros(2), noise_matrix(q, grid))
    assert np.all(dW == 0.0) and np.all(Iw == 0.0)
    theta = theta_fields(step_context(q, 8, 0.5), dW, Iw)
    assert len(theta) == 6
    assert np.all(theta[0] == 0.0)
    assert np.array_equal(theta[2], gsq)
    assert np.all(theta[5] == 0.0)


def test_theta2_vanishes_for_balanced_sample():
    # scalar noise, h=1, dB=1, I=1/2: Iw - (h/2) dW = 0 pointwise
    grid = SineBasisGrid(5)
    q = scalar_q()
    dW, Iw = theta_weights(np.array([1.0]), np.array([0.5]), noise_matrix(q, grid))
    theta2_1 = theta_fields(step_context(q, 5, 1.0), dW, Iw)[5]
    assert np.all(theta2_1 == 0.0)
    assert np.all(dW == 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    K=st.integers(1, 6),
    N=st.integers(2, 16),
    h=st.floats(1e-3, 1.0),
)
def test_theta_identities_against_mode_sums(seed, K, N, h):
    # the tableau engine's theta1_3 and theta2_1, built from theta_weights'
    # fields, against the same quantities summed mode by mode
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 2.0, K)
    q = QSpec(K, eta)
    grid = SineBasisGrid(N)
    dB, I = oracles.sample_step(rng, q, h)
    theta = theta_fields(step_context(q, N, h), *theta_weights(dB, I, noise_matrix(q, grid)))

    modes = np.sqrt(2.0) * np.sin(np.pi * np.outer(grid.nodes, np.arange(1, K + 1)))
    dW = sum(np.sqrt(eta[j]) * dB[j] * modes[:, j] for j in range(K))
    Iw = sum(np.sqrt(eta[j]) * I[j] * modes[:, j] for j in range(K))
    gsq = sum(eta[j] * modes[:, j] ** 2 for j in range(K))
    expect13 = gsq - dW**2 / h
    expect21 = Iw - (h / 2.0) * dW
    scale13 = 1.0 + gsq + dW**2 / h
    scale21 = 1.0 + np.abs(Iw) + h * np.abs(dW)
    assert np.all(np.abs(theta[2] - expect13) <= 1e-12 * scale13)
    assert np.all(np.abs(theta[5] - expect21) <= 1e-12 * scale21)


@pytest.mark.parametrize("K", [1, 5])
def test_theta_weights_chunk_rows_equal_single_steps(K):
    # a chunk's rows are bit-identical to the single-step fields and to
    # G @ dB[m], for a full chunk and a 3-row one
    q = QSpec(K, 2.0 ** -np.arange(K))
    grid = SineBasisGrid(12)
    G = noise_matrix(q, grid)
    path = sample_path(q, CHUNK_STEPS + 3, 1 / 16, base_seed=3)
    for chunk in (slice(0, CHUNK_STEPS), slice(CHUNK_STEPS, None)):
        dW, Iw = theta_weights(path.dB[chunk], path.I[chunk], G)
        n = path.dB[chunk].shape[0]
        assert dW.shape == Iw.shape == (n, grid.n_nodes) and n in (CHUNK_STEPS, 3)
        for i, m in enumerate(range(path.M)[chunk]):
            dW_m, Iw_m = theta_weights(path.dB[m], path.I[m], G)
            assert dW_m.shape == Iw_m.shape == (grid.n_nodes,)
            assert np.array_equal(dW[i], dW_m) and np.array_equal(Iw[i], Iw_m)
            assert np.array_equal(dW_m, G @ path.dB[m]) and np.array_equal(Iw_m, G @ path.I[m])


def test_theta_weights_chunks_cover_a_long_path():
    # chunks of at most CHUNK_STEPS steps, row i of the chunk at m0 being
    # step m0 + i, bit-identical to per-step assembly
    q = QSpec(3, [1.0, 0.5, 0.25])
    grid = SineBasisGrid(6)
    G = noise_matrix(q, grid)
    M = 2 * CHUNK_STEPS + 3
    path = sample_path(q, M, 1.0 / M, base_seed=8)
    for m0, n in ((0, CHUNK_STEPS), (CHUNK_STEPS, CHUNK_STEPS), (2 * CHUNK_STEPS, 3)):
        chunk = slice(m0, m0 + CHUNK_STEPS)
        dW, Iw = theta_weights(path.dB[chunk], path.I[chunk], G)
        assert dW.shape == Iw.shape == (n, grid.n_nodes)
        for i in (0, n // 2, n - 1):
            dW_m, Iw_m = theta_weights(path.dB[m0 + i], path.I[m0 + i], G)
            assert np.array_equal(dW[i], dW_m) and np.array_equal(Iw[i], Iw_m)


def test_theta_mode_mismatch_rejected():
    # K is read off G: a step or chunk of another mode count, a mixed
    # integral of another shape than its increment, or an input of more
    # than two dimensions is rejected
    G = noise_matrix(QSpec(2, [1.0, 1.0]), SineBasisGrid(5))
    with pytest.raises(DimensionError, match="noise matrix has 2 modes"):
        theta_weights(np.zeros(3), np.zeros(3), G)
    with pytest.raises(DimensionError, match=r"shapes \(4, 3\) and \(4, 3\)"):
        theta_weights(np.zeros((4, 3)), np.zeros((4, 3)), G)
    with pytest.raises(DimensionError, match=r"shapes \(2,\) and \(1,\)"):
        theta_weights(np.zeros(2), np.zeros(1), G)
    with pytest.raises(DimensionError, match=r"shapes \(4, 2\) and \(3, 2\)"):
        theta_weights(np.zeros((4, 2)), np.zeros((3, 2)), G)
    with pytest.raises(DimensionError, match=r"shapes \(1, 4, 2\) and \(1, 4, 2\)"):
        theta_weights(np.zeros((1, 4, 2)), np.zeros((1, 4, 2)), G)
    with pytest.raises(DimensionError, match=r"shapes \(\) and \(\)"):
        theta_weights(0.0, 0.0, G)


def test_theta_monte_carlo_moments():
    # E[theta1_1] = 0, E[theta1_1^2] = h*gsq, E[theta2_1*theta1_1] = 0
    # within 3 standard errors (scalar noise keeps the fields constant)
    n, h = 40000, 0.3
    q = scalar_q()
    grid = SineBasisGrid(3)
    path = sample_path(q, n, h, base_seed=123)
    dW = path.dB[:, 0]
    t2 = path.I[:, 0] - (h / 2.0) * dW
    se_mean = np.sqrt(h / n)
    assert abs(dW.mean()) < 3 * se_mean
    se_sq = np.sqrt(2.0) * h / np.sqrt(n)
    assert abs((dW**2).mean() - h) < 3 * se_sq
    se_cross = np.sqrt(h**4 / 12.0 / n)
    assert abs((t2 * dW).mean()) < 3 * se_cross
    # and Var(theta2_1) = h^3/12 per mode
    se_var = np.sqrt(2.0) * (h**3 / 12.0) / np.sqrt(n)
    assert abs(t2.var() - h**3 / 12.0) < 3 * se_var


def test_covariance_quick_monte_carlo():
    n, h = 30000, 0.5
    path = sample_path(scalar_q(), n, h, base_seed=77)
    dB, I = path.dB[:, 0], path.I[:, 0]
    C = np.cov(np.stack([dB, I]))
    expect = np.array([[h, h**2 / 2], [h**2 / 2, h**3 / 3]])
    # 3 standard errors per entry, SE ~ sqrt(Var of the product)/sqrt(n)
    se = 3 * np.array(
        [
            [np.sqrt(2) * h, np.sqrt(h * h**3 / 3 + (h**2 / 2) ** 2)],
            [np.sqrt(h * h**3 / 3 + (h**2 / 2) ** 2), np.sqrt(2) * h**3 / 3],
        ]
    ) / np.sqrt(n)
    assert np.all(np.abs(C - expect) < se)


def test_dump_path_format():
    p = sample_path(QSpec(2, [1.0, 0.5]), 3, 0.25, base_seed=5)
    buf = io.StringIO()
    dump_path(p, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,mode,dB,I"
    assert len(lines) == 1 + 3 * 2
    step, mode, dB, I = lines[1].split(",")
    assert (step, mode) == ("0", "0")
    assert float(dB) == p.dB[0, 0] and float(I) == p.I[0, 0]


def test_noisepath_validation():
    with pytest.raises(DimensionError):
        NoisePath(np.zeros((3, 2)), np.zeros((2, 2)), 0.1)
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^h must be finite and > 0"):
            NoisePath(np.zeros((3, 2)), np.zeros((3, 2)), h)
