"""Sampling of the truncated Q-Wiener process.

The noise is W^K_t = sum_{j<=K} sqrt(eta_j) beta^j_t e~_j with independent
scalar Brownian motions beta^j.  Every scheme in this package needs, per
step and per mode, the joint pair

    dB_j = beta^j_{t+h} - beta^j_t,
    I_j  = int_t^{t+h} (beta^j_s - beta^j_t) ds,

which is Gaussian with covariance [[h, h^2/2], [h^2/2, h^3/3]].  Sampling
uses the triangular factor of that matrix directly:

    dB = sqrt(h) z1,   I = h^{3/2}/2 z1 + h^{3/2}/(2 sqrt(3)) z2.

Paths are sampled once at the finest resolution of a study and coarsened
exactly (additivity of the mixed integral), so all step sizes see the
same underlying Brownian data.

On the grid a step's noise is two fields, the increment dW = G dB and
its time integral Iw = G I (G[p, j] = sqrt(eta_j) e~_j(x_p)).  They are
the only random data the steppers read; theta_weights(dB, I, G) builds
them for one step or a chunk of steps.  One chunk size, CHUNK_STEPS,
carries them from sampler to stepper: sample_path draws its normals
CHUNK_STEPS steps at a time, and schemes.solve builds the fields of at
most CHUNK_STEPS steps at a time, turns them into a scheme's per-step
factors with its noise function noise(ctx, dW, Iw) (ERKM1.5's is
schemes.theta_fields) and steps through them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, count, positive

__all__ = [
    "QSpec",
    "NoisePath",
    "sample_path",
    "coarsen",
    "gsq_field",
    "noise_matrix",
    "theta_weights",
    "dump_path",
    "CHUNK_STEPS",
]

# steps per chunk of normals drawn by sample_path and per pair of
# noise-field tables schemes.solve builds with theta_weights; bounds
# their arrays for any path length (a 64-node table of 64 steps is 32 KiB)
CHUNK_STEPS = 64


@dataclass(frozen=True, eq=False)
class QSpec:
    """Covariance model of the driving noise.

    mode_kind is 'sine_basis' (eigenfunctions e~_j(x) = sqrt(2) sin(j pi x))
    or 'scalar_constant' (K = 1 and g_1 = sqrt(eta_1) * 1, i.e. space-constant
    scalar noise).  mode_eigenvalues are the eta_j >= 0; their sum must be
    finite, which for a concrete K-vector just means all entries finite.

    A QSpec is a value, checked once when it is built: its fields cannot
    be assigned, and mode_eigenvalues is its own read-only float copy.
    """

    K: int
    mode_eigenvalues: np.ndarray
    mode_kind: str = "sine_basis"

    def __post_init__(self):
        if self.mode_kind not in ("sine_basis", "scalar_constant"):
            raise ValueError("unknown mode_kind %r" % (self.mode_kind,))
        K = count("K", self.K)
        eta = np.array(self.mode_eigenvalues, dtype=float)
        if eta.shape != (K,):
            raise DimensionError(
                "mode_eigenvalues: expected shape (%d,), got %r" % (K, eta.shape)
            )
        if self.mode_kind == "scalar_constant" and K != 1:
            raise ValueError("scalar_constant noise implies K = 1")
        if np.any(eta < 0) or not np.all(np.isfinite(eta)):
            raise ValueError("mode_eigenvalues must be finite and nonnegative")
        eta.flags.writeable = False
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "mode_eigenvalues", eta)

    def __repr__(self):
        return "QSpec(K=%d, mode_kind=%r)" % (self.K, self.mode_kind)


class NoisePath:
    """M steps of uniform h: the per-mode joint samples (dB, I) of every
    step, stored as (M, K) arrays."""

    def __init__(self, dB, I, h):
        dB = np.asarray(dB, dtype=float)
        I = np.asarray(I, dtype=float)
        if dB.ndim != 2 or dB.shape != I.shape:
            raise DimensionError("dB and I must be equal-shape (M, K) arrays")
        self.h = positive("h", h)
        self.dB = dB
        self.I = I

    @property
    def M(self):
        return self.dB.shape[0]

    @property
    def K(self):
        return self.dB.shape[1]


def sample_path(q, M, h, base_seed, realization=0):
    """Sample a full path of M steps into new arrays.

    Randomness is keyed by (base_seed, realization) into a counter-based
    Philox stream, and all (step, mode) normals are drawn in one fixed
    C-order layout, so the result is bit-identical no matter how many
    workers run or in which order realizations complete.  The normals
    are drawn CHUNK_STEPS steps at a time and scaled into the path's
    arrays; chunked draws from the same stream produce the same numbers
    as one draw.  An h whose h**1.5 overflows raises a ValueError.
    """
    M, h = count("M", M), positive("h", h)
    base_seed, realization = count("base_seed", base_seed, 0), count("realization", realization, 0)
    try:
        root = h**1.5
    except OverflowError:
        raise ValueError("h=%r is too large: h**1.5 overflows" % (h,)) from None
    dB, I = np.empty((2, M, q.K))
    seq = np.random.SeedSequence([base_seed, realization])
    rng = np.random.Generator(np.random.Philox(seq))
    for m0 in range(0, M, CHUNK_STEPS):
        m1 = min(m0 + CHUNK_STEPS, M)
        # the triangular factor of [[h, h^2/2], [h^2/2, h^3/3]]
        z = rng.standard_normal((m1 - m0, q.K, 2))
        dB[m0:m1] = np.sqrt(h) * z[..., 0]
        I[m0:m1] = root / 2.0 * z[..., 0] + root / (2.0 * np.sqrt(3.0)) * z[..., 1]
    return NoisePath(dB, I, h)


def coarsen(path, factor):
    """Aggregate groups of `factor` consecutive steps into one.

    Over a coarse interval [t_a, t_b] built from substeps i = 0..n-1,
    Brownian increments add, and the mixed integral decomposes as

        I_coarse = sum_i [ I_i + (t_b - t_{i+1}) dB_i ],

    because the substep-i increment enters int(W_s - W_{t_a}) ds over the
    whole remaining time t_b - t_{i+1}.  Exact in the sense that no new
    randomness is introduced: the coarse path's dB and I are functions
    of the fine path's, which is what couples a study's step sizes.
    The result owns new arrays; at factor 1 they equal the path's.
    """
    if path.M % count("factor", factor):
        raise ValueError(
            "factor %d does not divide step count %d" % (factor, path.M)
        )
    Mc = path.M // factor
    dBg = path.dB.reshape(Mc, factor, path.K)
    Ig = path.I.reshape(Mc, factor, path.K)
    tail = path.h * (factor - 1.0 - np.arange(factor))
    dBc = dBg.sum(axis=1)
    Ic = Ig.sum(axis=1) + np.tensordot(dBg, tail, axes=([1], [0]))
    return NoisePath(dBc, Ic, path.h * factor)


def _modes(q, grid):
    """The (n_nodes, K) matrix of the modes e~_j(x_p): sqrt(2) sin(j pi x_p)
    for sine_basis, ones for scalar_constant."""
    if q.mode_kind == "scalar_constant":
        return np.ones((grid.n_nodes, 1))
    return np.sqrt(2.0) * np.sin(np.outer(grid.nodes, np.arange(1, q.K + 1)) * np.pi)


def gsq_field(q, grid):
    """The field sum_j g_j(x_p)^2 = sum_j eta_j e~_j(x_p)^2 on the
    collocation nodes (a problem's: ProblemSpec.gsq); the constant eta_1
    for scalar_constant noise."""
    return _modes(q, grid)**2 @ q.mode_eigenvalues


def noise_matrix(q, grid):
    """Matrix G with G[p, j] = g_j(x_p) = sqrt(eta_j) e~_j(x_p).

    G @ dB and G @ I assemble the noise fields on the grid.
    """
    return _modes(q, grid) * np.sqrt(q.mode_eigenvalues)


def theta_weights(dB, I, G):
    """The noise fields dW(x) = sum_j sqrt(eta_j) dB_j e~_j(x) and Iw(x),
    the same sum over the mixed integrals I_j, from the noise matrix G
    (noise_matrix; a problem's is ProblemSpec.G) and one step's (K,)
    vectors dB and I, or a chunk's (rows, K) tables, K = G.shape[1].

    The fields have the leading shape of dB.  Each row is its own G @ dB
    matrix-vector product, so a chunk's rows equal its steps' fields to
    the bit (one matrix-matrix product would differ in the last bits).
    It keeps its one-step name, under which bench/tracing.py traces it.
    """
    K = G.shape[1]
    dB, I = np.asarray(dB, dtype=float), np.asarray(I, dtype=float)
    if dB.shape != I.shape or dB.ndim not in (1, 2) or dB.shape[-1] != K:
        raise DimensionError("step of shapes %r and %r, noise matrix has %d modes"
                             % (dB.shape, I.shape, K))
    return np.matmul(G, dB[..., None])[..., 0], np.matmul(G, I[..., None])[..., 0]


def dump_path(path, fh):
    """Write a path as delimited text, one record per step per mode."""
    fh.write("step,mode,dB,I\n")
    for m in range(path.M):
        for j in range(path.K):
            fh.write(
                "%d,%d,%r,%r\n"
                % (m, j, float(path.dB[m, j]), float(path.I[m, j]))
            )
