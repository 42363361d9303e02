"""Sine eigenbasis of the Dirichlet Laplacian on (0, 1).

Solver states live in two equivalent representations:

* spectral -- a length-N coefficient vector a_k = <v, e_k> against the
  eigenbasis e_k(x) = sqrt(2) sin(k pi x), k = 1..N;
* physical -- the values v(x_p) on interior collocation nodes
  x_p = p/(n+1), p = 1..n.

Pointwise (Nemytskii) operations act in physical space; the linear
operator A = kappa*Laplace and every function of it are diagonal in
spectral space.  With these nodes the discrete sine transform of type I
is exactly invertible for N modes, so switching representations adds no
quadrature error.  Transforms are dense O(N^2) matrix products, which is
plenty for the mode counts used here (N <= 256).

Both representations are plain 1-d float arrays; nothing is wrapped.
"""

import numpy as np

from .errors import DimensionError, count, nonnegative, positive

__all__ = [
    "SineBasisGrid",
    "LinearOperatorSpec",
    "to_physical",
    "to_spectral",
    "apply_diagonal",
    "diagonal_factor",
    "h_r_norm",
]


class SineBasisGrid:
    """Collocation grid paired with the first N sine modes.

    Parameters
    ----------
    N : int
        Number of retained modes, and of interior nodes x_p = p/(N+1).

    Attributes
    ----------
    N : number of modes.
    nodes : strictly increasing interior nodes in (0, 1).
    n_nodes : number of collocation nodes (== N).
    """

    def __init__(self, N):
        self.N = self.n_nodes = count("N", N)
        self.nodes = np.arange(1, self.n_nodes + 1) / (self.n_nodes + 1.0)
        # synthesis matrix S[p, k-1] = sqrt(2) sin(k pi x_p) and its exact
        # inverse T = sqrt(2)/(n+1) * sin(k pi x_p); orthogonality of the
        # type-I sine transform gives T @ S == I_N.
        karg = np.outer(self.nodes, np.arange(1, self.N + 1)) * np.pi
        self._synth = np.sqrt(2.0) * np.sin(karg)
        self._anal = (np.sqrt(2.0) / (self.n_nodes + 1.0)) * np.sin(karg).T

    def __repr__(self):
        return "SineBasisGrid(N=%d)" % self.N


class LinearOperatorSpec:
    """The diagonal model of A = kappa * Laplacian with Dirichlet conditions.

    Eigenpairs are -A e_k = lambda_k e_k with lambda_k = kappa pi^2 k^2,
    so the spectrum is strictly positive and increasing, and powers of
    -A need no shift.
    """

    def __init__(self, kappa, N):
        self.kappa = positive("kappa", kappa)
        self.N = count("N", N)
        k = np.arange(1, self.N + 1, dtype=float)
        self.eigenvalues = self.kappa * np.pi**2 * k**2

    def __repr__(self):
        return "LinearOperatorSpec(kappa=%g, N=%d)" % (self.kappa, self.N)


def _check_len(field, expect, what):
    field = np.asarray(field, dtype=float)
    if field.shape != (expect,):
        raise DimensionError(
            "%s: expected shape (%d,), got %r" % (what, expect, field.shape)
        )
    return field


def to_physical(field, grid):
    """Evaluate a coefficient vector on the collocation nodes.

    values(x_p) = sum_k a_k sqrt(2) sin(k pi x_p).
    """
    field = _check_len(field, grid.N, "to_physical")
    return grid._synth @ field


def to_spectral(field, grid):
    """Recover coefficients from node values; exact inverse of to_physical.

    For data that is not band-limited to N modes this is the Galerkin
    projection onto span(e_1..e_N) in the discrete inner product, which
    is how the pseudo-spectral nonlinearity handling is meant to work.
    """
    field = _check_len(field, grid.n_nodes, "to_spectral")
    return grid._anal @ field


def diagonal_factor(kind, op, t=None, h=None):
    """Per-mode multiplier array for a diagonal function of A.

    kind is one of 'semigroup' (needs a finite t >= 0), 'generator',
    'resolvent' or 'phi1' (each needs a finite h > 0); a missing, nan or
    infinite t or h raises a ValueError naming it.  Factors:

        semigroup        exp(-lambda_k t)
        generator        -lambda_k
        resolvent        (1 + h lambda_k)^(-1)      i.e. (I - hA)^(-1)
        phi1             (1 - exp(-h lambda_k)) / (h lambda_k)
    """
    lam = op.eigenvalues
    if kind == "semigroup":
        return np.exp(-lam * nonnegative("t", t))
    if kind == "generator":
        return -lam
    if kind == "resolvent":
        return 1.0 / (1.0 + positive("h", h) * lam)
    if kind == "phi1":
        z = positive("h", h) * lam
        # -expm1(-z)/z is accurate down to z -> 0 (limit 1)
        return -np.expm1(-z) / z
    raise ValueError("unknown diagonal kind %r" % (kind,))


def apply_diagonal(kind, op, field, t=None, h=None):
    """Apply a diagonal function of A to a spectral field (see diagonal_factor)."""
    field = _check_len(field, op.N, "apply_diagonal")
    return diagonal_factor(kind, op, t=t, h=h) * field


def h_r_norm(op, r, field):
    """Interpolation-space norm ||(-A)^r v|| = (sum lambda_k^(2r) a_k^2)^(1/2).

    r = 0 reduces to the H norm, which by Parseval is the plain l2 norm
    of the coefficients (identical arithmetic, not just close).
    """
    field = _check_len(field, op.N, "h_r_norm")
    w = op.eigenvalues ** float(r)
    return float(np.sqrt(np.sum((w * field) ** 2)))
