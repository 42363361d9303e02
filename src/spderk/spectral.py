"""Sine eigenbasis of the Dirichlet Laplacian on (0, 1).

Solver states live in two equivalent representations:

* spectral -- a length-N coefficient vector a_k = <v, e_k> against the
  eigenbasis e_k(x) = sqrt(2) sin(k pi x), k = 1..N;
* physical -- the values v(x_p) on interior collocation nodes
  x_p = p/(n+1), p = 1..n.

Pointwise (Nemytskii) operations act in physical space; the linear
operator A = kappa*Laplace and every function of it are diagonal in
spectral space, -A e_k = lambda_k e_k (ProblemSpec.eigenvalues).  With
these nodes the discrete sine transform of type I is exactly invertible
for N modes, so switching representations adds no quadrature error.
Transforms are dense O(N^2) matrix products, which is plenty for the
mode counts used here (N <= 256).

Both representations are plain 1-d float arrays; nothing is wrapped.
"""

import numpy as np

from .errors import DimensionError, count

__all__ = [
    "SineBasisGrid",
    "to_physical",
    "to_spectral",
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
    nodes : strictly increasing interior nodes in (0, 1); like the
        transform matrices, read-only, since a problem's contexts share it.
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
        for a in (self.nodes, self._synth, self._anal):
            a.flags.writeable = False

    def __repr__(self):
        return "SineBasisGrid(N=%d)" % self.N


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
