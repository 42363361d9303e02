"""Problem definitions and pointwise Nemytskii evaluation.

A problem is the semilinear SPDE

    dX_t(x) = (A X_t(x) + f(x, X_t(x))) dt + b(x, X_t(x)) dW_t(x)

on (0, 1) with A = kappa * Laplace (Dirichlet).  Drift and diffusion act
as composition operators F(v)(x) = f(x, v(x)) and (B(v)u)(x) =
b(x, v(x)) u(x), so on the collocation grid every operator application is
a pointwise product.  The state dimension is d = 1 throughout.

Pointwise maps receive (x, y) as arrays of node coordinates and state
values and must be pure, reentrant and vectorized; derivative maps f_y,
f_yy, b_y, b_yy (with respect to y) are optional and only required by the
Wagner-Platen stepper.

Nemytskii noise satisfies the commutativity condition of the
derivative-free Milstein scheme (schemes.baseline_step, 'dfmm') by
construction: both sides of (B'(v)(B(v) u)) u~ = (B'(v)(B(v) u~)) u are
the pointwise product b_y(x, v) b(x, v) u u~, which does not depend on
the order of u and u~.  Nothing needs to check it at run time.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, DimensionError, count, positive
from .qwiener import QSpec, gsq_field, noise_matrix
from .spectral import SineBasisGrid

__all__ = [
    "ProblemSpec",
    "eval_coeff",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
]

_FLOAT = np.dtype(float)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One SPDE instance, and the owner of everything it determines.

    Parameters
    ----------
    kappa : diffusion constant of the linear part, finite and > 0, with
        kappa pi^2 N^2 finite.
    f, b : pointwise drift / diffusion maps (x, y) -> real.
    initial_coeffs : spectral coefficients of the projected initial value,
        a nonempty 1-d vector of finite reals; its length is N.
    qspec : QSpec of the driving noise.
    f_y, f_yy, b_y, b_yy : optional pointwise derivative maps.
    exact : optional closed-form solution, called as exact(t, beta_t) and
        returning spectral coefficients; beta_t is the driving scalar
        Brownian value (only meaningful for single-mode noise).
    name : label used in error messages and tables.

    A problem is a value, checked once when it is built: its fields
    cannot be assigned, and initial_coeffs is its own read-only float
    copy, so the caller's array may change afterwards.  grid (the
    SineBasisGrid of the N modes), eigenvalues (lambda_k = kappa pi^2 k^2
    of -A = -kappa * Laplace on them), G and gsq (the noise matrix and gsq
    field on the grid) are built on first use from those fields and shared
    by every StepContext of the problem, so their arrays are read-only too.
    """

    kappa: float
    f: object
    b: object
    initial_coeffs: np.ndarray
    qspec: QSpec
    f_y: object = None
    f_yy: object = None
    b_y: object = None
    b_yy: object = None
    exact: object = None
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "kappa", positive("kappa", self.kappa))
        init = np.array(self.initial_coeffs, dtype=float)
        if init.ndim != 1 or not init.size:
            raise ValueError("initial_coeffs must be a nonempty 1-d vector, got shape %r"
                             % (init.shape,))
        if not np.all(np.isfinite(init)):
            raise ValueError("initial_coeffs must be finite")
        init.flags.writeable = False
        object.__setattr__(self, "initial_coeffs", init)
        # the largest eigenvalue, in Python floats: they overflow silently
        if not np.isfinite(self.kappa * np.pi**2 * float(self.N)**2):
            raise ValueError("kappa=%r with N=%d: the largest eigenvalue kappa pi^2 N^2"
                             " overflows" % (self.kappa, self.N))
        if not isinstance(self.qspec, QSpec):
            raise TypeError("qspec must be a QSpec")
        if self.exact is not None:
            at_zero = np.asarray(self.exact(0.0, 0.0), dtype=float)
            if not np.allclose(at_zero, init, rtol=1e-12, atol=1e-12):
                raise ValueError("exact(0, .) does not reproduce initial_coeffs")

    @property
    def N(self):
        return len(self.initial_coeffs)

    @cached_property
    def grid(self):
        return SineBasisGrid(self.N)

    @cached_property
    def eigenvalues(self):
        k = np.arange(1, self.N + 1, dtype=float)
        lam = self.kappa * np.pi**2 * k**2
        lam.flags.writeable = False
        return lam

    @cached_property
    def G(self):
        G = noise_matrix(self.qspec, self.grid)
        G.flags.writeable = False
        return G

    @cached_property
    def gsq(self):
        gsq = gsq_field(self.qspec, self.grid)
        gsq.flags.writeable = False
        return gsq

    def __repr__(self):
        return "ProblemSpec(%r, kappa=%g, N=%d)" % (self.name, self.kappa, self.N)


def eval_coeff(ctx, which, v):
    """The field fn(x_p, v(x_p)) on the nodes x_p of ctx.grid, for the map
    fn = ctx.problem.<which> (f, b, f_y, f_yy, b_y or b_yy) and a float
    field v on the nodes; the one place a map is evaluated.  A map the
    problem leaves None raises a CapabilityError, naming ewp for a
    derivative map.  A real result that is not a float field of the
    nodes' shape (a scalar or an int field, say) is broadcast to one as
    floats; a result that is not real (None, complex, bool or a string)
    raises a TypeError, and one that does not broadcast to the nodes'
    shape a DimensionError, each naming the problem and the map.
    """
    fn = getattr(ctx.problem, which)
    if fn is None:
        who = "" if which in ("f", "b") else " (required by ewp)"
        raise CapabilityError("problem %r does not provide the %s map%s"
                              % (ctx.problem.name, which, who))
    x = ctx.grid.nodes
    shape = x.shape
    out = fn(x, v)
    if type(out) is not np.ndarray or out.dtype is not _FLOAT or out.shape != shape:
        got = np.asarray(out)
        if got.dtype.kind not in "iuf":
            raise TypeError("problem %r: the %s map returned %s of dtype %s, not real"
                            " numbers" % (ctx.problem.name, which, type(out).__name__,
                                          got.dtype))
        try:
            out = np.broadcast_to(got, shape).astype(float)
        except ValueError:
            raise DimensionError("problem %r: the %s map returned shape %r, which does not"
                                 " broadcast to the nodes' shape %r"
                                 % (ctx.problem.name, which, got.shape, shape)) from None
    return out


def _zero(x, y):
    return np.zeros(y.shape)


def _one(x, y):
    return np.ones(y.shape)


def _identity(x, y):
    return y


def _neg_sin(x, y):
    return -np.sin(y)


def _neg_cos(x, y):
    return -np.cos(y)


def _sin(x, y):
    return np.sin(y)


def _cos(x, y):
    return np.cos(y)


# the maps of example1 and example2: no drift, and the linear noise b = y
_LINEAR_NOISE = dict(f=_zero, b=_identity, f_y=_zero, f_yy=_zero, b_y=_one, b_yy=_zero)


def _example1(N, K):
    if K not in (None, 1):
        raise ValueError("example1 uses scalar noise, K must be 1")
    n = np.arange(1, N + 1, dtype=float)
    init = n**-4.0

    def exact(t, beta_t):
        # per mode: a_n(t) = n^-4 exp(-(n^2 pi^2 + 1/2) t + beta_t)
        return init * np.exp(-(n**2 * np.pi**2 + 0.5) * t + beta_t)

    return ProblemSpec(
        kappa=1.0,
        **_LINEAR_NOISE,
        initial_coeffs=init,
        qspec=QSpec(1, [1.0], mode_kind="scalar_constant"),
        exact=exact,
        name="example1",
    )


def _example2(N, K):
    K = N if K is None else K
    kappa = 0.1
    j = np.arange(1, K + 1, dtype=float)
    eta = (kappa * np.pi**2 * j**2) ** -3.0
    init = np.zeros(N)
    init[0] = 1.0 / np.sqrt(2.0)  # X_0 = sin(pi x) = e_1 / sqrt(2)
    return ProblemSpec(
        kappa=kappa,
        **_LINEAR_NOISE,
        initial_coeffs=init,
        qspec=QSpec(K, eta),
        name="example2",
    )


def _example3(N, K):
    K = N if K is None else K
    j = np.arange(1, K + 1, dtype=float)
    init = np.zeros(N)
    if N < 2:
        raise ValueError("example3 needs N >= 2 for its initial value")
    init[1] = 1.0 / (2.0 * np.sqrt(2.0))  # X_0 = sin(2 pi x)/2 = e_2/(2 sqrt(2))
    return ProblemSpec(
        kappa=0.01,
        f=_sin,
        b=_cos,
        f_y=_cos,
        f_yy=_neg_sin,
        b_y=_neg_sin,
        b_yy=_neg_cos,
        initial_coeffs=init,
        qspec=QSpec(K, j**-3.0),
        name="example3",
    )


BUILTIN_PROBLEMS = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
}


def builtin_problem(name, N, K=None):
    """Build a named example at N modes and (where applicable) K noise modes.

    example1: kappa=1, f=0, b(x,y)=y, scalar constant noise, a_n(0)=n^-4,
              closed-form solution available.
    example2: kappa=1/10, f=0, b(x,y)=y, eta_j=(kappa pi^2 j^2)^-3,
              X_0 = sin(pi x).
    example3: kappa=1/100, f=sin(y), b=cos(y), eta_j=j^-3,
              X_0 = sin(2 pi x)/2.
    """
    N, K = count("N", N), None if K is None else count("K", K)
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ValueError(
            "unknown problem %r (have: %s)" % (name, ", ".join(sorted(BUILTIN_PROBLEMS)))
        ) from None
    return factory(N, K)
