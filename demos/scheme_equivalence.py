"""
Two routes to the same step
===========================

The 1.5-order stochastic Runge-Kutta step can be driven two ways: stage
by stage from the coefficient tables of the ERKM1.5 tableau (erkm_step),
or through the summed closed form with the eight hatted coefficients.
The hat mapping rescales the free constants by powers of h; after that the
two are algebraically identical, and this script checks it numerically on
a random state.  The step context is built from the problem, the time
span and the step count alone, StepContext(problem, T, M), here one
step of size h: the problem owns its grid, its operator kappa * Laplace
and its noise matrix G, so a context cannot pair it with another
problem's operator.  The script also reads the context's evaluation
ledger, which the context's bound maps keep as the steppers call them:
5 drift and 6 diffusion evaluations per step, no matter which route is
taken.
"""

import numpy as np

from spderk import QSpec, builtin_problem, sample_path, theta_weights
from spderk.schemes import (
    StepContext,
    erkm15_closed_form_step,
    erkm15_tableau,
    erkm_step,
    hatted_coefficients,
    resolve_scheme,
)

N, h = 24, 0.05
p = builtin_problem("example2", N)

rng = np.random.default_rng(5)
y = rng.standard_normal(N) / (1.0 + np.arange(N)) ** 2

path = sample_path(p.qspec, 1, h, 11)
ctx = StepContext(p, h)
# one step's noise fields on the problem's grid, through its noise matrix
dW, Iw = theta_weights(path.dB[0], path.I[0], p.qspec, p.grid, G=p.G)


def row(scheme):
    """One step's row of the scheme's noise factors: a chunk of one row."""
    return next(zip(*resolve_scheme(scheme).noise(ctx, dW[None], Iw[None])))


# free constants; the studies elsewhere default to all ones
c = np.array([1.0, 0.7, -1.3, 0.9, 1.1, 0.6, -0.8])

before = ctx.counters.copy()
via_tableau = erkm_step(erkm15_tableau(c), ctx, y, row("erkm15"))
spent = ctx.counters - before
print("tableau route:   f evals =", spent.f, " b evals =", spent.b)

before = ctx.counters.copy()
# the closed form reads the Wagner-Platen noise factors
via_closed = erkm15_closed_form_step(hatted_coefficients(c, h), ctx, y, row("ewp"))
spent = ctx.counters - before
print("closed form:     f evals =", spent.f, " b evals =", spent.b)

diff = np.abs(via_tableau - via_closed).max()
print("max coefficient difference: %.3e" % diff)
assert diff <= 1e-12 * max(1.0, np.abs(via_tableau).max())
