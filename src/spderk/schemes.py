"""One-step integrators.

Contents:

* the ERKM1.5 step (`erkm_step`), an exponential stochastic Runge-Kutta
  method with two stage families and random weights theta, run as one
  fixed sequence of array operations over the coefficients of a
  six-stage tableau;
* the ERKM1.5 tableau family (`erkm15_tableau`), the paper's table as
  its 28 coefficients, parametrized by seven nonzero reals c_1..c_7;
* the exponential Wagner-Platen stepper (`ewp_step`), the derivative
  based order-1.5 baseline;
* linear-implicit Euler, exponential Euler and derivative-free Milstein
  baselines (`baseline_step`);
* the one parser of scheme selectors (`resolve_scheme`) and a driver
  (`solve`) running a scheme along a NoisePath to its terminal state.

Steppers are plain functions, called one way only, as step(ctx, y, row):
the StepContext holds what is fixed for a step size -- the problem,
diagonal operator factors and the problem's grid and gsq -- y is the
spectral state and row the step's row of noise factors.  The only
random input of a step is the pair of noise fields (dW, Iw) on the
grid, two bare arrays.  solve(ctx, scheme, path)
streams them one chunk of at most qwiener.CHUNK_STEPS steps at a time:
it builds the chunk's (rows, n) field tables with theta_weights, builds
from them, with the scheme's noise function noise(ctx, dW, Iw), the
factors the stepper reads that depend on the noise alone, one
elementwise operation per factor -- dW^2, dW^3, h dW - Iw and
Iw - (h/2) dW for ewp, the theta weights for erkm_step (`theta_fields`),
dW^2 - h gsq for the baselines -- and steps through the chunk's rows.
theta_weights and the noise functions work row by row, so each row
equals the factors computed from its step's (K,) vectors alone, bit for
bit, and a single step outside solve is

    dW, Iw = theta_weights(path.dB[m], path.I[m], ctx.G)
    row = scheme.noise(ctx, dW, Iw)
    y = scheme.step(ctx, y, row)

Every stepper advances Y via the split form

    Y+ = P_N e^{Ah/2} ( e^{Ah/2} Y + [assembled increment] )

(for the exponential schemes), evaluates f and b pointwise in physical
space, and applies all operator actions diagonally in spectral space.
Every map evaluation is one call eval_coeff(ctx, which, v), made
through this module's global name eval_coeff, so wrapping that name
sees every evaluation; no stepper evaluates a map on a branch that
depends on the data, so each scheme's count per step is fixed.
"""

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DivergenceError, count, is_label, is_real, positive
from .nemytskii import eval_coeff
from .qwiener import CHUNK_STEPS, theta_weights
from .spectral import to_physical, to_spectral

__all__ = [
    "StepContext",
    "erkm15_tableau",
    "theta_fields",
    "erkm_step",
    "ewp_step",
    "baseline_step",
    "Scheme",
    "resolve_scheme",
    "solve",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("erkm15", "ewp", "exe", "lie", "dfmm")


class ERKM15Tableau(NamedTuple):
    """The coefficients of an ERKM1.5 tableau that erkm_step reads, a
    plain record; by the paper's (stage, column) indices:

    stages: A01[1,0], A11[1,0], B01[2,0], B11[2,0], B02[3,0], B12[3,0],
        B02[4,0], B12[4,0], B12[5,0], B12[5,4], in evaluation order;
    alpha: rows alpha^(1..3) on columns (0, 1), (0, 2) and (0, 3, 4);
    beta: rows beta^(1..5) on columns (0, 1), (0, 1), (0, 2), (0, 3, 4), (0, 5).

    Every other entry is 0, and for every member the theta^2_1 row
    weights b_0 by 1 alone, so erkm_step takes b_0 as it is.
    """

    stages: tuple
    alpha: tuple
    beta: tuple


def erkm15_tableau(c):
    """The six-stage ERKM1.5 tableau for coefficients c = (c_1..c_7).

    c must be finite and nonzero, and so must every coefficient after
    rounding but 1 - 1/(2 c_1) and 1 - 1/c_4: a c whose tableau overflows
    or rounds one to 0 (1/c_6^2 at c_6 = 1e200) raises a ValueError naming
    c.  The alpha^(3) stage-4/5 entries are 1/(4 c_3^2): the consistency
    of the second-difference drift term forces the square (its stage-1
    entry is -1/(2 c_3^2), and the term must assemble to a clean second
    difference for every c_3).  The published table prints 1/(4 c_3)
    there, an erratum: that row sums to zero, as consistency requires,
    only at c_3 = 1.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (7,):
        raise DimensionError("c must have 7 entries")
    if np.any(c == 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("c must be finite and nonzero")
    c1, c2, c3, c4, c5, c6, c7 = c
    # numpy scalars give inf or 0 (rejected below) where floats would raise
    with np.errstate(all="ignore"):
        tab = ERKM15Tableau(
            stages=(c1, c4, c2, c5, c3, -c6, -c3, c6, -c7 / c6, c7 / c6),
            alpha=((1.0 - 1.0 / (2.0 * c1), 1.0 / (2.0 * c1)),
                   (-1.0 / c2, 1.0 / c2),
                   (-1.0 / (2.0 * c3**2), 1.0 / (4.0 * c3**2), 1.0 / (4.0 * c3**2))),
            beta=((1.0 - 1.0 / c4, 1.0 / c4),
                  (1.0 / c4, -1.0 / c4),
                  (1.0 / (2.0 * c5), -1.0 / (2.0 * c5)),
                  (1.0 / c6**2, -1.0 / (2.0 * c6**2), -1.0 / (2.0 * c6**2)),
                  (1.0 / (2.0 * c7), -1.0 / (2.0 * c7))))
    # alpha[0][0] and beta[0][0] may be 0, and are finite when the rest is
    a, be = tab.alpha, tab.beta
    rest = (*tab.stages, a[0][1], *a[1], *a[2], be[0][1], *be[1], *be[2], *be[3], *be[4])
    if not (all(map(math.isfinite, rest)) and all(rest)):
        raise ValueError("c = %s leaves the ERKM1.5 family: its tableau has a"
                         " non-finite entry or one that rounds to 0" % c.tolist())
    return tab


class StepContext:
    """Everything a stepper needs besides the state and the noise, owned
    by one worker: StepContext(problem, T, M=1), for M uniform steps over
    a span T (an integer M >= 1, a finite T > 0).

    h = T / M is the step size every stepper reads, and the one a
    study's fine path is sampled with.  A StudyConfig's checks when it
    is built (T over the finest step count) and run_study's ErrorRow
    also divide T by a step count, with the same float arithmetic, so
    their h has the same bits.
    solve() matches a context to a path by the integer step count; with
    M=1, T is the step size.
    grid, G and gsq are the problem's own, shared by all its contexts.
    From problem.eigenvalues lambda_k it builds neg_lam = -lambda_k and
    what depends on h: sqh, h_gsq, E_h = exp(-lambda_k h), E_h2 =
    exp(-lambda_k h/2), resolvent = (1 + h lambda_k)^-1 and phi1 =
    (1 - exp(-h lambda_k)) / (h lambda_k).  A context is a value: it
    holds only what (problem, T, M) fixes, all of it numbers, read-only
    arrays or the problem's own objects, so any number of solves may
    share it; the state and the noise are the stepper's y and row.
    """

    def __init__(self, problem, T, M=1):
        self.problem = problem
        self.T, self.M = positive("T", T), count("M", M)
        self.grid, self.G, self.gsq = problem.grid, problem.G, problem.gsq
        self.h = h = self.T / self.M
        if h == 0.0:
            raise ValueError("T=%r over M=%d steps: the step size T / M underflows to 0"
                             % (self.T, self.M))
        self.sqh = math.sqrt(h)
        self.h_gsq = h * self.gsq
        lam = problem.eigenvalues
        self.neg_lam = -lam
        # an h lambda_k that overflows gives each factor its limit, 0
        with np.errstate(over="ignore"):
            self.E_h = np.exp(-lam * h)
            self.E_h2 = np.exp(-lam * (h / 2.0))
            self.resolvent = 1.0 / (1.0 + h * lam)
            z = h * lam
            self.phi1 = -np.expm1(-z) / z  # accurate down to z -> 0 (limit 1)
        for a in (self.h_gsq, self.E_h, self.E_h2, self.neg_lam, self.resolvent, self.phi1):
            a.flags.writeable = False


# Noise functions: (ctx, dW, Iw) -> the tables a stepper reads per step,
# built from a chunk's (rows, n) noise-field tables in one elementwise
# pass each, so every row equals its step's own factors to the bit.

def theta_fields(ctx, dW, Iw):
    """ERKM1.5's random weights, from one step's noise fields and the
    context's h and gsq; its noise function:

        theta0_1 = h                 theta1_1 = dW
        theta0_2 = Iw / h            theta1_2 = Iw / h
        theta0_3 = h * gsq           theta1_3 = gsq - dW^2 / h
        theta2_1 = Iw - (h/2) dW     theta1_4 = (Iw * gsq - dW^3 / 3) / h
                                     theta1_5 = dW * gsq - dW^3 / (3h)

    Returns the six tables erkm_step reads, theta1_1..theta1_5 and
    theta2_1.  theta0 is not built: erkm_step takes theta0_1 and theta0_3
    from its context (ctx.h, ctx.h_gsq) and theta0_2 as theta1_2.
    """
    h, gsq = ctx.h, ctx.gsq
    Iw_h = Iw / h
    dW3 = dW**3
    return (
        dW,
        Iw_h,
        gsq - dW**2 / h,
        (Iw * gsq - dW3 / 3.0) / h,
        dW * gsq - dW3 / (3.0 * h),
        Iw - (h / 2.0) * dW,
    )


def _wagner_platen_noise(ctx, dW, Iw):
    """dW, Iw, dW^2, dW^3, h dW - Iw and Iw - (h/2) dW."""
    h = ctx.h
    return dW, Iw, dW**2, dW**3, h * dW - Iw, Iw - (h / 2.0) * dW


def _baseline_noise(ctx, dW, Iw):
    """dW and dW^2 - h gsq (the second read by dfmm only)."""
    return dW, dW**2 - ctx.h_gsq


def erkm_step(tab, ctx, y, noise):
    """One ERKM1.5 step with the coefficients of the tableau tab.

    Stage 0 is the state y: f_0, b_0 and the drift D_0 = A y + f_0 there.
    Stages 1-4 each take one f and one b evaluation, at y plus k h D_0
    (stage 1), k h b_0 (stage 2) or k sqrt(h) b_0 (stages 3-4), k the
    stage's entry of tab.stages; stage 5 one b evaluation, at y +
    sqrt(h) (k b_0 + k' b_4).  That is 5 f- and 6 b-evaluations, all
    through eval_coeff.  The increment sums the alpha
    rows against theta^0 = (h, Iw/h, h gsq), the beta rows against
    theta^1 and b_0 against theta^2_1; noise is the step's row of
    theta1_1..theta1_5, theta2_1 (theta_fields).
    """
    grid, h, sqh = ctx.grid, ctx.h, ctx.sqh
    k, a, be = tab
    yp = to_physical(y, grid)
    f0 = eval_coeff(ctx, "f", yp)
    D0 = to_physical(ctx.neg_lam * y, grid) + f0
    b0 = eval_coeff(ctx, "b", yp)
    f1 = eval_coeff(ctx, "f", yp + (k[0] * h) * D0)
    b1 = eval_coeff(ctx, "b", yp + (k[1] * h) * D0)
    f2 = eval_coeff(ctx, "f", yp + (k[2] * h) * b0)
    b2 = eval_coeff(ctx, "b", yp + (k[3] * h) * b0)
    f3 = eval_coeff(ctx, "f", yp + (k[4] * sqh) * b0)
    b3 = eval_coeff(ctx, "b", yp + (k[5] * sqh) * b0)
    f4 = eval_coeff(ctx, "f", yp + (k[6] * sqh) * b0)
    b4 = eval_coeff(ctx, "b", yp + (k[7] * sqh) * b0)
    b5 = eval_coeff(ctx, "b", yp + (k[8] * sqh) * b0 + (k[9] * sqh) * b4)

    # summed from +0 in row order: a term that is a zero of either sign
    # then leaves P as it is
    P = (0.0
         + (a[0][0] * f0 + a[0][1] * f1) * h
         + (a[1][0] * f0 + a[1][1] * f2) * noise[1]
         + (a[2][0] * f0 + a[2][1] * f3 + a[2][2] * f4) * ctx.h_gsq
         + (be[0][0] * b0 + be[0][1] * b1) * noise[0]
         + (be[1][0] * b0 + be[1][1] * b1) * noise[1]
         + (be[2][0] * b0 + be[2][1] * b2) * noise[2]
         + (be[3][0] * b0 + be[3][1] * b3 + be[3][2] * b4) * noise[3]
         + (be[4][0] * b0 + be[4][1] * b5) * noise[4])
    bracket = to_spectral(P, grid) + ctx.neg_lam * to_spectral(b0 * noise[5], grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def ewp_step(ctx, y, noise):
    """One step of the exponential Wagner-Platen scheme.

    Needs the pointwise derivative maps f_y, f_yy, b_y, b_yy; at state
    dimension 1 every operator derivative collapses to a pointwise
    product, and the step costs 6 distinct function/derivative
    evaluations.  Evaluates f, b and D = A y + f(y) at the state y, then
    the four derivatives there, and sums the 12 terms of the order-1.5
    expansion left to right; noise is the step's row of
    _wagner_platen_noise.
    """
    dW, Iw, dW2, dW3, hdW_Iw, Iw_hdW = noise
    h = ctx.h
    grid = ctx.grid
    yp = to_physical(y, grid)
    gsq = ctx.gsq

    fY = eval_coeff(ctx, "f", yp)
    bY = eval_coeff(ctx, "b", yp)
    D = to_physical(ctx.neg_lam * y, grid) + fY
    f_y = eval_coeff(ctx, "f_y", yp)
    f_yy = eval_coeff(ctx, "f_yy", yp)
    b_y = eval_coeff(ctx, "b_y", yp)
    b_yy = eval_coeff(ctx, "b_yy", yp)
    bY2 = bY**2
    b_y2 = b_y**2

    S = (
        h * fY
        + 0.5 * h * h * f_y * D
        + f_y * bY * Iw
        + 0.25 * h * h * f_yy * bY2 * gsq
        + bY * dW
        + b_y * D * hdW_Iw
        + 0.5 * b_y * bY * dW2
        + (1.0 / 6.0) * b_yy * bY2 * dW3
        + (1.0 / 6.0) * b_y2 * bY * dW3
        - 0.5 * h * b_y * bY * gsq
        - 0.5 * b_yy * bY2 * gsq * Iw
        - 0.5 * h * b_y2 * bY * gsq * dW
    )
    bracket = to_spectral(S, grid) + ctx.neg_lam * to_spectral(bY * Iw_hdW, grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def baseline_step(kind, ctx, y, noise):
    """Euler/Milstein-type baselines.

    lie:  Y+ = (I - hA)^(-1) (Y + h f(Y) + b(Y) dW)
    exe:  Y+ = e^{Ah} Y + h phi1(hA) f(Y) + e^{Ah}(b(Y) dW)
    dfmm: Y+ = e^{Ah}(Y + h f(Y) + b(Y) dW
               + (b(Y + sqrt(h) b(Y)) - b(Y)) (dW^2 - h sum g_j^2) / (2 sqrt(h)))

    dfmm needs commutative noise, which Nemytskii noise always is (see
    spderk.nemytskii).  noise is the step's row (dW, dW^2 - h gsq), of
    which lie and exe read dW alone.  Each evaluates f and b once at Y;
    dfmm evaluates b a second time, at Y + sqrt(h) b(Y).
    """
    h = ctx.h
    grid = ctx.grid
    yp = to_physical(y, grid)
    dW = noise[0]
    fY = eval_coeff(ctx, "f", yp)
    bY = eval_coeff(ctx, "b", yp)
    if kind == "lie":
        incr = to_spectral(h * fY + bY * dW, grid)
        return ctx.resolvent * (y + incr)
    if kind == "exe":
        return (
            ctx.E_h * y
            + h * ctx.phi1 * to_spectral(fY, grid)
            + ctx.E_h * to_spectral(bY * dW, grid)
        )
    if kind == "dfmm":
        sqh = ctx.sqh
        b_shift = eval_coeff(ctx, "b", yp + sqh * bY)
        corr = (b_shift - bY) * noise[1] / (2.0 * sqh)
        return ctx.E_h * (y + to_spectral(h * fY + bY * dW + corr, grid))
    raise ValueError("unknown baseline kind %r" % (kind,))


class Scheme(NamedTuple):
    """A resolved selector: name (in SCHEME_NAMES), label (in error
    tables), step, called as step(ctx, y, row), and noise, called as
    noise(ctx, dW, Iw): on one step's (n,) noise fields it returns that
    step's row, and on a chunk's (rows, n) tables the factors whose
    zipped rows are the steps' rows.  erkm15's noise is theta_fields
    itself; ewp's and the baselines' are private to this module."""

    name: str
    label: str
    step: object
    noise: object


def resolve_scheme(scheme):
    """The Scheme record of a scheme selector; raises ValueError.

    Accepts the two forms a JSON config can hold: a plain name from
    SCHEME_NAMES, or a dict with a 'name' key, an optional 'label' and
    the scheme's parameters.  The label names the scheme in error tables:
    a non-empty string without commas, line breaks or outer whitespace.
    The one parameter is erkm15's 'c': a list of 7 nonzero real numbers
    (ints or floats; neither bools nor strings are coerced).  A c far
    from 1 is accepted and runs, but its errors say nothing about the
    scheme, as the 1/c^2 second differences cancel catastrophically: with
    all seven c at 1e-9, example3's M = 8 RMS error is 5.1e1, against
    6.2e-2 at c = 1.
    """
    params = {}
    if isinstance(scheme, str):
        name = scheme
    elif isinstance(scheme, dict):
        params = dict(scheme)
        if "name" not in params:
            raise ValueError("missing key 'name'")
        name = params.pop("name")
    else:
        raise ValueError("unrecognized scheme selector %r" % (scheme,))
    label = params.pop("label", name)

    if name == "erkm15":
        c = params.pop("c", (1.0,) * 7)
        if not (isinstance(c, (list, tuple)) and len(c) == 7 and all(map(is_real, c))):
            raise ValueError("erkm15 'c' must be a list of 7 numbers, got %r" % (c,))
        step, noise = partial(erkm_step, erkm15_tableau(c)), theta_fields
    elif name == "ewp":
        step, noise = ewp_step, _wagner_platen_noise
    elif name in ("exe", "lie", "dfmm"):
        step, noise = partial(baseline_step, name), _baseline_noise
    else:
        raise ValueError("unknown scheme %r (have: %s)" % (name, ", ".join(SCHEME_NAMES)))
    if params:
        raise ValueError("unused scheme parameters: %s" % ", ".join(sorted(params)))
    if not is_label(label):
        raise ValueError("label must be a non-empty string without commas, line"
                         " breaks or outer whitespace, got %r" % (label,))
    return Scheme(name, label, step, noise)


def solve(ctx, scheme, path):
    """Run a stepper along a noise path from the initial coefficients of
    ctx.problem; returns the terminal state.  ctx is the StepContext of
    the path's span and step count, and any number of solves may share
    it.  Any non-finite coefficient aborts with a DivergenceError naming
    the scheme, step and mode, under any warning filter: overflow,
    division by zero and invalid operations are silenced in its steps.

    Only the current state and one chunk are held: theta_weights builds
    the noise fields of at most CHUNK_STEPS steps of the path at a time,
    the factors the stepper reads besides dW and Iw are built from them,
    one elementwise operation per factor, and the stepper runs through
    the chunk's rows.  The path comes from the caller, so it is checked
    once, against the context (M, T and K).  After each step one dot
    product y.y tests the state; only a non-finite result (a non-finite
    entry, or finite entries whose squares overflow) scans the entries.
    """
    if not isinstance(ctx, StepContext):
        raise TypeError("solve takes a StepContext first, got %s: build one with"
                        " StepContext(problem, T, M)" % type(ctx).__name__)
    scheme = resolve_scheme(scheme)
    M, K = path.M, ctx.problem.qspec.K
    if ctx.M != M:
        raise ValueError("context M=%d does not match path M=%d" % (ctx.M, M))
    if not math.isclose(path.h * M, ctx.T, rel_tol=1e-9):
        raise ValueError("context T=%g does not match path T=%g"
                         % (ctx.T, path.h * M))
    if K != path.K:
        raise DimensionError("path has %d noise modes, problem %d" % (path.K, K))
    y = ctx.problem.initial_coeffs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for m0 in range(0, M, CHUNK_STEPS):
            chunk = slice(m0, m0 + CHUNK_STEPS)
            rows = zip(*scheme.noise(ctx, *theta_weights(path.dB[chunk], path.I[chunk], ctx.G)))
            for m, row in enumerate(rows, m0):
                y = scheme.step(ctx, y, row)
                if not math.isfinite(np.vdot(y, y)):
                    bad = ~np.isfinite(y)
                    if bad.any():
                        raise DivergenceError(scheme.label, m, int(np.nonzero(bad)[0][0]))
    return y
