"""One-step integrators.

Contents:

* the ERKM1.5 step (`erkm_step`), an exponential stochastic Runge-Kutta
  method with two stage families and random weights theta, run as one
  fixed sequence of array operations over the six-stage tableau;
* the ERKM1.5 tableau family (`erkm15_tableau`), the paper's table as
  data, parametrized by seven nonzero reals c_1..c_7;
* the exponential Wagner-Platen stepper (`ewp_step`), the derivative
  based order-1.5 baseline, and the same step with difference quotients
  for its derivative terms: ERKM1.5 in summed closed form
  (`erkm15_closed_form_step`) with generalized, possibly h-dependent
  coefficients c^_1..c^_8 -- not a study scheme, but an oracle for
  erkm_step (`hatted_coefficients` gives the mapping under which both
  agree);
* linear-implicit Euler, exponential Euler and derivative-free Milstein
  baselines (`baseline_step`);
* the one parser of scheme selectors (`resolve_scheme`) and a driver
  (`solve`) running a scheme along a NoisePath to its terminal state.

Steppers are plain functions, called one way only, as step(ctx, y, row):
the StepContext holds what is fixed for a step size -- diagonal operator
factors, the problem's grid and gsq, and its six pointwise maps, bound
once when it is built -- y is the spectral state and row the step's row
of noise factors.  The only random input of a step is the pair of noise
fields (dW, Iw) on the grid, two bare arrays.  solve(ctx, scheme, path)
streams them one chunk of at most qwiener.CHUNK_STEPS steps at a time:
it builds the chunk's (rows, n) field tables with theta_weights, builds
from them the factors the stepper reads that depend on the noise alone,
one elementwise operation per factor -- dW^2, dW^3, h dW - Iw and
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
No stepper counts its evaluations: the context's bound maps count their
own calls into StepContext.counters, so the ledger is the work done.
"""

import math
from dataclasses import astuple, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DimensionError, DivergenceError, count, is_real, positive
from .nemytskii import eval_coeff
from .qwiener import CHUNK_STEPS, theta_weights
from .spectral import diagonal_factor, to_physical, to_spectral

__all__ = [
    "EvalCounters",
    "StepContext",
    "erkm15_tableau",
    "theta_fields",
    "erkm_step",
    "erkm15_closed_form_step",
    "hatted_coefficients",
    "ewp_step",
    "baseline_step",
    "Scheme",
    "resolve_scheme",
    "solve",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("erkm15", "ewp", "exe", "lie", "dfmm")


@dataclass
class EvalCounters:
    """Distinct grid-wide evaluations of the pointwise maps."""

    f: int = 0
    b: int = 0
    f_y: int = 0
    f_yy: int = 0
    b_y: int = 0
    b_yy: int = 0

    @property
    def total(self):
        return sum(astuple(self))

    def copy(self):
        return EvalCounters(*astuple(self))

    def __sub__(self, other):
        return EvalCounters(*(a - b for a, b in zip(astuple(self), astuple(other))))


class ERKM15Tableau(NamedTuple):
    """The arrays of the ERKM1.5 tableau, a plain record.

    A01, A11 (6, 6) weight the drift term h (A K_j^0 + f(K_j^0)) in the
    two stage families; B01/B02 (resp. B11/B12) weight the h and sqrt(h)
    multiples of b(K_j^1).  alpha has 3 weight rows (paired with
    theta^0_k), beta 5 rows (theta^1_k), gamma one row (theta^2_1).
    erkm_step reads each at the fixed positions of the family.
    """

    A01: np.ndarray
    A11: np.ndarray
    B01: np.ndarray
    B02: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _coefficients(c, n, name):
    """c as n floats, all finite and nonzero; else DimensionError or ValueError."""
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise DimensionError("%s must have %d entries" % (name, n))
    if np.any(c == 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("%s must be finite and nonzero" % name)
    return c


def erkm15_tableau(c):
    """The six-stage ERKM1.5 tableau for coefficients c = (c_1..c_7).

    c must be finite and nonzero, and so must every entry of the table
    but 1 - 1/(2 c_1) and 1 - 1/c_4 after rounding: a c whose tableau
    overflows or rounds an entry to 0 (1/c_6^2 at c_6 = 1e200) raises a
    ValueError naming c.  The alpha^(3) stage-4/5 entries are 1/(4 c_3^2):
    the consistency of the second-difference drift term forces the square
    (its stage-1 entry is -1/(2 c_3^2), and the term must assemble to a
    clean second difference for every c_3).  The published table prints
    1/(4 c_3) there, an erratum: that row sums to zero, as consistency
    requires, only at c_3 = 1.
    """
    c = _coefficients(c, 7, "c")
    c1, c2, c3, c4, c5, c6, c7 = c
    s = 6
    A01, A11, B01, B02, B11, B12 = (np.zeros((s, s)) for _ in range(6))
    alpha, beta, gamma = np.zeros((3, s)), np.zeros((5, s)), np.zeros(s)
    with np.errstate(all="ignore"):  # overflow and underflow are checked below
        A01[1, 0] = c1
        B01[2, 0] = c2
        B02[3, 0] = c3
        B02[4, 0] = -c3
        A11[1, 0] = c4
        B11[2, 0] = c5
        B12[3, 0] = -c6
        B12[4, 0] = c6
        B12[5, 0] = -c7 / c6
        B12[5, 4] = c7 / c6

        alpha[0, 0] = 1.0 - 1.0 / (2.0 * c1)
        alpha[0, 1] = 1.0 / (2.0 * c1)
        alpha[1, 0] = -1.0 / c2
        alpha[1, 2] = 1.0 / c2
        alpha[2, 0] = -1.0 / (2.0 * c3**2)
        alpha[2, 3] = 1.0 / (4.0 * c3**2)
        alpha[2, 4] = 1.0 / (4.0 * c3**2)

        beta[0, 0] = 1.0 - 1.0 / c4
        beta[0, 1] = 1.0 / c4
        beta[1, 0] = 1.0 / c4
        beta[1, 1] = -1.0 / c4
        beta[2, 0] = 1.0 / (2.0 * c5)
        beta[2, 2] = -1.0 / (2.0 * c5)
        beta[3, 0] = 1.0 / c6**2
        beta[3, 3] = -1.0 / (2.0 * c6**2)
        beta[3, 4] = -1.0 / (2.0 * c6**2)
        beta[4, 0] = 1.0 / (2.0 * c7)
        beta[4, 5] = -1.0 / (2.0 * c7)
    gamma[0] = 1.0
    tab = ERKM15Tableau(A01, A11, B01, B02, B11, B12, alpha, beta, gamma)
    # 29 entries are nonzero for a generic c; alpha[0, 0], beta[0, 0] may vanish
    vanished = int(alpha[0, 0] == 0) + int(beta[0, 0] == 0)
    if (sum(np.count_nonzero(a) for a in tab) + vanished != 29
            or not all(np.isfinite(a).all() for a in tab)):
        raise ValueError("c = %s leaves the ERKM1.5 family: its tableau has a"
                         " non-finite entry or one that rounds to 0" % c.tolist())
    return tab


class StepContext:
    """Everything a stepper needs besides the state and the noise, owned
    by one worker: StepContext(problem, T, M=1), for M uniform steps over
    a span T (an integer M >= 1, a finite T > 0).

    h = T / M is derived here and nowhere else, and solve() matches a
    context to a path by the integer step count; with M=1, T is the step
    size.  grid, G and gsq are the problem's own, shared by all its
    contexts; the context adds neg_lam and what depends on h: sqh, h_gsq
    and the factors E_h, E_h2, resolvent and phi1 of problem.op, all
    read-only, as the problem's own arrays are, since every solve of a
    study's step count shares them.  It binds the problem's six pointwise
    maps once, as f, b, f_y, f_yy, b_y and b_yy; a map the problem leaves
    None raises a CapabilityError when a stepper first calls it, naming
    ewp for a derivative map.  Each bound map adds 1 to its field of
    counters, an EvalCounters, per call and returns the map's array
    untouched.  A context holds only what (problem, T, M) fixes, and
    those counters: the state and the noise are the stepper's y and row.
    """

    def __init__(self, problem, T, M=1):
        self.problem = problem
        self.T, self.M = positive("T", T), count("M", M)
        self.grid, self.G, self.gsq, op = problem.grid, problem.G, problem.gsq, problem.op
        self.h = h = self.T / self.M
        if h == 0.0:
            raise ValueError("T=%r over M=%d steps: the step size T / M underflows to 0"
                             % (self.T, self.M))
        self.sqh = math.sqrt(h)
        self.h_gsq = h * self.gsq
        self.E_h = diagonal_factor("semigroup", op, t=h)
        self.E_h2 = diagonal_factor("semigroup", op, t=h / 2.0)
        self.neg_lam = diagonal_factor("generator", op)
        self.resolvent = diagonal_factor("resolvent", op, h=h)
        self.phi1 = diagonal_factor("phi1", op, h=h)
        for a in (self.h_gsq, self.E_h, self.E_h2, self.neg_lam, self.resolvent, self.phi1):
            a.flags.writeable = False
        self.counters = EvalCounters()
        for which in ("f", "b", "f_y", "f_yy", "b_y", "b_yy"):
            fn = getattr(problem, which)
            if fn is None:
                fn = _missing(problem, which)
            setattr(self, which, _counting(fn, self.counters, which))


def _missing(problem, which):
    """A stand-in for a map the problem leaves None: it raises when called."""
    who = "" if which in ("f", "b") else " (required by ewp)"
    message = "problem %r does not provide the %s map%s" % (problem.name, which, who)

    def missing(x, y):
        raise CapabilityError(message)

    return missing


def _counting(fn, counters, which):
    """fn, adding 1 to counters.<which> each time it returns."""
    def counted(x, y):
        out = fn(x, y)
        setattr(counters, which, getattr(counters, which) + 1)
        return out
    return counted


def theta_fields(dW, Iw, h, gsq):
    """ERKM1.5's random weights, from one step's noise fields:

        theta0_1 = h                 theta1_1 = dW
        theta0_2 = Iw / h            theta1_2 = Iw / h
        theta0_3 = h * gsq           theta1_3 = gsq - dW^2 / h
        theta2_1 = Iw - (h/2) dW     theta1_4 = (Iw * gsq - dW^3 / 3) / h
                                     theta1_5 = dW * gsq - dW^3 / (3h)

    Returns the six tables erkm_step reads, theta1_1..theta1_5 and
    theta2_1.  theta0 is not built: erkm_step takes theta0_1 and theta0_3
    from its context (ctx.h, ctx.h_gsq) and theta0_2 as theta1_2.
    Elementwise, so dW and Iw may be the (rows, n) tables of a chunk of
    steps: each row then equals that step's weights to the bit.
    """
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


# Noise functions: (ctx, dW, Iw) -> the tables a stepper reads per step,
# built from a chunk's (rows, n) noise-field tables in one elementwise
# pass each, so every row equals its step's own factors to the bit.

def _theta_noise(ctx, dW, Iw):
    """theta_fields on the context's h and gsq."""
    return theta_fields(dW, Iw, ctx.h, ctx.gsq)


def _wagner_platen_noise(ctx, dW, Iw):
    """dW, Iw, dW^2, dW^3, h dW - Iw and Iw - (h/2) dW."""
    h = ctx.h
    return dW, Iw, dW**2, dW**3, h * dW - Iw, Iw - (h / 2.0) * dW


def _baseline_noise(ctx, dW, Iw):
    """dW and dW^2 - h gsq (the second read by dfmm only)."""
    return dW, dW**2 - ctx.h * ctx.gsq


def erkm_step(tab, ctx, y, noise):
    """One ERKM1.5 step with the coefficients of the tableau tab.

    Stage 0 is the state y: f_0, b_0 and the drift D_0 = A y + f_0 there.
    Stages 1-4 each take one f and one b evaluation, at y plus a
    multiple of D_0 (stage 1, through A01/A11 times h) or of b_0 (stage
    2 through B01/B11 times h, stages 3-4 through B02/B12 times sqrt(h));
    stage 5 one b evaluation, at y + B12[5, 0] sqrt(h) b_0 + B12[5, 4]
    sqrt(h) b_4.  That is 5 f- and 6 b-evaluations, all through the
    context's bound maps, which count them.  The increment sums
    the alpha rows against theta^0 = (h, Iw/h, h gsq), the beta rows
    against theta^1 and gamma against theta^2_1; noise is the step's
    row of theta1_1..theta1_5, theta2_1 (theta_fields on the context's h
    and gsq).
    """
    grid, h, sqh = ctx.grid, ctx.h, ctx.sqh
    f, b = ctx.f, ctx.b
    A01, A11, B01, B02, B11, B12, a, be, g = tab
    yp = to_physical(y, grid)
    f0 = eval_coeff(f, yp, grid)
    D0 = to_physical(ctx.neg_lam * y, grid) + f0
    b0 = eval_coeff(b, yp, grid)
    f1 = eval_coeff(f, yp + (A01[1, 0] * h) * D0, grid)
    b1 = eval_coeff(b, yp + (A11[1, 0] * h) * D0, grid)
    f2 = eval_coeff(f, yp + (B01[2, 0] * h) * b0, grid)
    b2 = eval_coeff(b, yp + (B11[2, 0] * h) * b0, grid)
    f3 = eval_coeff(f, yp + (B02[3, 0] * sqh) * b0, grid)
    b3 = eval_coeff(b, yp + (B12[3, 0] * sqh) * b0, grid)
    f4 = eval_coeff(f, yp + (B02[4, 0] * sqh) * b0, grid)
    b4 = eval_coeff(b, yp + (B12[4, 0] * sqh) * b0, grid)
    b5 = eval_coeff(b, yp + (B12[5, 0] * sqh) * b0 + (B12[5, 4] * sqh) * b4, grid)

    # summed from +0 in row order: a term that is a zero of either sign
    # then leaves P as it is
    P = (0.0
         + (a[0, 0] * f0 + a[0, 1] * f1) * h
         + (a[1, 0] * f0 + a[1, 2] * f2) * noise[1]
         + (a[2, 0] * f0 + a[2, 3] * f3 + a[2, 4] * f4) * ctx.h_gsq
         + (be[0, 0] * b0 + be[0, 1] * b1) * noise[0]
         + (be[1, 0] * b0 + be[1, 1] * b1) * noise[1]
         + (be[2, 0] * b0 + be[2, 2] * b2) * noise[2]
         + (be[3, 0] * b0 + be[3, 3] * b3 + be[3, 4] * b4) * noise[3]
         + (be[4, 0] * b0 + be[4, 5] * b5) * noise[4])
    bracket = to_spectral(P, grid) + ctx.neg_lam * to_spectral(g[0] * b0 * noise[5], grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def hatted_coefficients(c, h):
    """Map ERKM1.5 coefficients c_1..c_7 to the generalized c^_1..c^_8
    under which the closed-form step is identical to erkm_step."""
    c = np.asarray(c, dtype=float)
    sqh = math.sqrt(h)
    # c_6 gives both c^_6 and c^_7
    return np.array([h, h, sqh, h, h, sqh, sqh, h]) * c[[0, 1, 2, 3, 4, 5, 5, 6]]


def _wagner_platen_step(ctx, y, noise, terms):
    """The order-1.5 Wagner-Platen step of ewp_step and the closed form.

    Evaluates f, b and D = A y + f(y) at the state y, asks terms(ctx, yp,
    fY, bY, D) for seven (a, c) pairs whose products stand for f'D, f'b,
    f''b^2, b'D, b'b, b''b^2 and b'^2 b, and sums the 12 terms left to
    right; noise is a row of _wagner_platen_noise.
    """
    dW, Iw, dW2, dW3, hdW_Iw, Iw_hdW = noise
    h = ctx.h
    grid = ctx.grid
    yp = to_physical(y, grid)
    gsq = ctx.gsq

    fY = eval_coeff(ctx.f, yp, grid)
    bY = eval_coeff(ctx.b, yp, grid)
    D = to_physical(ctx.neg_lam * y, grid) + fY
    ((a1, c1), (a2, c2), (a3, c3), (a4, c4), (a5, c5), (a6, c6),
     (a7, c7)) = terms(ctx, yp, fY, bY, D)

    S = (
        h * fY
        + 0.5 * h * h * a1 * c1
        + a2 * c2 * Iw
        + 0.25 * h * h * a3 * c3 * gsq
        + bY * dW
        + a4 * c4 * hdW_Iw
        + 0.5 * a5 * c5 * dW2
        + (1.0 / 6.0) * a6 * c6 * dW3
        + (1.0 / 6.0) * a7 * c7 * dW3
        - 0.5 * h * a5 * c5 * gsq
        - 0.5 * a6 * c6 * gsq * Iw
        - 0.5 * h * a7 * c7 * gsq * dW
    )
    bracket = to_spectral(S, grid) + ctx.neg_lam * to_spectral(bY * Iw_hdW, grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def erkm15_closed_form_step(chat, ctx, y, noise):
    """One step of the summed scheme with generalized coefficients from
    the state y; noise is a row of ewp's noise factors
    (resolve_scheme("ewp").noise).

    chat = (c^_1 .. c^_8), all nonzero, possibly h-dependent.  This is an
    independent formulation used as an oracle for erkm_step; the
    two coincide under hatted_coefficients(c, h).  It is ewp_step with
    difference quotients for the derivative terms: 5 f- and 6
    b-evaluations, 7 b-evaluations when c^_7 != c^_6.
    """
    g1, g2, g3, g4, g5, g6, g7, g8 = _coefficients(chat, 8, "chat")

    def quotients(ctx, yp, fY, bY, D):
        f, b, grid = ctx.f, ctx.b, ctx.grid
        f_plus = eval_coeff(f, yp + g3 * bY, grid)
        f_minus = eval_coeff(f, yp - g3 * bY, grid)
        b_plus = eval_coeff(b, yp + g6 * bY, grid)
        b_minus = eval_coeff(b, yp - g6 * bY, grid)
        b_7 = b_plus if g7 == g6 else eval_coeff(b, yp + g7 * bY, grid)
        return (
            (eval_coeff(f, yp + g1 * D, grid) - fY, 1.0 / g1),
            (eval_coeff(f, yp + g2 * bY, grid) - fY, 1.0 / g2),
            (f_plus - 2.0 * fY + f_minus, 1.0 / g3**2),
            (eval_coeff(b, yp + g4 * D, grid) - bY, 1.0 / g4),
            (eval_coeff(b, yp + g5 * bY, grid) - bY, 1.0 / g5),
            (b_plus - 2.0 * bY + b_minus, 1.0 / g6**2),
            (eval_coeff(b, yp + (g8 / g7) * (b_7 - bY), grid) - bY, 1.0 / g8),
        )

    return _wagner_platen_step(ctx, y, noise, quotients)


def _derivatives(ctx, yp, fY, bY, D):
    """ewp's Taylor terms from the pointwise derivative maps."""
    grid = ctx.grid
    f_y = eval_coeff(ctx.f_y, yp, grid)
    f_yy = eval_coeff(ctx.f_yy, yp, grid)
    b_y = eval_coeff(ctx.b_y, yp, grid)
    b_yy = eval_coeff(ctx.b_yy, yp, grid)
    bY2 = bY**2
    return ((f_y, D), (f_y, bY), (f_yy, bY2), (b_y, D), (b_y, bY), (b_yy, bY2),
            (b_y**2, bY))


def ewp_step(ctx, y, noise):
    """One step of the exponential Wagner-Platen scheme.

    Needs the pointwise derivative maps f_y, f_yy, b_y, b_yy; at state
    dimension 1 every operator derivative collapses to a pointwise
    product, and the step costs 6 distinct function/derivative
    evaluations.  noise is the step's row of _wagner_platen_noise.
    """
    return _wagner_platen_step(ctx, y, noise, _derivatives)


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
    fY = eval_coeff(ctx.f, yp, grid)
    bY = eval_coeff(ctx.b, yp, grid)
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
        b_shift = eval_coeff(ctx.b, yp + sqh * bY, grid)
        corr = (b_shift - bY) * noise[1] / (2.0 * sqh)
        return ctx.E_h * (y + to_spectral(h * fY + bY * dW + corr, grid))
    raise ValueError("unknown baseline kind %r" % (kind,))


class Scheme(NamedTuple):
    """A resolved selector: name (in SCHEME_NAMES), label (in error
    tables), step, called as step(ctx, y, row), and noise, called as
    noise(ctx, dW, Iw): on one step's (n,) noise fields it returns that
    step's row, and on a chunk's (rows, n) tables the factors whose
    zipped rows are the steps' rows."""

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
        step, noise = partial(erkm_step, erkm15_tableau(c)), _theta_noise
    elif name == "ewp":
        step, noise = ewp_step, _wagner_platen_noise
    elif name in ("exe", "lie", "dfmm"):
        step, noise = partial(baseline_step, name), _baseline_noise
    else:
        raise ValueError("unknown scheme %r (have: %s)" % (name, ", ".join(SCHEME_NAMES)))
    if params:
        raise ValueError("unused scheme parameters: %s" % ", ".join(sorted(params)))
    # a label is one field of an error-table CSV row, which
    # ErrorTable.read_csv splits at commas and strips of outer whitespace
    if (not isinstance(label, str) or not label or label != label.strip()
            or any(c in label for c in ",\r\n")):
        raise ValueError("label must be a non-empty string without commas, line"
                         " breaks or outer whitespace, got %r" % (label,))
    return Scheme(name, label, step, noise)


def solve(ctx, scheme, path):
    """Run a stepper along a noise path from the initial coefficients of
    ctx.problem; returns the terminal state.  ctx is the StepContext of
    the path's span and step count, and any number of solves may share
    it.  Any non-finite coefficient aborts with a DivergenceError naming
    the scheme, step and mode.

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
