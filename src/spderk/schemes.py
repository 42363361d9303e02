"""One-step integrators.

Contents:

* a generic explicit tableau engine (`erkm_step`) for exponential
  stochastic Runge-Kutta methods with two stage families and random
  weights theta;
* the ERKM1.5 six-stage tableau family (`erkm15_tableau`), parametrized
  by seven nonzero reals c_1..c_7;
* the exponential Wagner-Platen stepper (`ewp_step`), the derivative
  based order-1.5 baseline, and the same step with difference quotients
  for its derivative terms: ERKM1.5 in summed closed form
  (`erkm15_closed_form_step`) with generalized, possibly h-dependent
  coefficients c^_1..c^_8 -- not a study scheme, but an oracle for the
  engine (`hatted_coefficients` gives the mapping under which both
  agree);
* linear-implicit Euler, exponential Euler and derivative-free Milstein
  baselines (`baseline_step`);
* the one parser of scheme selectors (`resolve_scheme`) and a driver
  (`solve`) running a scheme along a NoisePath to its terminal state.

Steppers are plain functions, called one way only, as step(ctx, y, row):
the StepContext holds what is fixed for a step size -- diagonal operator
factors, gsq, and the problem's six pointwise maps, bound once when it
is built -- y is the spectral state and row the step's row of noise
factors.  The only random input of a step is the pair of noise fields
(dW, Iw) on the grid, two bare arrays.  solve streams them one chunk of
at most qwiener.CHUNK_STEPS steps at a time: it fills the context's
table for the chunk (qwiener.noise_fields), builds from it the factors the
stepper reads that depend on the noise alone, one elementwise operation
per factor -- dW^2, dW^3, h dW - Iw and Iw - (h/2) dW for ewp, the
theta weights for the tableau engine (`theta_fields`), dW^2 - h gsq for
the baselines -- and steps through the chunk's rows.  Each row
equals the factor computed for its step alone, bit for bit.  solve
holds the current state and one chunk, never the trajectory; it checks
shapes once, before the first step, and tests each new state with one
dot product.  A single step is a chunk of one row: with one step's
fields dW and Iw (qwiener.theta_weights),

    row = next(zip(*scheme.noise(ctx, dW[None], Iw[None])))
    y = scheme.step(ctx, y, row)

Every stepper advances Y via the split form

    Y+ = P_N e^{Ah/2} ( e^{Ah/2} Y + [assembled increment] )

(for the exponential schemes), evaluates f and b pointwise in physical
space, applies all operator actions diagonally in spectral space, and
counts each grid-wide f/b evaluation exactly once.
"""

import math
import numbers
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DivergenceError
from .nemytskii import coeff_map, eval_coeff
from .qwiener import (
    CHUNK_STEPS,
    gsq_field,
    noise_fields,
    noise_matrix,
    theta_weights,  # noqa: F401 - bench/tracing.py wraps it as schemes.theta_weights
)
from .spectral import (
    LinearOperatorSpec,
    SineBasisGrid,
    diagonal_factor,
    to_physical,
    to_spectral,
)

__all__ = [
    "ButcherTableau",
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
        return self.f + self.b + self.f_y + self.f_yy + self.b_y + self.b_yy

    def copy(self):
        return EvalCounters(self.f, self.b, self.f_y, self.f_yy, self.b_y, self.b_yy)

    def __sub__(self, other):
        return EvalCounters(
            **{
                fld.name: getattr(self, fld.name) - getattr(other, fld.name)
                for fld in fields(self)
            }
        )


def _strictly_lower(mat):
    return np.all(np.triu(mat) == 0.0)


class ButcherTableau:
    """Stage matrices and weight vectors of the two-family tableau.

    A01, A11 weight the drift term h (A K_j^0 + f(K_j^0)) in the two
    stage families; B01/B02 (resp. B11/B12) weight the h and sqrt(h)
    multiples of b(K_j^1).  alpha has 3 weight rows (paired with
    theta^0_k), beta 5 rows (theta^1_k), gamma one row (theta^2_1).
    All six stage matrices must be strictly lower triangular.
    """

    def __init__(self, A01, A11, B01, B02, B11, B12, alpha, beta, gamma):
        self.A01 = np.asarray(A01, dtype=float)
        self.A11 = np.asarray(A11, dtype=float)
        self.B01 = np.asarray(B01, dtype=float)
        self.B02 = np.asarray(B02, dtype=float)
        self.B11 = np.asarray(B11, dtype=float)
        self.B12 = np.asarray(B12, dtype=float)
        s = self.A01.shape[0]
        for m in (self.A01, self.A11, self.B01, self.B02, self.B11, self.B12):
            if m.shape != (s, s):
                raise DimensionError("stage matrices must all be (s, s)")
            if not _strictly_lower(m):
                raise ValueError("stage matrices must be strictly lower triangular")
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        if self.alpha.shape != (3, s) or self.beta.shape != (5, s):
            raise DimensionError("alpha must be (3, s), beta (5, s)")
        if self.gamma.shape != (s,):
            raise DimensionError("gamma must be length s")
        self.s = s
        self._compile()

    def _compile(self):
        """Nonzero structure for erkm_step, fixed per tableau.

        A stage K_j^0 is built only if some drift coefficient or alpha
        weight references f(K_j^0), K_j^1 only if some diffusion
        coefficient, beta or gamma weight references b(K_j^1); each
        stage keeps the (j, a, b_h, b_sqrt_h) entries of its row that
        are not all zero, and each weight row its nonzero (j, weight).
        """
        drift_cols = (self.A01 != 0.0) | (self.A11 != 0.0)
        diff_cols = ((self.B01 != 0.0) | (self.B02 != 0.0)
                     | (self.B11 != 0.0) | (self.B12 != 0.0))
        self.f_needed = drift_cols.any(axis=0) | (self.alpha != 0.0).any(axis=0)
        self.b_needed = (diff_cols.any(axis=0) | (self.beta != 0.0).any(axis=0)
                         | (self.gamma != 0.0))
        self.drift_needed = drift_cols.any(axis=0)

        def stage_terms(A, B1, B2):
            return tuple(
                tuple((j, float(A[i, j]), float(B1[i, j]), float(B2[i, j]))
                      for j in range(i) if A[i, j] or B1[i, j] or B2[i, j])
                for i in range(self.s)
            )

        def weight_rows(W):
            return tuple(
                tuple((int(j), float(row[j])) for j in np.nonzero(row)[0])
                for row in W
            )

        self.stage0_terms = stage_terms(self.A01, self.B01, self.B02)
        self.stage1_terms = stage_terms(self.A11, self.B11, self.B12)
        self.alpha_terms = weight_rows(self.alpha)
        self.beta_terms = weight_rows(self.beta)
        (self.gamma_terms,) = weight_rows(self.gamma[None, :])
        self.f_evals = int(self.f_needed.sum())
        self.b_evals = int(self.b_needed.sum())
        self._plan_h = self._plan = None

    def plan(self, h):
        """The stages of one step at step size h, as (i, f_terms,
        drift_needed, b_terms): f_terms (b_terms) is None if f(K_i^0)
        (b(K_i^1)) is not needed, else the (from_drift, j, coefficient)
        terms added to the base point, a h on a drift entry and
        b_h h + b_sqrt_h sqrt(h) on a diffusion entry, zeros dropped.
        Kept for the last h asked for.
        """
        if h != self._plan_h:
            sqh = math.sqrt(h)

            def scaled(terms):
                out = []
                for j, a, b1, b2 in terms:
                    if a != 0.0:
                        out.append((True, j, a * h))
                    blend = b1 * h + b2 * sqh
                    if blend != 0.0:
                        out.append((False, j, blend))
                return tuple(out)

            self._plan = tuple(
                (i,
                 scaled(self.stage0_terms[i]) if self.f_needed[i] else None,
                 bool(self.drift_needed[i]),
                 scaled(self.stage1_terms[i]) if self.b_needed[i] else None)
                for i in range(self.s))
            self._plan_h = h
        return self._plan


def _coefficients(c, n, name, kind):
    """c as n floats, all finite and nonzero; else DimensionError or ValueError."""
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise DimensionError("%s must have %d entries" % (name, n))
    if np.any(c == 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("%s coefficients must be finite and nonzero" % kind)
    return c


def erkm15_tableau(c):
    """The six-stage ERKM1.5 tableau for coefficients c = (c_1..c_7).

    All coefficients must be nonzero.  The alpha^(3) stage-4/5 entries
    are 1/(4 c_3^2); the consistency of the second-difference drift term
    forces the square (its stage-1 entry is -1/(2 c_3^2), and the term
    must assemble to a clean second difference for every c_3).  The
    published table prints 1/(4 c_3) there, an erratum: that row sums
    to zero, as consistency requires, only at c_3 = 1.
    """
    c1, c2, c3, c4, c5, c6, c7 = _coefficients(c, 7, "c", "ERKM1.5")
    s = 6
    A01 = np.zeros((s, s))
    A11 = np.zeros((s, s))
    B01 = np.zeros((s, s))
    B02 = np.zeros((s, s))
    B11 = np.zeros((s, s))
    B12 = np.zeros((s, s))
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

    alpha = np.zeros((3, s))
    alpha[0, 0] = 1.0 - 1.0 / (2.0 * c1)
    alpha[0, 1] = 1.0 / (2.0 * c1)
    alpha[1, 0] = -1.0 / c2
    alpha[1, 2] = 1.0 / c2
    alpha[2, 0] = -1.0 / (2.0 * c3**2)
    alpha[2, 3] = 1.0 / (4.0 * c3**2)
    alpha[2, 4] = 1.0 / (4.0 * c3**2)

    beta = np.zeros((5, s))
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

    gamma = np.zeros(s)
    gamma[0] = 1.0
    return ButcherTableau(A01, A11, B01, B02, B11, B12, alpha, beta, gamma)


class StepContext:
    """Everything a stepper needs besides the state and the noise, owned
    by one worker.

    Built for M uniform steps over a time span T: the step size
    h = T / M is derived here and nowhere else, and solve() matches a
    context to a path by the integer step count.  With the default M=1,
    T is the step size itself.  Holds the problem, grid, diagonal
    operator data precomputed for h, gsq and the evaluation counters,
    and binds the problem's six pointwise maps once (nemytskii.coeff_map;
    a missing derivative map raises a CapabilityError naming ewp when a
    stepper first calls it).  It owns its noise matrix G and tables, the
    (2, min(M, CHUNK_STEPS), n_nodes) buffer solve fills with one
    chunk's noise fields at a time.  It holds no state and no noise:
    those are the stepper's y and row arguments.
    """

    def __init__(self, problem, grid, opspec, T, M=1):
        if not T > 0:
            raise ValueError("T must be positive")
        if not isinstance(M, (int, np.integer)) or M < 1:
            raise ValueError("M must be a positive integer")
        if opspec.N != grid.N:
            raise DimensionError("operator and grid mode counts differ")
        if problem.N != grid.N:
            raise DimensionError("problem has %d modes, grid %d" % (problem.N, grid.N))
        self.problem = problem
        self.grid = grid
        self.opspec = opspec
        self.T = float(T)
        self.M = int(M)
        self.h = h = self.T / self.M
        self.sqh = math.sqrt(h)
        self.gsq = gsq_field(problem.qspec, grid)
        self.h_gsq = h * self.gsq
        self.G = noise_matrix(problem.qspec, grid)
        self.tables = np.empty((2, min(self.M, CHUNK_STEPS), grid.n_nodes))
        self.E_h = diagonal_factor("semigroup", opspec, t=h)
        self.E_h2 = diagonal_factor("semigroup", opspec, t=h / 2.0)
        self.neg_lam = diagonal_factor("generator", opspec)
        self.resolvent = diagonal_factor("resolvent", opspec, h=h)
        self.phi1 = diagonal_factor("phi1", opspec, h=h)
        self.f = coeff_map(problem, "f")
        self.b = coeff_map(problem, "b")
        self.f_y, self.f_yy, self.b_y, self.b_yy = (
            coeff_map(problem, which, needed_by="ewp")
            for which in ("f_y", "f_yy", "b_y", "b_yy"))
        self.counters = EvalCounters()


def theta_fields(dW, Iw, h, gsq):
    """The tableau engine's random weights, from one step's noise fields:

        theta0_1 = h                 theta1_1 = dW
        theta0_2 = Iw / h            theta1_2 = Iw / h
        theta0_3 = h * gsq           theta1_3 = gsq - dW^2 / h
        theta2_1 = Iw - (h/2) dW     theta1_4 = (Iw * gsq - dW^3 / 3) / h
                                     theta1_5 = dW * gsq - dW^3 / (3h)

    Returns (theta0, theta1, theta2_1) with theta0 = (theta0_1..theta0_3)
    and theta1 = (theta1_1..theta1_5).  Elementwise, so dW and Iw may be
    the (rows, n) tables of a chunk of steps: each row then equals that
    step's weights to the bit.
    """
    Iw_h = Iw / h
    dW3 = dW**3
    theta0 = (h, Iw_h, h * gsq)
    theta1 = (
        dW,
        Iw_h,
        gsq - dW**2 / h,
        (Iw * gsq - dW3 / 3.0) / h,
        dW * gsq - dW3 / (3.0 * h),
    )
    return theta0, theta1, Iw - (h / 2.0) * dW


# Noise functions: (ctx, dW, Iw) -> the tables a stepper reads per step,
# built from a chunk's (rows, n) noise-field tables in one elementwise
# pass each, so every row equals its step's own factors to the bit.

def _theta_noise(ctx, dW, Iw):
    """theta1_1..theta1_5 and theta2_1; theta0 is (h, theta1_2, h gsq)."""
    _, theta1, theta2_1 = theta_fields(dW, Iw, ctx.h, ctx.gsq)
    return theta1 + (theta2_1,)


def _wagner_platen_noise(ctx, dW, Iw):
    """dW, Iw, dW^2, dW^3, h dW - Iw and Iw - (h/2) dW."""
    h = ctx.h
    return dW, Iw, dW**2, dW**3, h * dW - Iw, Iw - (h / 2.0) * dW


def _baseline_noise(ctx, dW, Iw):
    """dW and dW^2 - h gsq (the second read by dfmm only)."""
    return dW, dW**2 - ctx.h * ctx.gsq


def _stage(K, terms, drift, bvals):
    for from_drift, j, coef in terms:
        K = K + coef * (drift[j] if from_drift else bvals[j])
    return K


def _combine(terms, vals):
    """w_1 vals[j_1] + w_2 vals[j_2] + ... over a weight row's (j, w)
    terms, left to right; a weight of exactly 1 multiplies by nothing.
    Equals the sum started from 0 up to the sign of zero entries, which
    the row's product with theta and its addition to P (which starts
    from +0) cannot tell apart."""
    acc = None
    for j, w in terms:
        t = vals[j] if w == 1.0 else w * vals[j]
        acc = t if acc is None else acc + t
    return acc


def erkm_step(tab, ctx, y, noise):
    """One step of the generic explicit tableau engine.

    Stages are materialized lazily, following the nonzero structure the
    tableau compiled once (ButcherTableau._compile) and scaled once per
    step size (ButcherTableau.plan).  With the ERKM1.5 tableau this
    performs exactly 5 f- and 6 b-evaluations.  The theta weights come
    from theta_fields on the context's h and gsq; noise is the step's
    row of them.
    """
    grid = ctx.grid
    y_phys = to_physical(y, grid)
    fvals = [None] * tab.s   # j -> f(., K_j^0)
    bvals = [None] * tab.s   # j -> b(., K_j^1)
    drift = [None] * tab.s   # j -> A K_j^0 + f(., K_j^0), physical

    for i, f_terms, drift_needed, b_terms in tab.plan(ctx.h):
        if f_terms is not None:
            K0 = _stage(y_phys, f_terms, drift, bvals)
            fvals[i] = eval_coeff(ctx.f, K0, grid)
            if drift_needed:
                spec = y if i == 0 else to_spectral(K0, grid)
                drift[i] = to_physical(ctx.neg_lam * spec, grid) + fvals[i]
        if b_terms is not None:
            bvals[i] = eval_coeff(ctx.b, _stage(y_phys, b_terms, drift, bvals), grid)
    counters = ctx.counters
    counters.f += tab.f_evals
    counters.b += tab.b_evals

    # P = 0 + sum over weight rows of (row . values) * theta, in row order
    P = None
    for rows, vals, thetas in ((tab.alpha_terms, fvals, (ctx.h, noise[1], ctx.h_gsq)),
                               (tab.beta_terms, bvals, noise[:5])):
        for terms, theta in zip(rows, thetas):
            if terms:
                T = _combine(terms, vals) * theta
                P = T + 0.0 if P is None else P + T
    if P is None:
        P = np.zeros(grid.n_nodes)

    bracket = to_spectral(P, grid)
    if tab.gamma_terms:
        Gm = sum(g * bvals[j] for j, g in tab.gamma_terms)
        bracket = bracket + ctx.neg_lam * to_spectral(Gm * noise[5], grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def hatted_coefficients(c, h):
    """Map ERKM1.5 coefficients c_1..c_7 to the generalized c^_1..c^_8
    under which the closed-form step is identical to the tableau step."""
    c = np.asarray(c, dtype=float)
    sqh = math.sqrt(h)
    return np.array(
        [
            h * c[0],
            h * c[1],
            sqh * c[2],
            h * c[3],
            h * c[4],
            sqh * c[5],
            sqh * c[5],
            h * c[6],
        ]
    )


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
    ctx.counters.f += 1
    ctx.counters.b += 1

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
    independent formulation used as an oracle for the tableau engine; the
    two coincide under hatted_coefficients(c, h).  It is ewp_step with
    difference quotients for the derivative terms: 5 f- and 6
    b-evaluations, 7 b-evaluations when c^_7 != c^_6.
    """
    g1, g2, g3, g4, g5, g6, g7, g8 = _coefficients(chat, 8, "chat", "generalized")

    def quotients(ctx, yp, fY, bY, D):
        f, b, grid = ctx.f, ctx.b, ctx.grid
        f_plus = eval_coeff(f, yp + g3 * bY, grid)
        f_minus = eval_coeff(f, yp - g3 * bY, grid)
        b_plus = eval_coeff(b, yp + g6 * bY, grid)
        b_minus = eval_coeff(b, yp - g6 * bY, grid)
        b_7 = b_plus if g7 == g6 else eval_coeff(b, yp + g7 * bY, grid)
        pairs = (
            (eval_coeff(f, yp + g1 * D, grid) - fY, 1.0 / g1),
            (eval_coeff(f, yp + g2 * bY, grid) - fY, 1.0 / g2),
            (f_plus - 2.0 * fY + f_minus, 1.0 / g3**2),
            (eval_coeff(b, yp + g4 * D, grid) - bY, 1.0 / g4),
            (eval_coeff(b, yp + g5 * bY, grid) - bY, 1.0 / g5),
            (b_plus - 2.0 * bY + b_minus, 1.0 / g6**2),
            (eval_coeff(b, yp + (g8 / g7) * (b_7 - bY), grid) - bY, 1.0 / g8),
        )
        ctx.counters.f += 4
        ctx.counters.b += 5 if g7 == g6 else 6
        return pairs

    return _wagner_platen_step(ctx, y, noise, quotients)


def _derivatives(ctx, yp, fY, bY, D):
    """ewp's Taylor terms from the pointwise derivative maps."""
    grid = ctx.grid
    f_y = eval_coeff(ctx.f_y, yp, grid)
    f_yy = eval_coeff(ctx.f_yy, yp, grid)
    b_y = eval_coeff(ctx.b_y, yp, grid)
    b_yy = eval_coeff(ctx.b_yy, yp, grid)
    counters = ctx.counters
    counters.f_y += 1
    counters.f_yy += 1
    counters.b_y += 1
    counters.b_yy += 1
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
    which lie and exe read dW alone.
    """
    h = ctx.h
    grid = ctx.grid
    yp = to_physical(y, grid)
    dW = noise[0]
    fY = eval_coeff(ctx.f, yp, grid)
    bY = eval_coeff(ctx.b, yp, grid)
    counters = ctx.counters
    counters.f += 1
    counters.b += 1
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
        counters.b += 1
        corr = (b_shift - bY) * noise[1] / (2.0 * sqh)
        return ctx.E_h * (y + to_spectral(h * fY + bY * dW + corr, grid))
    raise ValueError("unknown baseline kind %r" % (kind,))


class Scheme(NamedTuple):
    """A resolved selector: name (in SCHEME_NAMES), label (in error
    tables), step, called as step(ctx, y, row), and noise, called as
    noise(ctx, dW, Iw) on a chunk's (rows, n) noise-field tables, whose
    factors, zipped, give the rows step reads."""

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
    (ints or floats; neither bools nor strings are coerced).
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
        if not (isinstance(c, (list, tuple)) and len(c) == 7 and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in c)):
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


def solve(problem, scheme, path, ctx=None):
    """Run a stepper along a noise path; returns the terminal state, of
    the problem's N modes.

    Y_0 is the problem's (already projected) initial coefficient vector;
    only the current state is kept.  Any non-finite coefficient aborts
    with a DivergenceError naming the scheme, step and mode.  A prebuilt
    StepContext may be passed to amortize setup across solves with the
    same (problem, T, M); it must have been built for this problem and
    the path's step count M.

    The path is streamed in chunks of at most CHUNK_STEPS steps: each
    chunk's noise fields are filled into the context's tables
    (qwiener.noise_fields), the noise factors the stepper reads besides
    dW and Iw (dW^2, the theta weights, ...) are built from them, one
    elementwise operation per factor, and the stepper runs through the
    chunk's rows.  Shapes are checked here, once: the stepper gets the
    state and its step's noise row directly.  After each step one dot
    product y.y tests the state; only a non-finite result (a non-finite
    entry, or finite entries whose squares overflow) scans the entries
    for the first non-finite mode.
    """
    scheme = resolve_scheme(scheme)
    M = path.M
    if ctx is None:
        N = problem.N
        ctx = StepContext(problem, SineBasisGrid(N), LinearOperatorSpec(problem.kappa, N),
                          path.h * M, M)
    elif ctx.problem is not problem:
        raise ValueError("context was built for problem %r, solve was given %r"
                         % (ctx.problem, problem))
    if ctx.M != M:
        raise ValueError("context M=%d does not match path M=%d" % (ctx.M, M))
    if not math.isclose(path.h * M, ctx.T, rel_tol=1e-9):
        raise ValueError("context T=%g does not match path T=%g"
                         % (ctx.T, path.h * M))
    y = problem.initial_coeffs
    if y.shape != (ctx.grid.N,):
        raise DimensionError("initial state of shape %r, context of %d modes"
                             % (y.shape, ctx.grid.N))
    q = problem.qspec
    if q.K != path.K:
        raise DimensionError("path has %d noise modes, problem %d" % (path.K, q.K))
    for m0 in range(0, M, CHUNK_STEPS):
        rows = zip(*scheme.noise(ctx, *noise_fields(path, ctx.G, m0, ctx.tables)))
        for m, row in enumerate(rows, m0):
            y = scheme.step(ctx, y, row)
            if not math.isfinite(np.vdot(y, y)):
                bad = ~np.isfinite(y)
                if bad.any():
                    raise DivergenceError(scheme.label, m, int(np.nonzero(bad)[0][0]))
    return y
