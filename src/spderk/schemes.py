"""One-step integrators.

Contents:

* a generic explicit tableau engine (`erkm_step`) for exponential
  stochastic Runge-Kutta methods with two stage families and random
  weights theta;
* the ERKM1.5 six-stage tableau family (`erkm15_tableau`), parametrized
  by seven nonzero reals c_1..c_7;
* the same scheme in summed closed form (`erkm15_closed_form_step`) with
  generalized, possibly h-dependent coefficients c^_1..c^_8 -- used as an
  equivalence oracle for the engine (`hatted_coefficients` gives the mapping
  under which both are identical);
* the exponential Wagner-Platen stepper (`ewp_step`), the derivative
  based order-1.5 baseline;
* linear-implicit Euler, exponential Euler and derivative-free Milstein
  baselines (`baseline_step`);
* a driver (`solve`) running any stepper along a NoisePath to its
  terminal state.

The only random input of a step is the pair of noise fields (dW, Iw)
on the grid (qwiener.RandomWeights); every stepper reads them with the
context's h and gsq, and the tableau engine derives its theta weights
from them (`theta_fields`).  solve reads them row by row from tables of
at most qwiener.CHUNK_STEPS steps (qwiener.noise_fields), so it holds
the current state and one table, never the trajectory.

Every stepper advances Y via the split form

    Y+ = P_N e^{Ah/2} ( e^{Ah/2} Y + [assembled increment] )

(for the exponential schemes), evaluates f and b pointwise in physical
space, applies all operator actions diagonally in spectral space, and
counts each grid-wide f/b evaluation exactly once.
"""

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import DimensionError, DivergenceError
from .nemytskii import eval_coeff
from .qwiener import (
    CHUNK_STEPS,
    RandomWeights,
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
    "resolve_scheme",
    "solve",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("erkm15", "erkm-closed", "ewp", "exe", "lie", "dfmm")


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


def erkm15_tableau(c):
    """The six-stage ERKM1.5 tableau for coefficients c = (c_1..c_7).

    All coefficients must be nonzero.  The alpha^(3) stage-4/5 entries
    are 1/(4 c_3^2); the consistency of the second-difference drift term
    forces the square (its stage-1 entry is -1/(2 c_3^2), and the term
    must assemble to a clean second difference for every c_3).  The
    published table prints 1/(4 c_3) there, an erratum: that row sums
    to zero, as consistency requires, only at c_3 = 1.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (7,):
        raise DimensionError("c must have 7 entries")
    if np.any(c == 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("ERKM1.5 coefficients must be finite and nonzero")
    c1, c2, c3, c4, c5, c6, c7 = c
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
    """Everything a stepper needs for one step, owned by one worker.

    Built for M uniform steps over a time span T: the step size
    h = T / M is derived here and nowhere else, and solve() matches a
    context to a path by the integer step count.  With the default M=1,
    T is the step size itself.  Holds the problem, grid, diagonal
    operator data precomputed for h, gsq, the current state y (spectral)
    and the step's noise fields, plus the evaluation counters.  Reused
    across the steps of a trajectory via set_state().  tables is the
    (2, min(M, CHUNK_STEPS), n_nodes) buffer solve fills with noise
    fields chunk by chunk; contexts may share one buffer of at least
    that many rows.
    """

    def __init__(self, problem, grid, opspec, T, M=1, G=None, tables=None):
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
        self.gsq = gsq_field(problem.qspec, grid)
        self.G = noise_matrix(problem.qspec, grid) if G is None else G
        rows = min(self.M, CHUNK_STEPS)
        if tables is None:
            tables = np.empty((2, rows, grid.n_nodes))
        elif tables.ndim != 3 or tables.shape[0] != 2 or tables.shape[1] < rows \
                or tables.shape[2] != grid.n_nodes:
            raise DimensionError("tables must have shape (2, >=%d, %d), got %r"
                                 % (rows, grid.n_nodes, tables.shape))
        self.tables = tables
        self.E_h = diagonal_factor("semigroup", opspec, t=h)
        self.E_h2 = diagonal_factor("semigroup", opspec, t=h / 2.0)
        self.neg_lam = diagonal_factor("generator", opspec)
        self.resolvent = diagonal_factor("resolvent", opspec, h=h)
        self.phi1 = diagonal_factor("phi1", opspec, h=h)
        self.counters = EvalCounters()
        self.y = None
        self.weights = None
        self._y_phys = None

    def set_state(self, y, weights):
        """Load the state y (spectral) and the step's RandomWeights."""
        if weights.dW.shape != (self.grid.n_nodes,):
            raise DimensionError("weights do not match the grid")
        self.y = np.asarray(y, dtype=float)
        self.weights = weights
        self._y_phys = None

    @property
    def y_phys(self):
        if self._y_phys is None:
            self._y_phys = to_physical(self.y, self.grid)
        return self._y_phys

    def eval(self, which, v_phys, needed_by=None):
        out = eval_coeff(which, self.problem, v_phys, self.grid, needed_by=needed_by)
        setattr(self.counters, which, getattr(self.counters, which) + 1)
        return out

    def a_phys(self):
        """Physical field of A y."""
        return to_physical(self.neg_lam * self.y, self.grid)


def theta_fields(w, h, gsq):
    """The tableau engine's random weights, from one step's noise fields:

        theta0_1 = h                 theta1_1 = dW
        theta0_2 = Iw / h            theta1_2 = Iw / h
        theta0_3 = h * gsq           theta1_3 = gsq - dW^2 / h
        theta2_1 = Iw - (h/2) dW     theta1_4 = (Iw * gsq - dW^3 / 3) / h
                                     theta1_5 = dW * gsq - dW^3 / (3h)

    Returns (theta0, theta1, theta2_1) with theta0 = (theta0_1..theta0_3)
    and theta1 = (theta1_1..theta1_5).
    """
    dW, Iw = w.dW, w.Iw
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


def erkm_step(tab, ctx):
    """One step of the generic explicit tableau engine.

    Stages are materialized lazily, following the nonzero structure the
    tableau compiled once (ButcherTableau._compile).  With the ERKM1.5
    tableau this performs exactly 5 f- and 6 b-evaluations.  The theta
    weights come from theta_fields on the context's h and gsq.
    """
    h = ctx.h
    sqh = math.sqrt(h)
    y_phys = ctx.y_phys

    fvals = {}   # j -> f(., K_j^0)
    bvals = {}   # j -> b(., K_j^1)
    drift = {}   # j -> A K_j^0 + f(., K_j^0), physical

    def build_stage(terms):
        K = y_phys
        for j, a, b1, b2 in terms:
            if a != 0.0:
                K = K + a * h * drift[j]
            blend = b1 * h + b2 * sqh
            if blend != 0.0:
                K = K + blend * bvals[j]
        return K

    for i in range(tab.s):
        if tab.f_needed[i]:
            K0 = build_stage(tab.stage0_terms[i])
            fvals[i] = ctx.eval("f", K0)
            if tab.drift_needed[i]:
                spec = ctx.y if i == 0 else to_spectral(K0, ctx.grid)
                drift[i] = to_physical(ctx.neg_lam * spec, ctx.grid) + fvals[i]
        if tab.b_needed[i]:
            K1 = build_stage(tab.stage1_terms[i])
            bvals[i] = ctx.eval("b", K1)

    theta0, theta1, theta2_1 = theta_fields(ctx.weights, h, ctx.gsq)
    P = np.zeros(ctx.grid.n_nodes)
    for terms, theta in zip(tab.alpha_terms, theta0):
        if terms:
            P = P + sum(a * fvals[j] for j, a in terms) * theta
    for terms, theta in zip(tab.beta_terms, theta1):
        if terms:
            P = P + sum(b * bvals[j] for j, b in terms) * theta

    bracket = to_spectral(P, ctx.grid)
    if tab.gamma_terms:
        Gm = sum(g * bvals[j] for j, g in tab.gamma_terms)
        bracket = bracket + ctx.neg_lam * to_spectral(Gm * theta2_1, ctx.grid)
    return ctx.E_h2 * (ctx.E_h2 * ctx.y + bracket)


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


def erkm15_closed_form_step(chat, ctx):
    """One step of the summed scheme with generalized coefficients.

    chat = (c^_1 .. c^_8), all nonzero, possibly h-dependent.  This is an
    independent formulation used as an oracle for the tableau engine; the
    two coincide under hatted_coefficients(c, h).
    """
    chat = np.asarray(chat, dtype=float)
    if chat.shape != (8,):
        raise DimensionError("chat must have 8 entries")
    if np.any(chat == 0.0) or not np.all(np.isfinite(chat)):
        raise ValueError("generalized coefficients must be finite and nonzero")
    g1, g2, g3, g4, g5, g6, g7, g8 = chat
    h = ctx.h
    w = ctx.weights
    yp = ctx.y_phys
    gsq = ctx.gsq
    dW = w.dW
    Iw = w.Iw

    fY = ctx.eval("f", yp)
    bY = ctx.eval("b", yp)
    D = ctx.a_phys() + fY

    f_drift = ctx.eval("f", yp + g1 * D)
    f_diff = ctx.eval("f", yp + g2 * bY)
    f_plus = ctx.eval("f", yp + g3 * bY)
    f_minus = ctx.eval("f", yp - g3 * bY)
    b_drift = ctx.eval("b", yp + g4 * D)
    b_diff = ctx.eval("b", yp + g5 * bY)
    b_plus = ctx.eval("b", yp + g6 * bY)
    b_minus = ctx.eval("b", yp - g6 * bY)
    b_7 = b_plus if g7 == g6 else ctx.eval("b", yp + g7 * bY)
    b_nest = ctx.eval("b", yp + (g8 / g7) * (b_7 - bY))

    second_f = f_plus - 2.0 * fY + f_minus
    second_b = b_plus - 2.0 * bY + b_minus

    S = (
        h * fY
        + (h * h / (2.0 * g1)) * (f_drift - fY)
        + (1.0 / g2) * (f_diff - fY) * Iw
        + (h * h / (4.0 * g3**2)) * second_f * gsq
        + bY * dW
        + (1.0 / g4) * (b_drift - bY) * (h * dW - Iw)
        + (1.0 / (2.0 * g5)) * (b_diff - bY) * dW**2
        + (1.0 / (6.0 * g6**2)) * second_b * dW**3
        + (1.0 / (6.0 * g8)) * (b_nest - bY) * dW**3
        - (h / (2.0 * g5)) * (b_diff - bY) * gsq
        - (1.0 / (2.0 * g6**2)) * second_b * gsq * Iw
        - (h / (2.0 * g8)) * (b_nest - bY) * gsq * dW
    )
    bracket = to_spectral(S, ctx.grid) + ctx.neg_lam * to_spectral(
        bY * (Iw - (h / 2.0) * dW), ctx.grid
    )
    return ctx.E_h2 * (ctx.E_h2 * ctx.y + bracket)


def ewp_step(ctx):
    """One step of the exponential Wagner-Platen scheme.

    Needs the pointwise derivative maps f_y, f_yy, b_y, b_yy; at state
    dimension 1 every operator derivative collapses to a pointwise
    product, and the step costs 6 distinct function/derivative
    evaluations.
    """
    h = ctx.h
    w = ctx.weights
    yp = ctx.y_phys
    gsq = ctx.gsq
    dW = w.dW
    Iw = w.Iw

    fY = ctx.eval("f", yp, needed_by="ewp")
    f_y = ctx.eval("f_y", yp, needed_by="ewp")
    f_yy = ctx.eval("f_yy", yp, needed_by="ewp")
    bY = ctx.eval("b", yp, needed_by="ewp")
    b_y = ctx.eval("b_y", yp, needed_by="ewp")
    b_yy = ctx.eval("b_yy", yp, needed_by="ewp")
    D = ctx.a_phys() + fY
    bY2 = bY**2
    b_y2 = b_y**2
    dW3 = dW**3

    S = (
        h * fY
        + 0.5 * h * h * f_y * D
        + f_y * bY * Iw
        + 0.25 * h * h * f_yy * bY2 * gsq
        + bY * dW
        + b_y * D * (h * dW - Iw)
        + 0.5 * b_y * bY * dW**2
        + (1.0 / 6.0) * b_yy * bY2 * dW3
        + (1.0 / 6.0) * b_y2 * bY * dW3
        - 0.5 * h * b_y * bY * gsq
        - 0.5 * b_yy * bY2 * gsq * Iw
        - 0.5 * h * b_y2 * bY * gsq * dW
    )
    bracket = to_spectral(S, ctx.grid) + ctx.neg_lam * to_spectral(
        bY * (Iw - (h / 2.0) * dW), ctx.grid
    )
    return ctx.E_h2 * (ctx.E_h2 * ctx.y + bracket)


def baseline_step(kind, ctx):
    """Euler/Milstein-type baselines.

    lie:  Y+ = (I - hA)^(-1) (Y + h f(Y) + b(Y) dW)
    exe:  Y+ = e^{Ah} Y + h phi1(hA) f(Y) + e^{Ah}(b(Y) dW)
    dfmm: Y+ = e^{Ah}(Y + h f(Y) + b(Y) dW
               + (b(Y + sqrt(h) b(Y)) - b(Y)) (dW^2 - h sum g_j^2) / (2 sqrt(h)))

    dfmm needs commutative noise, which Nemytskii noise always is (see
    spderk.nemytskii).
    """
    h = ctx.h
    w = ctx.weights
    yp = ctx.y_phys
    dW = w.dW
    fY = ctx.eval("f", yp)
    bY = ctx.eval("b", yp)
    if kind == "lie":
        incr = to_spectral(h * fY + bY * dW, ctx.grid)
        return ctx.resolvent * (ctx.y + incr)
    if kind == "exe":
        return (
            ctx.E_h * ctx.y
            + h * ctx.phi1 * to_spectral(fY, ctx.grid)
            + ctx.E_h * to_spectral(bY * dW, ctx.grid)
        )
    if kind == "dfmm":
        sqh = math.sqrt(h)
        b_shift = ctx.eval("b", yp + sqh * bY)
        corr = (b_shift - bY) * (dW**2 - h * ctx.gsq) / (2.0 * sqh)
        return ctx.E_h * (ctx.y + to_spectral(h * fY + bY * dW + corr, ctx.grid))
    raise ValueError("unknown baseline kind %r" % (kind,))


def resolve_scheme(scheme):
    """Normalize a scheme selector to (label, step_function).

    Accepts the two forms a JSON config can hold: a plain name from
    SCHEME_NAMES, or a dict with a 'name' key, an optional 'label' and
    the scheme's parameters.  Parameters: 'c' (7 coefficients) for
    erkm15; 'c' with 7 entries (mapped per step size) or 8 entries
    (fixed c^) for erkm-closed.
    """
    params = {}
    if isinstance(scheme, str):
        name = scheme
    elif isinstance(scheme, dict):
        params = dict(scheme)
        name = params.pop("name")
    else:
        raise ValueError("unrecognized scheme selector %r" % (scheme,))
    label = params.pop("label", name)

    if name == "erkm15":
        c = np.asarray(params.pop("c", np.ones(7)), dtype=float)
        tab = erkm15_tableau(c)
        fn = partial(erkm_step, tab)
    elif name == "erkm-closed":
        c = np.asarray(params.pop("c", np.ones(7)), dtype=float)
        if c.shape == (8,):
            fn = partial(erkm15_closed_form_step, c)
        elif c.shape == (7,):
            fn = lambda ctx: erkm15_closed_form_step(hatted_coefficients(c, ctx.h), ctx)
        else:
            raise DimensionError("erkm-closed takes 7 (mapped) or 8 (fixed) coefficients")
    elif name == "ewp":
        fn = ewp_step
    elif name in ("exe", "lie", "dfmm"):
        fn = partial(baseline_step, name)
    else:
        raise ValueError("unknown scheme %r (have: %s)" % (name, ", ".join(SCHEME_NAMES)))
    if params:
        raise ValueError("unused scheme parameters: %s" % ", ".join(sorted(params)))
    return label, fn


def solve(problem, scheme, path, N, ctx=None, fields=None):
    """Run a stepper along a noise path; returns the terminal (N,) state.

    Y_0 is the problem's (already projected) initial coefficient vector;
    only the current state is kept.  Any non-finite coefficient aborts
    with a DivergenceError naming the scheme, step and mode.  A prebuilt
    StepContext may be passed to amortize setup across solves with the
    same (problem, N, T, M); it must have the path's step count M.

    Each step's noise fields are read from tables of at most CHUNK_STEPS
    steps, filled chunk by chunk into the context's buffer by
    qwiener.noise_fields.  fields, the (dW, Iw) tables of all M steps of
    a path with M <= CHUNK_STEPS as noise_fields returns them, may be
    passed instead, so that several schemes share one table.
    """
    label, stepfn = resolve_scheme(scheme)
    M = path.M
    if ctx is None:
        grid = SineBasisGrid(N)
        opspec = LinearOperatorSpec(problem.kappa, N)
        ctx = StepContext(problem, grid, opspec, path.h * M, M)
    if ctx.M != M:
        raise ValueError("context M=%d does not match path M=%d" % (ctx.M, M))
    if not math.isclose(path.h * M, ctx.T, rel_tol=1e-9):
        raise ValueError("context T=%g does not match path T=%g"
                         % (ctx.T, path.h * M))
    if problem.N != N:
        raise DimensionError("problem built for N=%d, solve called with N=%d"
                             % (problem.N, N))
    q = problem.qspec
    if q.K != path.K:
        raise DimensionError("path has %d noise modes, problem %d" % (path.K, q.K))
    if fields is not None:
        dW, Iw = fields
        if M > CHUNK_STEPS or dW.shape != (M, ctx.grid.n_nodes) or Iw.shape != dW.shape:
            raise DimensionError("noise field tables must have shape (%d, %d),"
                                 " at most %d steps" % (M, ctx.grid.n_nodes, CHUNK_STEPS))
    y = problem.initial_coeffs
    for m0 in range(0, M, CHUNK_STEPS):
        if fields is None:
            dW, Iw = noise_fields(path, ctx.G, m0, out=ctx.tables)
        for i in range(dW.shape[0]):
            ctx.set_state(y, RandomWeights(dW[i], Iw[i]))
            y = stepfn(ctx)
            bad = ~np.isfinite(y)
            if bad.any():
                raise DivergenceError(label, m0 + i, int(np.nonzero(bad)[0][0]))
    return y
