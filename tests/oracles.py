"""Independent formulations the tests compare the library against.

None of these is part of spderk: each restates a quantity the library
computes another way, so a test that checks one against the other sees
a fault in either.  Tests import this module as `import oracles`.

* erkm15_closed_form_step -- the ERKM1.5 step in summed closed form:
  ewp's order-1.5 sum with a difference quotient for every derivative
  term, on generalized coefficients c^_1..c^_8; hatted_coefficients maps
  the tableau's c_1..c_7 to the c^ under which it equals erkm_step;
* apply_diagonal, h_r_norm -- a diagonal function of A applied to a
  spectral field, and the interpolation-space norms, both from the
  eigenvalues lambda_k of -A;
* joint_pair, sample_step, gauss_hermite_pairs -- the triangular
  factor of one step's joint (dB, I) covariance written out, one step's
  (dB, I) drawn from a generator with it, and the 10 x 10 Gauss-Hermite
  rule it maps to (dB, I) nodes for scalar noise;
* counting, spent -- evaluation counts taken by the problem's own maps,
  wrapped before a context is built, and A7_EVALS, the per-step cost
  model (acceptance criterion A7) they are checked against;
* noise_row -- a scheme's noise row for one step's fields.
"""

import math
from dataclasses import replace

import numpy as np

from spderk.nemytskii import eval_coeff
from spderk.schemes import resolve_scheme
from spderk.spectral import to_physical, to_spectral

MAPS = ("f", "b", "f_y", "f_yy", "b_y", "b_yy")

# the A7 cost model: (f, b, f_y, f_yy, b_y, b_yy) evaluations per step
A7_EVALS = dict(erkm15=(5, 6, 0, 0, 0, 0), ewp=(1, 1, 1, 1, 1, 1), dfmm=(1, 2, 0, 0, 0, 0),
                lie=(1, 1, 0, 0, 0, 0), exe=(1, 1, 0, 0, 0, 0))


def hatted_coefficients(c, h):
    """Map ERKM1.5 coefficients c_1..c_7 to the generalized c^_1..c^_8
    under which the closed-form step is identical to erkm_step."""
    c = np.asarray(c, dtype=float)
    sqh = math.sqrt(h)
    # c_6 gives both c^_6 and c^_7
    return np.array([h, h, sqh, h, h, sqh, sqh, h]) * c[[0, 1, 2, 3, 4, 5, 5, 6]]


def erkm15_closed_form_step(chat, ctx, y, noise):
    """One step of the summed scheme with generalized coefficients chat =
    (c^_1 .. c^_8), all nonzero, from the state y; noise is a row of
    ewp's noise factors (resolve_scheme("ewp").noise).

    Evaluates f, b and D = A y + f(y) at y, replaces ewp's seven
    derivative products f'D, f'b, f''b^2, b'D, b'b, b''b^2 and b'^2 b by
    difference quotients and sums the 12 terms left to right: 5 f- and
    6 b-evaluations, 7 b-evaluations when c^_7 != c^_6.
    """
    g1, g2, g3, g4, g5, g6, g7, g8 = chat
    dW, Iw, dW2, dW3, hdW_Iw, Iw_hdW = noise
    h, grid, gsq = ctx.h, ctx.grid, ctx.gsq
    yp = to_physical(y, grid)

    fY = eval_coeff(ctx, "f", yp)
    bY = eval_coeff(ctx, "b", yp)
    D = to_physical(ctx.neg_lam * y, grid) + fY
    f_plus = eval_coeff(ctx, "f", yp + g3 * bY)
    f_minus = eval_coeff(ctx, "f", yp - g3 * bY)
    b_plus = eval_coeff(ctx, "b", yp + g6 * bY)
    b_minus = eval_coeff(ctx, "b", yp - g6 * bY)
    b_7 = b_plus if g7 == g6 else eval_coeff(ctx, "b", yp + g7 * bY)
    fD = (eval_coeff(ctx, "f", yp + g1 * D) - fY) / g1
    fb = (eval_coeff(ctx, "f", yp + g2 * bY) - fY) / g2
    fbb = (f_plus - 2.0 * fY + f_minus) / g3**2
    bD = (eval_coeff(ctx, "b", yp + g4 * D) - bY) / g4
    bb = (eval_coeff(ctx, "b", yp + g5 * bY) - bY) / g5
    bbb = (b_plus - 2.0 * bY + b_minus) / g6**2
    b2b = (eval_coeff(ctx, "b", yp + (g8 / g7) * (b_7 - bY)) - bY) / g8

    S = (
        h * fY
        + 0.5 * h * h * fD
        + fb * Iw
        + 0.25 * h * h * fbb * gsq
        + bY * dW
        + bD * hdW_Iw
        + 0.5 * bb * dW2
        + (1.0 / 6.0) * bbb * dW3
        + (1.0 / 6.0) * b2b * dW3
        - 0.5 * h * bb * gsq
        - 0.5 * bbb * gsq * Iw
        - 0.5 * h * b2b * gsq * dW
    )
    bracket = to_spectral(S, grid) + ctx.neg_lam * to_spectral(bY * Iw_hdW, grid)
    return ctx.E_h2 * (ctx.E_h2 * y + bracket)


def apply_diagonal(kind, lam, field, t=None, h=None):
    """A diagonal function of A, given by the eigenvalues lam of -A,
    applied to a spectral field.  The factors, each with StepContext's
    order of operations, so that the two agree bit for bit:

        semigroup        exp(-lambda_k t)
        generator        -lambda_k
        resolvent        (1 + h lambda_k)^(-1)      i.e. (I - hA)^(-1)
        phi1             (1 - exp(-h lambda_k)) / (h lambda_k)
    """
    if kind == "semigroup":
        factor = np.exp(-lam * t)
    elif kind == "generator":
        factor = -lam
    elif kind == "resolvent":
        factor = 1.0 / (1.0 + h * lam)
    elif kind == "phi1":
        z = h * lam
        factor = -np.expm1(-z) / z
    else:
        raise ValueError("unknown diagonal kind %r" % (kind,))
    return factor * np.asarray(field, dtype=float)


def h_r_norm(lam, r, field):
    """Interpolation-space norm ||(-A)^r v|| = (sum lambda_k^(2r) a_k^2)^(1/2).

    r = 0 reduces to the H norm, which by Parseval is the plain l2 norm
    of the coefficients (identical arithmetic, not just close).
    """
    w = lam ** float(r)
    return float(np.sqrt(np.sum((w * np.asarray(field, dtype=float)) ** 2)))


def joint_pair(z1, z2, h):
    """(dB, I) of a step of h from independent standard normals z1, z2,
    by the triangular factor of their covariance [[h, h^2/2], [h^2/2, h^3/3]]:

        dB = sqrt(h) z1,   I = h^1.5/2 z1 + h^1.5/(2 sqrt(3)) z2.
    """
    root = h**1.5
    return np.sqrt(h) * z1, (root / 2.0) * z1 + (root / (2.0 * np.sqrt(3.0))) * z2


def sample_step(rng, q, h):
    """One step's per-mode (dB, I), two (K,) arrays, from the (K, 2)
    normals z the generator rng draws next (joint_pair)."""
    z = rng.standard_normal((q.K, 2))
    return joint_pair(z[:, 0], z[:, 1], h)


def gauss_hermite_pairs(h):
    """(dB, I, w): the 100 nodes of the 10 x 10 Gauss-Hermite rule in
    (z1, z2), mapped to one step's scalar (dB, I) by joint_pair, and
    their probability weights.  E p(dB, I) = w @ p(dB, I) exactly for a
    polynomial p of degree at most 19 in each normal."""
    z, w = np.polynomial.hermite_e.hermegauss(10)
    w = w / w.sum()
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    return (*joint_pair(z1.ravel(), z2.ravel(), h), np.outer(w, w).ravel())


def counting(problem):
    """(problem with each of its maps wrapped, calls): calls is a dict
    from f, b, f_y, f_yy, b_y and b_yy, in that order, to the number of
    calls of that map so far.  A map the problem leaves None stays None."""
    calls = dict.fromkeys(MAPS, 0)

    def counted(which, fn):
        def call(x, v):
            calls[which] += 1
            return fn(x, v)
        return call

    wrapped = {which: counted(which, getattr(problem, which)) for which in MAPS
               if getattr(problem, which) is not None}
    return replace(problem, **wrapped), calls


def spent(calls):
    """The counts of calls as a tuple in MAPS order, which then restart
    at 0: the evaluations made since the last call."""
    counts = tuple(calls.values())
    calls.update(dict.fromkeys(MAPS, 0))
    return counts


def noise_row(scheme, ctx, dW, Iw):
    """The scheme's noise row for one step's fields."""
    return resolve_scheme(scheme).noise(ctx, dW, Iw)
