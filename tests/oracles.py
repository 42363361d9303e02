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
* sample_step -- one step's (dB, I) drawn from a generator, with the
  triangular factor of the joint covariance written out.
"""

import math

import numpy as np

from spderk.nemytskii import eval_coeff
from spderk.spectral import to_physical, to_spectral


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


def sample_step(rng, q, h):
    """One step's per-mode (dB, I), two (K,) arrays, from the (K, 2)
    normals z the generator rng draws next:

        dB = sqrt(h) z1,   I = h^1.5/2 z1 + h^1.5/(2 sqrt(3)) z2.
    """
    z = rng.standard_normal((q.K, 2))
    root = h**1.5
    return np.sqrt(h) * z[:, 0], (root / 2.0) * z[:, 0] + (root / (2.0 * np.sqrt(3.0))) * z[:, 1]
