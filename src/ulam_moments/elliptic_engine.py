"""Closed-form evaluation of alpha(w, x) through quartic roots and
complete elliptic integrals.

The contour mean of 1 / (g(xi)/xi - w) deforms onto the branch cut of the
quartic Q1, picking up one residue on the way:

    alpha(w, x) = A1 + A2,
    A1 = residue at the unique root a2 of g(xi) = w*xi inside the unit disk,
    A2 = (1/pi) * integral over (c1, c2) of sqrt(-Q1(r)) / (-Q2(r)) dr,

with Q2 = Q1 - w^2 xi^2. Both quartics are self-inversive, so their roots
come in reciprocal pairs. One private _geometry checks the domain and forms
both root sets and every short distance between them, each without
cancellation; every route below, q1_roots and q2_roots read it.

A1 has two evaluators: a1_residue, the log-derivative sum of the branch
data at a2, and a1_closed, the root product 2 w a2 / Q2'(a2).

A2 has two independent evaluators:

- a2_pi_combination (production, behind alpha_closed): the symmetric
  substitution s = (z-1)/(z+1) turns the cut integral into Legendre normal
  form of modulus k = 4x, a combination of K(k) and two Pi(n, k) whose K
  terms cancel, so two R_J remain, in O(1) with no quadrature;
- a2_quadrature (reference): Gauss-Legendre on the interval, endpoint
  singularities absorbed, each half sinh-mapped from its end onto one fixed
  pair of rules (48 and 64 nodes) that must agree to 1e-12.

a2_checkpoint is a2_quadrature under the name the benchmark's checkpoint
op calls.

The complete Carlson integrals R_F(0, y, z) (which gives K) and
R_J(0, y, z, p) are evaluated here on the arithmetic-geometric mean, so
that importing the package loads no scipy.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import asinh, isnan, pi, sqrt
from sys import float_info

import numpy as np

from .genfun import _curve_gap, principal_sqrt

# Roots c2 and d1 collide as x -> 1/4, where the cut meets its mirror and
# the modulus k = 4x of the v-form reaches 1, so the whole module stays 4%
# inside the open domain.
X_MAX = 0.24


def q1_eval(x: float, xi: complex) -> complex:
    """Q1(x, xi) = (xi - x(xi^2 + 1))^2 - 4 x^2 xi^2."""
    return (xi - x * (xi * xi + 1)) ** 2 - 4 * x * x * xi * xi


def q2_eval(x: float, w: float, xi: complex) -> complex:
    """Q2 = Q1 - w^2 xi^2."""
    return q1_eval(x, xi) - w * w * xi * xi


# The roots c1 < c2 < 1 < d1 < d2 of Q1 and a1 < a2 < 1 < b1 < b2 of Q2, and
# every distance between them that a route reads: delta = c2 - c1,
# g1 = c1 - a1, g2 = a2 - c2 and gab = b1 - a2.
_Geometry = namedtuple("_Geometry", "c1 c2 d1 d2 a1 a2 b1 b2 delta g1 g2 gab")


def _geometry(x: float, w: float) -> _Geometry:
    """The root geometry at (x, w), after the check of the domain of alpha
    and of every A1 and A2 route: ValueError unless 0 < x <= X_MAX, w >= 0
    and 4x + w^2 < 1, and the ArithmeticError of _check_w_floor where
    2x (s + 2x), below, leaves the float range at w > 0.

    The outer roots d1, d2, b2 come from their additive closed forms and
    the inner ones as exact reciprocals (c1 d2 = c2 d1 = a1 b2 = a2 b1 = 1),
    so the inversive products hold to the last bit. Every distance is a sum
    of positive parts. With s = sqrt(4x^2 + w^2), t = s + 2x and
    eps = 1 - 4x - w^2 > 0 to a few ulps from genfun._curve_gap:

        s - 2x = w^2 / t,
        lo = 1 - s - 2x = eps / (1 - 2x + s),
        p = sqrt(1 + w^2 - 2s) = sqrt(lo (lo + 4x)),
        b1 - 1 = (lo + p) / (2x),  b1 - a2 = (b1 - 1)(b1 + 1) / b1,

    and the differences of square roots in d1 - b1 and b2 - d2 are
    rationalized. So b1 and a2 keep their digits as w -> 1 at small x, and
    the O(w^2) gaps at small w. At w = 0 the Q2 roots are the Q1 roots and
    both w^2 gaps are 0."""
    if not 0 < x <= X_MAX:
        raise ValueError(f"x must lie in (0, {X_MAX}], got x={x}")
    if not (w >= 0 and 4 * x + w * w < 1):
        raise ValueError(f"need w >= 0 and 4x + w^2 < 1, got x={x}, w={w}")
    r1, r2 = sqrt(1 - 4 * x), sqrt(1 + 4 * x)
    d1 = (1 - 2 * x + r1) / (2 * x)
    d2 = (1 + 2 * x + r2) / (2 * x)
    c1, c2 = 1 / d2, 1 / d1
    dd = 2 + 4 / (r2 + r1)  # d2 - d1
    w2 = w * w
    s = sqrt(4 * x * x + w2)
    t = s + 2 * x
    lo = _curve_gap(x, w) / (1 - 2 * x + s)
    p = sqrt(lo * (lo + 4 * x))
    q = sqrt(1 + w2 + 2 * s)
    bm1 = (lo + p) / (2 * x)
    b1, b2 = 1 + bm1, (1 + s + q) / (2 * x)
    a1, a2 = 1 / b2, 1 / b1
    if w == 0:  # the Q1 roots, bit for bit, and no gaps (2x t can underflow)
        a1, a2, b1, b2 = c1, c2, d1, d2
        gb1 = gb2 = 0.0
    else:
        xt = 2 * x * t
        _check_w_floor(x, w, xt)  # it underflows to 0 at tiny x w
        gb1 = w2 * (1 + (2 - t) / (r1 + p)) / xt  # d1 - b1
        gb2 = w2 * (1 / t + (1 + 2 / t) / (q + r2)) / (2 * x)  # b2 - d2
    return _Geometry(c1, c2, d1, d2, a1, a2, b1, b2, c1 * c2 * dd,
                     gb2 * c1 * a1, gb1 * c2 * a2, bm1 * (2 + bm1) / b1)


def q1_roots(x: float) -> tuple[float, float, float, float]:
    """The ordered roots (c1, c2, d1, d2) of Q1, with c1*d2 = c2*d1 = 1."""
    geo = _geometry(x, 0.0)
    return geo.c1, geo.c2, geo.d1, geo.d2


def q2_roots(x: float, w: float) -> tuple[float, float, float, float]:
    """The ordered roots (a1, a2, b1, b2) of Q2, with a1*b2 = a2*b1 = 1, on
    the open domain 4x + w^2 < 1."""
    geo = _geometry(x, w)
    return geo.a1, geo.a2, geo.b1, geo.b2


def _check_w_floor(x: float, w: float, *shrinking: float) -> None:
    """ArithmeticError unless w^2 and the distances of _geometry that a
    route divides by are all at least 2^-1000.

    Floats keep 53 bits from 2^-1022 up and overflow at 2^1024. The v-form
    of a2_pi_combination reads the distances u1^2 - v_rho and u2^2 - v_rho,
    which are g1 and delta + g1 at a1, delta + g2 and g2 at a2, each times
    a factor within 2^+-4 of 1. So its R_J argument p = du2/du1 is about
    1 + delta/g1 at a1 and g2/(delta + g2) at a2, and with w^2, g1, g2 and
    delta (all below 1) at least 2^-1000 it stays within 2^+-1005: the floor
    leaves R_J 2^17 on both sides. At small w, g1 is w^2/8 to w^2/4 and g2
    at least w^2/4, so the floor sets in at w^2 between 2^-1000 and 2^-997.
    The check of delta refuses x below about 2^-501. Without the floor,
    a1_residue returned wrong values from w = 1e-154, the v-form lost digits
    from w = 1e-155 (1.5e-12 relative at 1e-156), and both divided by zero
    once w^2 underflowed, below w = 1e-162.

    a1_closed checks x^2 (a2 - a1), the first product of its denominator,
    about w x^3 / (1 - w) where x << w: it refuses x below about
    2^-329 at w = 1e-5 and 2^-337 at w = 0.999, where the product left the
    normal range (a1_closed(2^-350, 1e-5) was 0.13% off, alpha_closed(0.999,
    2^-360) returned 976.1 for 1000). a1_residue and a2_quadrature check
    delta as the v-form does (a1_residue returned NaN at x = 2^-1040,
    a2_quadrature raised ZeroDivisionError at x = 2^-700). _geometry checks
    2x t, the divisor of d1 - b1, which underflows to 0 at tiny x w."""
    if min(shrinking) < 2.0**-1000:
        raise ArithmeticError(f"w or x too small for float range at (x={x}, w={w})")


def g_tilde(x: float, xi: complex) -> complex:
    """The algebraic square root of Q1 fixed by its branch data:

        g(xi) = x * sqrt(xi - c1) * sqrt(xi - c2) * sqrt(d1 - xi) * sqrt(d2 - xi)

    with each factor taken as the principal square root (negative reals to
    +i*sqrt). Real and positive between the cuts, and on the cut (c1, c2)
    the value equals the upper-side limit +i*sqrt(-Q1)."""
    c1, c2, d1, d2 = q1_roots(x)
    return (x * principal_sqrt(xi - c1) * principal_sqrt(xi - c2)
            * principal_sqrt(d1 - xi) * principal_sqrt(d2 - xi))


def a1_residue(x: float, w: float) -> float:
    """A1 as the residue of 1/(g(xi) - w*xi) at xi = a2.

    g(a1) = -w*a1, so a1 is not a pole of the deformed integrand; the
    residue term is the single contribution 1/(g'(a2) - w), with g'/g the
    sum of half poles (1/(xi-c1) + 1/(xi-c2) - 1/(d1-xi) - 1/(d2-xi)) / 2.
    The O(w^2) distance a2 - c2 = g2 comes from _geometry, and
    a2 - c1 = delta + g2: the naive differences keep no digits near w = 1e-8."""
    geo = _geometry(x, w)
    if w == 0:
        return 0.0
    a2, g2 = geo.a2, geo.g2
    _check_w_floor(x, w, w * w, g2, geo.delta)
    half_poles = 1 / (geo.delta + g2) + 1 / g2 - 1 / (geo.d1 - a2) - 1 / (geo.d2 - a2)
    return 1 / (w * a2 * half_poles / 2 - w)  # g(a2) = +w*a2


def a1_closed(x: float, w: float) -> float:
    """A1 in explicit root-product form: 2*w*a2 / Q2'(a2). Both inner roots
    are O(x), so a2 - a1 = g1 + delta + g2 comes from _geometry: the naive
    difference loses a factor of about 1/x. So does b1 - a2 as w -> 1."""
    return _a1(x, w, _geometry(x, w))


def _a1(x: float, w: float, geo: _Geometry) -> float:
    """a1_closed on the geometry geo of (x, w)."""
    if w == 0:
        return 0.0
    xxa = x * x * (geo.g1 + geo.delta + geo.g2)  # x^2 (a2 - a1)
    _check_w_floor(x, w, xxa)
    return 2 * w * geo.a2 / (xxa * geo.gab * (geo.b2 - geo.a2))


# Two fixed Gauss-Legendre rule sizes; their disagreement is the error check.
_GL_SIZES = (48, 64)
_GL_TOL = 1e-12
_EPS_MIN = 1e-14


def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on (0, 1), nodes and weights.

    Each root x = cos(theta) of P_n with theta <= pi/2 takes four Newton
    steps in theta from pi (4k - 1) / (4n + 2) (N. Hale and A. Townsend,
    SIAM J. Sci. Comput. 35, 2013). P_n runs the three-term recurrence on
    the differences P_k - P_{k-1}, in u = 1 - x = 2 sin^2(theta/2), so no
    digit of u is lost near x = 1. The weight 2 / (sin^2 theta P_n'(x)^2),
    halved, serves the node sin^2(theta/2) and its mirror cos^2(theta/2).
    Against 40-digit roots the nodes are within 2e-16 and the weights
    within 2e-15, relative; numpy's leggauss end weights are 1.3e-12 off."""
    m = (n + 1) // 2
    theta = pi * (4 * np.arange(1, m + 1) - 1) / (4 * n + 2)
    for _ in range(4):
        u = 2 * np.sin(theta / 2) ** 2
        prev, p, dif = 1.0, 1 - u, -u  # P_0, P_1 and P_1 - P_0
        for k in range(1, n):
            dif = (k * dif - (2 * k + 1) * u * p) / (k + 1)
            prev, p = p, p + dif
        inv = np.sin(theta) / (n * (prev - (1 - u) * p))  # 1 / (sin(theta) P_n'(x))
        theta = theta + p * inv
    keep = m - n % 2  # an odd rule's middle node theta = pi/2 is its own mirror
    nodes, wts = np.sin(theta / 2) ** 2, inv * inv
    return np.concatenate((nodes, 1 - nodes[:keep])), np.concatenate((wts, wts[:keep]))


@lru_cache(maxsize=None)
def _gl_pair(sizes: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of both rules on (0, 1), concatenated, and a weight matrix
    whose column i holds rule i's weights, zeros elsewhere, once per half."""
    (t0, w0), (t1, w1) = (_gl_rule(n) for n in sizes)
    wts = np.block([[w0, np.zeros_like(w1)], [np.zeros_like(w0), w1]]).T
    return np.concatenate((t0, t1)), np.vstack((wts, wts))


# (sin^2 theta, cos^2 theta) = (s2, 1 - s2) on the lower half, (1 - s2, s2) on the upper
_HALF_OFFSET = np.array([[[0.0], [1.0]], [[1.0], [0.0]]])
_HALF_SIGN = 1 - 2 * _HALF_OFFSET


def a2_quadrature(x: float, w: float) -> float:
    """Reference evaluator: A2 = (1/pi) * int_{c1}^{c2} sqrt(-Q1)/(-Q2) dr.

    The substitution r = c1 + delta sin^2(theta), delta = c2 - c1, absorbs
    both inverse square-root endpoint singularities:

        A2 = (2 / (pi x)) int_0^{pi/2} st2 ct2 / ((st2 + e1^2)(ct2 + e2^2))
             * sqrt((d1 - r)(d2 - r)) / ((b1 - r)(b2 - r)) dtheta,

    with (st2, ct2) = (sin^2 theta, cos^2 theta). The poles a1 and a2 sit
    O(w^2) beyond the cut ends, at theta-distance e1 = sqrt((c1 - a1)/delta)
    and e2 = sqrt((a2 - c2)/delta), where they put peaks of that width. Each
    half of (0, pi/2) is mapped from its end by theta = e sinh(v) (P. R.
    Johnston and D. Elliott, Int. J. Numer. Meth. Engng 62, 2005), which
    spreads the peak over O(1) in v, so one fixed rule pair serves every e.
    e = 0 (w = 0, no pole) maps with 1; e floors at _EPS_MIN, as narrower
    peaks hold a relative mass O(e) below the tolerance, and w^2 has no
    floor. delta^2 is divided out of the pole factors, so every factor
    stays in float range down to delta = 2^-1000 (x about 2^-501), the
    floor of _check_w_floor, and A2, about 2 x^2 / w^2 there, keeps its
    digits. ArithmeticError below the floor, and unless both rules agree
    to _GL_TOL (1 + A2)."""
    geo = _geometry(x, w)
    _check_w_floor(x, w, geo.delta)
    c1, d1, d2, b1, b2, delta = geo.c1, geo.d1, geo.d2, geo.b1, geo.b2, geo.delta
    e1sq, e2sq = geo.g1 / delta, geo.g2 / delta
    t, wts = _gl_pair(_GL_SIZES)
    eps = [max(sqrt(e), _EPS_MIN) if e > 0 else 1.0 for e in (e1sq, e2sq)]
    eps, top = np.array([eps, [asinh(pi / (4 * e)) for e in eps]])[:, :, None]
    arg = top * t
    # theta on the lower half, pi/2 - theta on the upper: the distance to the
    # nearer end, at most pi/4, so sin^2 keeps its digits and 1 - s2 loses none
    st2, ct2 = _HALF_OFFSET + _HALF_SIGN * np.sin(eps * np.sinh(arg)) ** 2
    r = c1 + delta * st2
    # O(1) before the pole factors, which are as small as A2 itself
    f = np.sqrt((d1 - r) * (d2 - r)) / ((b1 - r) * (b2 - r)) * (2 / (pi * x))
    f *= st2 / (st2 + e1sq) * (ct2 / (ct2 + e2sq)) * eps * top * np.cosh(arg)
    coarse, fine = f.reshape(-1) @ wts
    gap = abs(fine - coarse)
    if not gap <= _GL_TOL * (1 + abs(fine)):
        raise ArithmeticError(f"A2 quadrature did not converge at (x={x}, w={w}): "
                              f"rules of {_GL_SIZES} nodes differ by {gap:.2e}")
    return float(fine)


# The name under which the benchmark's `checkpoint` op times the quadrature.
a2_checkpoint = a2_quadrature


def _agm(a: float, g: float) -> float:
    """Arithmetic-geometric mean M(a, g) of two positive numbers.

    The iteration contracts quadratically; the loop is capped because the
    |a - g| gap can stall within a few ulps of the fixed point."""
    for _ in range(60):
        if abs(a - g) <= 4e-16 * a:
            break
        a, g = (a + g) / 2, sqrt(a * g)
    return a


def carlson_rf0(y: float, z: float) -> float:
    """Complete R_F(0, y, z) = pi / (2 M(sqrt(y), sqrt(z))), the AGM form
    of K."""
    if not (y > 0 and z > 0):
        raise ValueError(f"carlson_rf0 needs y, z > 0, got y={y}, z={z}")
    return pi / (2 * _agm(sqrt(y), sqrt(z)))


def carlson_rj0(y: float, z: float, p: float) -> float:
    """Complete R_J(0, y, z, p) by the AGM Q-sum of DLMF 19.8.6-7:

        R_J(0, g0^2, a0^2, p0^2) = 3 pi / (4 M(a0, g0) p0^2) * sum_n Q_n,
        p_{n+1} = (p_n^2 + a_n g_n) / (2 p_n),
        eps_n = (p_n^2 - a_n g_n) / (p_n^2 + a_n g_n),
        Q_0 = 1, Q_{n+1} = Q_n eps_n / 2.

    Summed as written, the Q_n alternate in sign when p << y, z and the
    sum loses a factor of about sqrt(z / p) in accuracy. Nested backwards
    instead, the tails T_n = sum_{m>=n} Q_m / Q_n and U_n = 2 - T_n obey

        (T_n, U_n) = ((1 + eps_n) T_{n+1} + U_{n+1}, (1 - eps_n) T_{n+1} + U_{n+1}) / 2

    with nonnegative coefficients, so the first row of the product of
    these 2 x 2 steps, accumulated forwards, gives T_0 = sum_n Q_n free of
    cancellation for every normal p > 0."""
    if not (y > 0 and z > 0 and p > 0):
        raise ValueError(f"carlson_rj0 needs y, z, p > 0, got y={y}, z={z}, p={p}")
    if p < float_info.min:
        raise ArithmeticError(f"carlson_rj0 needs a normal float p, got p={p}")
    a, g, q = sqrt(y), sqrt(z), sqrt(p)
    r0, r1 = 1.0, 0.0
    # From the second step on, p_n halves per step until it meets the AGM,
    # so the cap covers every ratio p / z a float can hold.
    for _ in range(2200):
        ag = a * g
        q2 = q * q
        den = q2 + ag
        r0, r1 = (r0 * q2 + r1 * ag) / den, (r0 + r1) / 2
        if abs(q2 - ag) <= 1e-9 * den and abs(a - g) <= 4e-16 * a:
            rj = 3 * pi * (r0 + r1) / (4 * a * p)
            if isnan(rj):  # the first step's q^2 = (p + ag)^2 / (4p) overflowed
                break
            return rj
        a, g, q = (a + g) / 2, sqrt(ag), den / (2 * q)
    raise ArithmeticError(f"R_J AGM failed in float range at (y={y}, z={z}, p={p})")


def elliptic_K(k: float) -> float:
    """Complete elliptic integral K(k) = R_F(0, 1 - k^2, 1)."""
    if not 0 <= k < 1:
        raise ValueError(f"elliptic_K needs k in [0, 1), got k={k}")
    return carlson_rf0((1 - k) * (1 + k), 1.0)


def a2_pi_combination(x: float, w: float) -> tuple[float, float, list[tuple[float, float]]]:
    """A2 in complete elliptic integrals of modulus k = 4x, after the
    symmetric substitution s = (z-1)/(z+1) (P. F. Byrd and M. D. Friedman,
    Handbook of Elliptic Integrals, 1971, 218.00).

    Q1/z^2 = (1+4x)(u1^2 - v)(u2^2 - v)/(1-v)^2 and Q2/z^2 = Q1/z^2 - w^2
    depend on v = s^2 alone, with u1 = 1/sqrt(1+4x), u2 = sqrt(1-4x). The
    cut maps to s in (-u1, -u2), and each reciprocal pair of Q2 roots to one
    pole v_rho = ((1-rho)/(1+rho))^2, rho = a1, a2. Then s^2 = u1^2 dn^2(u, k)
    gives

        A2 = (2/pi) [C0 K(k) + sum_rho coef_rho Pi(n_rho, k)],
        n_rho = (u1^2 - u2^2) / (u1^2 - v_rho),  C0 = (1+4x) / (1+4x-w^2),

    with coef_rho the v-residue of Q1/Q2 at v_rho over u1^2 - v_rho. As
    Q1/Q2 vanishes at v = u1^2, C0 + sum coef_rho = 0 for w > 0, and with
    Pi(n, k) = K(k) + (n/3) R_J(0, k'^2, 1, 1-n) (DLMF 19.25.2) the K terms
    cancel: A2 = (2/(3 pi)) sum_rho coef_rho n_rho R_J(0, k'^2, 1, 1-n_rho),
    where n_a1 < 0 < k^2 < n_a2 < 1. Every v-distance is a product of
    positive parts from _geometry, as u1^2 - v_rho =
    2 (rho - c1)(u1 + s_rho)/((1+c1)(1+rho)) with s_rho = (1-rho)/(1+rho).
    R_J reads 1 - n_rho as a ratio of two of them (n_a2 rounds onto 1 at
    tiny w), and w^2 meets the O(w^2) distance u1^2 - v_a1 first, so no w^4
    is formed.

    Returns (value, C0, [(coef_rho, n_rho) for a1 and a2]); at w = 0,
    ((2/pi) K(k), 1, [])."""
    return _a2_v(x, w, _geometry(x, w))


def _a2_v(x: float, w: float, geo: _Geometry) -> tuple[float, float, list[tuple[float, float]]]:
    """a2_pi_combination on the geometry geo of (x, w)."""
    if w == 0:
        return 2 / pi * elliptic_K(4 * x), 1.0, []
    _check_w_floor(x, w, w * w, geo.g1, geo.g2, geo.delta)
    u1, u2 = 1 / sqrt(1 + 4 * x), sqrt(1 - 4 * x)
    # (rho, u1^2 - v_rho, u2^2 - v_rho), with rho - c1 and rho - c2 from geo
    poles = []
    for rho, e1, e2 in ((geo.a1, -geo.g1, -(geo.delta + geo.g1)),
                        (geo.a2, geo.delta + geo.g2, geo.g2)):
        s = (1 - rho) / (1 + rho)
        poles.append((rho, 2 * e1 * (u1 + s) / ((1 + geo.c1) * (1 + rho)),
                      2 * e2 * (u2 + s) / ((1 + geo.c2) * (1 + rho))))
    lead = (1 - w) * (1 + w) + 4 * x  # 1 + 4x - w^2, the v^2 coefficient of Q2/z^2
    gap = poles[1][1] - poles[0][1]  # v_a1 - v_a2
    value, terms = 0.0, []
    for (rho, du1, du2), sign in zip(poles, (1, -1)):  # v_rho - v_other = sign * gap
        one_v = 4 * rho / (1 + rho) ** 2  # 1 - v_rho
        coef = sign * (w * w / du1) * one_v * one_v / (lead * gap)
        n = 16 * x * x / ((1 + 4 * x) * du1)  # u1^2 - u2^2 = 16 x^2 / (1+4x)
        value += coef * n * carlson_rj0((1 - 4 * x) * (1 + 4 * x), 1.0, du2 / du1)
        terms.append((coef, n))
    return 2 * value / (3 * pi), (1 + 4 * x) / lead, terms


def alpha_closed(w: float, x: float) -> float:
    """alpha(w, x) = A1 + A2 in closed form, a1_closed + a2_pi_combination
    on one shared _geometry."""
    geo = _geometry(x, w)
    return _a1(x, w, geo) + _a2_v(x, w, geo)[0]
