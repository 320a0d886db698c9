"""Subtree polynomial: construction, certified roots, and diagnostics.

The polynomial S(x) = sum_{k=1}^n s_k x^k always has the simple forced
root x = 0. The remaining n-1 roots are started on the reversed series

    F(y) = sum_{k=0}^{n-1} (s_{n-k}/s_n) y^k,      S(x) = s_n x^n F(1/x),

whose coefficients are well scaled for dense graphs (they decay roughly
like beta^k/k!). The start is a Jacobi Aberth-Ehrlich iteration in
plain Python `complex` (double precision, no numpy) on F(2^e u), with e
taken from the bit lengths of s_1 and s_n so that the coefficients stay
in double range; each root freezes once |F| is at the level of rounding
error. The roots are mapped back to x = 1/y and polished by Gauss-Seidel
Aberth corrections on a precision ladder: 128, 256, 512, ... bits,
ending at exactly the working precision, each stage stopping every root
at its rounding level. The polish holds each root as Gaussian
fixed-point integers (xr, xi, t), x = (xr + i xi) 2^-t, rounded to the
stage's bits, and runs on Python integers alone: each step evaluates
Q(x) = S(x)/x on the exact integer coefficients, builds Q'(x) from the
same pass's partial sums only when the root moves, and takes the Aberth
step Q/(Q' - Q R) by one integer division, the repulsion R summed in
double precision and read exactly; the simultaneous correction keeps
two iterates from settling on one root. mpmath sums only R, for a root
whose repulsion leaves double range.

S has real coefficients, so its roots are closed under conjugation, and
the start and the polish work on one root of each pair. The start
circle is symmetric (an odd degree puts one point on the negative real
axis, where the real roots lie); each slot is a pair leader, whose
mirror is set to its exact conjugate after every correction, or a real
slot, held on the axis. Only leaders and real slots are evaluated and
corrected, and `iterations` counts one per slot corrected (plus the
start's sweeps). A start pair that crosses the axis is reflected back;
a polish pair whose imaginary part changes sign splits into two real
slots. The roots are certified at the working precision by
scale-normalized residuals |Q(x)| / Q(|x|), taken from the last
evaluation of the final polish stage, which also gives the mirror's
(a root moved after it is evaluated afresh, one pass for a pair), plus
a Vieta product check in mpmath on the roots built exactly from the
integers. Where certification fails, the roots are polished again from
their own iterates at twice the precision with every mirror dropped
(each slot corrected on its own, as an iteration that knows nothing of
conjugates), at most MAX_ESCALATIONS times; a failure after that
raises, it is never silent. The design follows MPSolve (Bini and
Fiorentino, 2000; Bini and Robol, 2014), which also keeps its iterates
in the arithmetic of its evaluator.

Also here: the Rouche margin |F(y) - e^{beta y}| / |e^{beta y}| sampled
on the circle |y| = alpha log(n) / C, with F(y) from the integer
evaluator on the exact reversed counts s_n, ..., s_1 (each point
rounded to its integers by _fixed_point) and one division by s_n per
point, each conjugate pair of points evaluated once, and the
contrast checks for tree hosts. The exact
Poisson-profile diagnostics (`exact_beta`, `poisson_deviation`) take the
counts alone and live in `counting`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp

from . import params
from .counting import SubtreeCountVector, counts_for, exact_beta
from .errors import CertificationError, ValidationError
from .graphs import Graph, is_connected

# the last polish stage and the certification run at work_bits, this or
# the coefficient bits + 64 if larger; earlier stages start at 128 bits
DEFAULT_PRECISION_BITS = params.DEFAULT_PRECISION_BITS
RESIDUAL_THRESHOLD = 1e-20
VIETA_RELATIVE_TOLERANCE = 1e-8
CLUSTER_TOLERANCE = 1e-7
TREE_ROOT_BOUND = 1.0 + 3.0 ** (1.0 / 3.0)
MAX_START_SWEEPS = 500  # double-precision Aberth sweeps before the polish takes over
MAX_POLISH_SWEEPS = 60  # Aberth sweeps per polish stage
MAX_ESCALATIONS = 2  # re-polishes at twice the precision before certification fails


@dataclass(frozen=True)
class SubtreePolynomial:
    """Coefficients s_1..s_n of S(x); no constant term, so 0 is a root."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("polynomial needs at least the linear coefficient")
        if self.coefficients[0] < 1:
            raise ValidationError("s_1 must be positive (every vertex is a subtree)")
        if any(c < 0 for c in self.coefficients):
            raise ValidationError("subtree polynomial coefficients are nonnegative")

    @property
    def degree(self) -> int:
        return len(self.coefficients)


def build_polynomial(counts: SubtreeCountVector) -> SubtreePolynomial:
    return SubtreePolynomial(coefficients=counts.counts)


@dataclass(frozen=True)
class RootAnalysis:
    roots: tuple  # mpc values, n entries, forced 0 first, then by real part; see _root_key
    residuals: tuple[float, ...]
    max_modulus: float
    iterations: int  # start sweeps + polish corrections (one per slot corrected), all stages
    precision_bits: int
    vieta_product: mp.mpf  # product of the root moduli, at precision_bits
    vieta_target: mp.mpf  # s_1 / s_n, at precision_bits
    vieta_relative_error: float
    clusters: tuple[tuple[complex, int], ...]  # (center, multiplicity)


def _horner(coeffs: Sequence, x):
    """p(x) with coefficients in ascending order.

    It serves the double-precision start only (where p'(x) is the same
    loop over the coefficients k a_k); every multiprecision evaluation
    runs on the integers, in _fixed_horner.
    """
    p = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        p = p * x + coeffs[k]
    return p


def _scaled_ratio(num: int, den: int, shift: int) -> float:
    """num * 2^shift / den rounded once to a double; inf past its range."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    try:
        return num / den
    except OverflowError:
        return math.inf


def _modulus(z: complex) -> float:
    """|z| by C hypot; inf where it overflows (abs() of a complex raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _start_step(coeffs: list, dcoeffs: list, z: list, j: int, tiny: float):
    """The Aberth step of start root z[j], or None where it stops moving.

    It stops once |F| <= tiny * sum |a_k| |z_j|^k, and wherever the step
    is not a finite number: a zero divisor, an overflow, or a NaN.
    """
    zj = z[j]
    p = _horner(coeffs, zj)
    if not _modulus(p) > tiny * _horner(coeffs, _modulus(zj)):  # the coefficients are >= 0
        return None
    # itself (and an exact duplicate) repels nothing
    repulsion = sum(1 / (zj - zk) for zk in z if zk != zj)
    try:
        newton = p / _horner(dcoeffs, zj)
        step = newton / (1 - newton * repulsion)
    except ZeroDivisionError:
        return None
    return step if cmath.isfinite(step) else None


def _float_start(s: Sequence[int]) -> tuple[list[complex], int, int]:
    """Roots u of F(2^e u) by a Jacobi Aberth iteration in double precision.

    Returns (u, e, sweeps); the roots of F are y = 2^e u. The exponent
    makes the geometric mean of the root moduli, (s_n/s_1)^(1/d), about 1,
    so the scaled coefficients neither underflow nor overflow a double.

    The start is the symmetric circle, angles (j + 1/2) 2 pi/d: point
    d-1-j is the exact conjugate of point j, and an odd d puts point
    (d-1)/2 on the negative real axis, where the real roots lie. F has
    real coefficients, so only the leaders j < (d-1)/2 (upper half plane)
    and the real point are stepped: each leader's mirror d-1-j is set to
    its conjugate after every sweep, a leader whose step crosses the real
    axis is reflected back (the pair is the same set), and the real
    point's imaginary part is held at 0. Each sweep steps every moving
    root from the iterates of the previous sweep. A root freezes once
    |F| <= 4 d 2^-52 sum |a_k| |u|^k, where the computed value is
    rounding noise and further steps cannot help, or once its step is not
    finite; a root left non-finite restarts the polish from its start on
    the circle.
    """
    n = len(s)
    d = n - 1
    e = round((s[-1].bit_length() - s[0].bit_length()) / d)
    coeffs = [_scaled_ratio(s[n - 1 - k], s[-1], e * k) for k in range(n)]
    dcoeffs = [k * c for k, c in enumerate(coeffs) if k]
    upper = [cmath.exp(1j * (math.pi * (2 * j + 1) / d)) for j in range(d // 2)]
    circle = upper + [complex(-1.0)] * (d % 2) + [w.conjugate() for w in reversed(upper)]
    if not all(map(math.isfinite, coeffs)):
        return circle, e, 0  # out of double range: the polish starts cold
    radius = (coeffs[0] / coeffs[d] if coeffs[d] else math.inf) ** (1.0 / d)
    z0 = [radius * w for w in circle]
    z = list(z0)
    active = range((d + 1) // 2)  # the leaders, then the real point of an odd d
    tiny = 4 * d * 2.0**-52
    sweeps = 0
    while active and sweeps < MAX_START_SWEEPS:
        sweeps += 1
        moved = []
        for j in active:
            step = _start_step(coeffs, dcoeffs, z, j, tiny)
            if step is not None:
                moved.append((j, z[j] - step))
        for j, zj in moved:
            if 2 * j + 1 == d:
                zj = complex(zj.real)
            elif zj.imag < 0:
                zj = zj.conjugate()
            z[d - 1 - j], z[j] = zj.conjugate(), zj
        active = [j for j, _ in moved]
    return [zj if cmath.isfinite(zj) else z0j for zj, z0j in zip(z, z0)], e, sweeps


def _stages(work_bits: int) -> list[int]:
    """Polish precisions: 128, 256, 512, ... bits below work_bits, then work_bits."""
    stages = []
    bits = 128
    while bits < work_bits:
        stages.append(bits)
        bits *= 2
    return stages + [work_bits]


def _guarded(bits: int, n: int) -> int:
    """F = bits + guard bits: the bits _fixed_horner keeps of x for n coefficients."""
    return bits + 2 * (4 * n).bit_length()


def _exponent(lx: float) -> int:
    """m with 1/4 < 2^m |x| < 1, from lx <= log2|x| < lx + 1/2."""
    return -math.floor(lx + 0.5) - 1


def _top_bits(s: Sequence[int]) -> list[tuple[int, int]]:
    """The points (k, bitlen(s[k]) - 1), k >= 1, on the upper hull of all of them.

    2^b <= s[k] at each point. _fixed_horner bounds its scale from
    max_k (b + k lx) over these: a linear function of the point is
    largest on the upper convex hull, and a point strictly below the
    hull loses to a hull point by at least 1/d, far more than rounding,
    so the hull (computed exactly on integers, collinear points kept)
    gives the same maximum as all the points. They depend on the
    polynomial only, so each caller takes them once per polynomial.
    """
    hull = []
    for k, c in enumerate(s):
        if not (k and c):
            continue
        b = c.bit_length() - 1
        # drop the last point while it lies strictly below the chord to (k, b)
        while len(hull) >= 2:
            (k1, b1), (k2, b2) = hull[-2], hull[-1]
            if (b2 - b1) * (k - k1) >= (b - b1) * (k2 - k1):
                break
            hull.pop()
        hull.append((k, b))
    return hull


def _fixed_horner(
    s: Sequence[int], tops: list, x: tuple, bits: int, magnitude: bool = True
) -> tuple:
    """Q(x) and Q(|x|) for Q(x) = sum_k s[k] x^k, in Gaussian fixed point.

    One Horner pass over the exact integer coefficients, on Python
    integers only; `tops` is _top_bits(s) and x the triple (xr, xi, t),
    x = (xr + i xi) 2^-t. Returns (p_re, p_im, scale, G, m, trail): p and
    scale are Q(x) and Q(|x|) times 2^G, and trail keeps the fixed-point
    x and the partial sums the pass multiplied by x, from which
    _fixed_derivative builds Q'(x) only where a caller needs it. With
    magnitude=False the Q(|x|) recurrence (one product per step, and the
    square root giving |x|) is skipped and scale is None; p and the other
    outputs are the same integers either way.

    X = x 2^(F+m) is the triple brought to F = bits + guard fractional
    bits at 1/4 < 2^m |x| < 1 (a shift, exact for a triple of the polish,
    which holds `bits` bits, and none for one from _fixed_point), so X
    keeps F bits of x whatever |x|. The partial sum still to be
    multiplied by x^k is held at scale 2^(G - m k), so each step
    truncates by less than 3 units of 2^-G in Q(x) (of 2^-(G-m) in
    Q'(x)). G comes from a lower bound on max_{k>=1} s_k |x|^k, which is
    below both Q(|x|) and |x| Q'(|x|): the errors stay under
    2^-(bits+guard) Q(|x|) and d 2^-(bits+guard) Q'(|x|), the accuracy of
    mpmath's Horner at `bits` and far below the stop test's threshold
    4 d 2^-bits Q(|x|), with integers no longer than the stage needs.
    """
    d = len(s) - 1
    xr, xi, point = x
    F = _guarded(bits, len(s))
    top = max(abs(xr), abs(xi))
    if top and d:
        lx = math.log2(top) - point  # lx <= log2|x| < lx + 1/2
        m = _exponent(lx)
        # 2^low <= max_{k>=1} s_k |x|^k, which is at most Q(|x|) and |x| Q'(|x|)
        low = max((b + k * lx for k, b in tops), default=0)
    else:
        m = 0
        low = s[0].bit_length() - 1
    G = F + (3 * (d + 1)).bit_length() + 1 - math.floor(low)
    shift = F + m - point
    if shift >= 0:
        xr, xi = xr << shift, xi << shift
    else:
        xr, xi = xr >> -shift, xi >> -shift
    xsum, xdif = xr + xi, xi - xr
    a = math.isqrt(xr * xr + xi * xi) if magnitude else None
    shift = G - m * d
    pr = s[-1] << shift if shift >= 0 else s[-1] >> -shift
    scale = pr if magnitude else None
    pi = 0
    sums = []
    for k in range(d - 1, -1, -1):
        sums.append((pr, pi))
        shift += m
        c = s[k] << shift if shift >= 0 else s[k] >> -shift
        # a complex product in three multiplications
        t = xr * (pr + pi)
        pr, pi = ((t - pi * xsum) >> F) + c, (t + pr * xdif) >> F
        if magnitude:
            scale = ((scale * a) >> F) + c
    return pr, pi, scale, G, m, (xr, xsum, xdif, F, sums)


def _fixed_derivative(trail: tuple) -> tuple[int, int]:
    """Q'(x) times 2^(G-m), as (re, im), from the trail of a _fixed_horner pass.

    The partial sums P_d, ..., P_1 that the value pass multiplied by x
    give Q' by D_k = x D_{k+1} + P_{k+1}: the same products, truncations
    and integers as a derivative recurrence run inside the value pass,
    at three more big-integer products per step.
    """
    xr, xsum, xdif, F, sums = trail
    dr = di = 0
    for pr, pi in sums:
        t = xr * (dr + di)
        dr, di = ((t - di * xsum) >> F) + pr, ((t + dr * xdif) >> F) + pi
    return dr, di


def _rounded(xr: int, xi: int, t: int, bits: int) -> tuple[int, int, int]:
    """The point (xr + i xi) 2^-t rounded to `bits` bits: the triple at t' = bits + m.

    m is _fixed_horner's exponent of the point, so the larger part holds
    at most `bits` bits; a left shift is exact, a right shift rounds to
    nearest. The origin stays as it is.
    """
    top = max(abs(xr), abs(xi))
    if not top:
        return xr, xi, t
    shift = bits + _exponent(math.log2(top) - t) - t
    if shift >= 0:
        return xr << shift, xi << shift, t + shift
    half = 1 << (-shift - 1)
    return (xr + half) >> -shift, (xi + half) >> -shift, t + shift


def _triple(x) -> tuple[int, int, int]:
    """The mpc x exactly as a triple (xr, xi, t), x = (xr + i xi) 2^-t."""
    (sr, mr, er, _), (si, mi, ei, _) = x._mpc_
    t = -min(er, ei)
    return (-mr if sr else mr) << (er + t), (-mi if si else mi) << (ei + t), t


def _fixed_point(x, bits: int, n: int) -> tuple[int, int, int]:
    """The mpc x as the Gaussian fixed point (xr, xi, t) _fixed_horner reads at `bits`.

    The exact triple of x rounded by _rounded to the F = _guarded(bits, n)
    bits of _fixed_horner, t = F + m. It is how a point given in mpmath
    (a Rouche circle point) enters the evaluator.
    """
    return _rounded(*_triple(x), _guarded(bits, n))


def _dyadic(z: complex) -> tuple[int, int, int]:
    """A finite complex double exactly as (zr, zi, k): z = (zr + i zi) 2^-k."""
    (ar, da), (ai, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    k = max(da, db).bit_length() - 1  # the denominators are powers of two
    return ar * (1 << k) // da, ai * (1 << k) // db, k


def _reciprocal(u: complex, e: int, bits: int) -> tuple[int, int, int]:
    """x = 1/(2^e u) for a nonzero double u, as a triple rounded to `bits` bits."""
    ur, ui, k = _dyadic(u)
    D = ur * ur + ui * ui
    # x = conj(u) / |u|^2 2^-e = (ur - i ui) 2^(k-e) / D, to 2^-t with 2^t |x| >= 2^bits
    t = bits + 1 + D.bit_length() // 2 - k + e
    shift = t + k - e
    return _rounded((ur << shift) // D, (-ui << shift) // D, t, bits)


def _scaled_copy(x: tuple, e: int) -> complex:
    """x 2^e as a Python complex (inf or 0 where it leaves double range)."""
    xr, xi, t = x
    return complex(_scaled_ratio(xr, 1, e - t), _scaled_ratio(xi, 1, e - t))


def _exact(x: tuple):
    """The triple's point as an mpc, exactly (its parts need no rounding)."""
    xr, xi, t = x
    return mp.make_mpc((from_man_exp(xr, -t), from_man_exp(xi, -t)))


def _repulsion(scaled: list, j: int, e: int) -> tuple[int, int, int] | None:
    """R = sum_{k != j} 1/(x_j - x_k) from the double copies c = x 2^e, or None.

    The double sum r = sum 1/(c_j - c_k) is R 2^-e; R only scales the
    Newton step, so double precision suffices. Its parts are dyadic: R
    is returned exactly as (rr, ri, k), R = (rr + i ri) 2^-k. None where
    the copy of x_j left double range or the sum is not finite.
    """
    cj = scaled[j]
    if cj != 0 and cmath.isfinite(cj):
        # itself (and an exact duplicate) repels nothing
        r = sum(1 / (cj - ck) for ck in scaled if ck != cj)
        if cmath.isfinite(r):
            rr, ri, k = _dyadic(r)
            return rr, ri, k - e
    return None


def _exact_repulsion(xs: list, j: int, bits: int) -> tuple[int, int, int]:
    """R of _repulsion summed in mpmath at `bits` over the exact iterates, as (rr, ri, k).

    For a root whose double copy or double sum left double range.
    """
    with mp.workprec(bits):
        xj = _exact(xs[j])
        return _triple(mp.mpc(mp.fsum(1 / (xj - xk) for xk in map(_exact, xs) if xk != xj)))


def _aberth_step(p: tuple, q: tuple, m: int, t: int, r: tuple, bits: int) -> tuple[int, int, int]:
    """The Aberth step Q/(Q' - Q R) = N/(1 - N R), N = Q/Q', as a triple (sr, si, t').

    p = Q 2^G and q = Q' 2^(G-m) come from _fixed_horner and
    _fixed_derivative at a point held at 2^-t, and r = (rr, ri, k) is the
    repulsion R = (rr + i ri) 2^-k. The denominator is the exact Gaussian
    integer D = (Q' - Q R) 2^(G+h), h = max(k, -m), and the step
    p conj(D) / |D|^2 2^(t'+h) is one floor division, to the units of
    2^-t': the finer of the point's grid and the one holding `bits` bits
    of the step itself, so a small step keeps its bits for the stop test,
    and a step from the origin (a point of no magnitude to set its grid)
    lands on the bits it carries. Plain Newton, Q/Q', where D vanishes.
    """
    (pr, pi), (qr, qi), (rr, ri, k) = p, q, r
    h = max(k, -m)
    dr = (qr << (m + h)) - ((pr * rr - pi * ri) << (h - k))
    di = (qi << (m + h)) - ((pr * ri + pi * rr) << (h - k))
    if not (dr or di):
        dr, di, h = qr, qi, -m
    size = max(abs(dr), abs(di)).bit_length() - max(abs(pr), abs(pi)).bit_length()
    t = max(t, bits + 2 - h + size)
    nr, ni, den = pr * dr + pi * di, pi * dr - pr * di, dr * dr + di * di
    shift = t + h
    if shift >= 0:
        return (nr << shift) // den, (ni << shift) // den, t
    den <<= -shift
    return nr // den, ni // den, t


def _conjugate(x: tuple) -> tuple[int, int, int]:
    """The triple of the conjugate point, exactly."""
    return x[0], -x[1], x[2]


def _polish(
    s: Sequence[int], tops: list, xs: list, e: int, stages: list[int], mirrors: list
) -> tuple[list, list[int], dict]:
    """Gauss-Seidel Aberth corrections on Q(x) = S(x)/x, on Gaussian fixed-point integers.

    `tops` is _top_bits(s), xs the start points as triples (xr, xi, t)
    (x = (xr + i xi) 2^-t) and e the exponent that brings 2^e x into
    double range for the repulsion. Returns the points polished to the
    last of `stages` (the polish precisions, _stages(work_bits) from a
    cold start), the number of corrections at each stage, and the last
    stage's evaluations: each triple it evaluated maps to the integers
    (p_re, p_im, scale) of _fixed_horner there, so the certification
    re-evaluates only a root that moved after its last evaluation.

    `mirrors` gives each slot's kind. Q has real coefficients, so its
    roots are closed under conjugation: a pair leader j < mirrors[j] is
    evaluated and corrected, and its mirror k = mirrors[j] is set to the
    exact conjugate triple after every correction (the evaluation at the
    mirror is recorded as (p_re, -p_im, scale)); a real slot,
    mirrors[j] == j, has its imaginary part held at 0; a free slot, None,
    is corrected on its own. Only leaders, real slots and free slots are
    evaluated. A pair whose leader's imaginary part changes sign (or
    vanishes) in a correction cannot reach two real roots as a pair: it
    splits into two real slots, one on each side of its real part.

    Each stage rounds the points to its bits and runs at most
    MAX_POLISH_SWEEPS sweeps, each correction using the roots already
    corrected. A root freezes for the stage when
    |Q(x)| <= 4 d 2^-bits Q(|x|) (rounding level; Q has nonnegative
    coefficients) or its step falls below 2^-(bits-16)|x|. Q'(x) is
    built only after the freeze test fails. Frozen roots still repel the
    others. Every test and step runs on the integers; mpmath sums only
    the repulsion of a root whose double sum leaves double range.
    """
    d = len(s) - 1
    mirrors = list(mirrors)
    scaled = [_scaled_copy(x, e) for x in xs]
    corrections = []
    evaluated = {}
    for bits in stages:
        xs = [_rounded(*x, bits) for x in xs]
        for j, k in enumerate(mirrors):
            if k is not None and j < k:
                xs[k], scaled[k] = _conjugate(xs[j]), scaled[j].conjugate()
        count = 0
        active = [j for j, k in enumerate(mirrors) if k is None or j <= k]
        for _ in range(MAX_POLISH_SWEEPS):
            if not active:
                break
            still = []
            for j in active:
                x, k = xs[j], mirrors[j]
                leader = k is not None and j < k
                pr, pi, scale, _, m, trail = _fixed_horner(s, tops, x, bits)
                if bits == stages[-1]:
                    evaluated[x] = pr, pi, scale
                    if leader:
                        evaluated[_conjugate(x)] = pr, -pi, scale
                if (pr * pr + pi * pi) << (2 * bits) <= (4 * d * scale) ** 2:
                    continue
                q = _fixed_derivative(trail)
                if not any(q):
                    continue
                r = _repulsion(scaled, j, e)
                if r is None:
                    r = _exact_repulsion(xs, j, bits)
                sr, si, ts = _aberth_step((pr, pi), q, m, x[2], r, bits)
                if j == k:
                    si = 0  # the step at a real point is real; its imaginary part is noise
                # the point on the step's grid, where the subtraction is exact
                xi0 = x[1] << (ts - x[2])
                xr, xi = (x[0] << (ts - x[2])) - sr, xi0 - si
                count += 1
                if leader and xi * xi0 <= 0:
                    h = max(abs(xi0), abs(xi))
                    xs[j], xs[k] = _rounded(xr - h, 0, ts, bits), _rounded(xr + h, 0, ts, bits)
                    scaled[j], scaled[k] = _scaled_copy(xs[j], e), _scaled_copy(xs[k], e)
                    mirrors[j], mirrors[k] = j, k
                    still += [j, k]
                    continue
                xs[j] = _rounded(xr, xi, ts, bits)
                scaled[j] = _scaled_copy(xs[j], e)
                if leader:
                    xs[k], scaled[k] = _conjugate(xs[j]), scaled[j].conjugate()
                if (sr * sr + si * si) << (2 * (bits - 16)) > xr * xr + xi * xi:
                    still.append(j)
            active = still
        corrections.append(count)
    return xs, corrections, evaluated


def find_roots(
    p: SubtreePolynomial,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RootAnalysis:
    """All roots of S(x), certified; the count equals the true degree.

    Trailing zero coefficients (a disconnected source leaves s_n = 0)
    are trimmed first. Where a residual stays above threshold or the
    Vieta product check misses, the roots are polished again from their
    own iterates at twice the working precision, at most MAX_ESCALATIONS
    times; then it raises CertificationError (carrying the best iterates
    and residuals) instead of returning dubious roots.
    """
    s = p.coefficients
    n = p.degree
    while n > 1 and s[n - 1] == 0:
        n -= 1
    s = s[:n]
    work_bits = _work_bits(precision_bits, max(s))
    tops = _top_bits(s)
    u, e, sweeps = _float_start(s) if n > 1 else ([], 0, 0)  # S(x) = s_1 x: only the root 0
    stages = _stages(work_bits)
    xs = [_reciprocal(uj, e, stages[0]) for uj in u]
    d = len(xs)
    mirrors = [d - 1 - j for j in range(d)]  # the start's pairs: slot d-1-j mirrors slot j
    iterations = sweeps
    for escalation in range(MAX_ESCALATIONS + 1):
        if escalation:
            # every mirror dropped: each slot is corrected on its own, so a
            # pair that split wrongly or stalled cannot stay as it was
            stages, mirrors = [2 * work_bits], [None] * d
        xs, corrections, evaluated = _polish(s, tops, xs, e, stages, mirrors)
        iterations += sum(corrections)
        work_bits = stages[-1]
        # scale-normalized residuals |S(x)| / S(|x|) = |Q(x)| / Q(|x|), the
        # |x| factors cancelling; the scale is free of cancellation and
        # positive (Q has nonnegative coefficients and Q(0) = s_1 >= 1).
        # A root the polish left where it last evaluated it at work_bits
        # takes those integers; one it moved afterwards is evaluated afresh,
        # and the pass serves its exact conjugate too.
        residuals = [0.0]
        with mp.workprec(work_bits):
            for x in xs:
                if x not in evaluated:
                    pr, pi, scale = _fixed_horner(s, tops, x, work_bits)[:3]
                    evaluated[x], evaluated[_conjugate(x)] = (pr, pi, scale), (pr, -pi, scale)
                pr, pi, scale = evaluated[x]
                residuals.append(float(abs(mp.mpc(pr, pi)) / scale))
            roots = [mp.mpc(0)] + [_exact(x) for x in xs]
            vieta_product = mp.fprod(abs(x) for x in roots[1:])
            vieta_target = mp.mpf(s[0]) / mp.mpf(s[-1])
            vieta_rel = float(abs(vieta_product - vieta_target) / vieta_target)
        if _certified(residuals, vieta_rel):
            break
    _require_certified(roots, residuals, vieta_rel)
    with mp.workprec(work_bits):
        half_bits = work_bits // 2
        pairs = sorted(zip(roots[1:], residuals[1:]), key=lambda t: _root_key(t[0], half_bits))
        max_modulus = float(max(abs(x) for x in roots))
    ordered = [roots[0]] + [x for x, _ in pairs]
    ordered_residuals = (0.0,) + tuple(r for _, r in pairs)
    return RootAnalysis(
        roots=tuple(ordered),
        residuals=ordered_residuals,
        max_modulus=max_modulus,
        iterations=iterations,
        precision_bits=work_bits,
        vieta_product=vieta_product,
        vieta_target=vieta_target,
        vieta_relative_error=vieta_rel,
        clusters=_cluster(ordered),
    )


def _work_bits(precision_bits: int, top: int) -> int:
    """The working precision: precision_bits, raised to hold `top` with 64 bits to spare.

    find_roots and rouche_margin share this check of the requested precision.
    """
    precision_bits = params.precision_bits(precision_bits, "precision_bits")
    return max(precision_bits, top.bit_length() + 64)


def _root_key(x, half_bits: int) -> tuple:
    """Sort key of a nonzero root: real part on a grid of |x| 2^-half_bits, then imag.

    The real parts of a conjugate pair agree only up to rounding noise;
    on the grid they tie, so the pair lists its negative imaginary part
    first whatever the noise.
    """
    return int(mp.nint(mp.ldexp(x.real / abs(x), half_bits))), x.imag


def _certified(residuals: list[float], vieta_rel: float) -> bool:
    """Every residual and the Vieta error within tolerance; a NaN fails."""
    residuals_ok = all(r <= RESIDUAL_THRESHOLD for r in residuals)
    return residuals_ok and vieta_rel <= VIETA_RELATIVE_TOLERANCE


def _require_certified(roots: list, residuals: list[float], vieta_rel: float) -> None:
    """Raise unless every residual and the Vieta error are within tolerance."""
    if not _certified(residuals, vieta_rel):
        worst = max(residuals, key=lambda r: (math.isnan(r), r))
        raise CertificationError(
            f"root certification failed: max residual {worst:.3e}, "
            f"Vieta relative error {vieta_rel:.3e}",
            roots=roots,
            residuals=residuals,
        )


def _cluster(roots) -> tuple[tuple[complex, int], ...]:
    """Group roots closer than CLUSTER_TOLERANCE; near-multiples stay honest."""
    remaining = [complex(r) for r in roots]
    clusters = []
    used = [False] * len(remaining)
    for i, base in enumerate(remaining):
        if used[i]:
            continue
        members = [base]
        used[i] = True
        for j in range(i + 1, len(remaining)):
            if not used[j] and abs(remaining[j] - base) < CLUSTER_TOLERANCE:
                members.append(remaining[j])
                used[j] = True
        center = sum(members) / len(members)
        clusters.append((center, len(members)))
    return tuple(clusters)


def root_bound(alpha: Fraction, n: int, C: float = params.DEFAULT_ROUCHE_C) -> float:
    """The dense-graph root bound C / (alpha log n), natural log."""
    C = params.rouche_C(C, "C")
    if n < 2:
        raise ValidationError("root bound needs n >= 2")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    return C / (float(alpha) * math.log(n))


@dataclass(frozen=True)
class RoucheReport:
    n: int
    C: float
    radius: float
    beta: Fraction
    circle_points: int
    max_margin: float
    max_margin_index: int
    margin_below_one: bool
    witness_ok: bool  # |e^{beta y}| >= n^(-1/C) at every sampled point
    witness_floor: float
    precision_bits: int
    label: str = "sampled supremum"


def rouche_margin(
    counts: SubtreeCountVector,
    alpha: Fraction,
    C: float = params.DEFAULT_ROUCHE_C,
    circle_points: int = params.DEFAULT_CIRCLE_POINTS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RoucheReport:
    """Sampled max of |F(y) - e^{beta y}| / |e^{beta y}| on |y| = alpha log(n)/C.

    A finite sample is a falsifiable proxy for the full-circle statement,
    hence the "sampled supremum" label. The four axis points are always
    included on top of the equally spaced ones. F(y) s_n comes from
    _fixed_horner on the exact counts at the working precision, and
    e^{beta y} from mpmath. Also checks the pointwise witness
    |e^{beta y}| >= n^(-1/C) that the comparison relies on.

    The counts and beta are real, so F(conj y) = conj F(y) and
    e^{beta conj y} = conj e^{beta y}: the margin and |e^{beta y}| are the
    same at conjugate points. Only the points j <= N/2 of the N on the
    circle are evaluated, and point N - j takes the margin of point j. The
    axis points 1, -1 and i take those of the circle points 0, N/2 and N/4
    where these exist, and -i takes that of i.
    """
    C = params.rouche_C(C, "C")
    circle_points = params.circle_points(circle_points, "circle_points")
    n = counts.n
    if n < 2:
        raise ValidationError("Rouche margin needs n >= 2")
    beta = exact_beta(counts)  # refuses a disconnected source
    work_bits = _work_bits(precision_bits, counts.s(n))
    reversed_counts = counts.counts[::-1]  # s_n, ..., s_1: F(y) s_n = sum_k s_{n-k} y^k
    tops = _top_bits(reversed_counts)
    with mp.workprec(work_bits):
        sn = mp.mpf(counts.s(n))
        beta_mp = mp.mpf(beta.numerator) / beta.denominator
        radius = mp.mpf(alpha.numerator) / alpha.denominator * mp.log(n) / mp.mpf(C)
        floor = mp.exp(-mp.log(n) / mp.mpf(C))  # n^(-1/C)
        slack = 1 - mp.mpf(2) ** -50
        witness_ok = True

        def margin(yv):
            nonlocal witness_ok
            pr, pi, _, G, _, _ = _fixed_horner(
                reversed_counts, tops, _fixed_point(yv, work_bits, n), work_bits, magnitude=False
            )
            f = mp.mpc(mp.ldexp(pr, -G), mp.ldexp(pi, -G)) / sn
            e = mp.exp(beta_mp * yv)
            mag = abs(e)
            if mag < floor * slack:
                witness_ok = False
            return abs(f - e) / mag

        N = circle_points
        upper = [margin(radius * mp.exp(2j * mp.pi * mp.mpf(j) / N)) for j in range(N // 2 + 1)]
        margins = [upper[min(j, N - j)] for j in range(N)]
        minus_one = upper[N // 2] if N % 2 == 0 else margin(radius * mp.mpc(-1))
        plus_i = upper[N // 4] if N % 4 == 0 else margin(radius * mp.mpc(0, 1))
        margins += [upper[0], minus_one, plus_i, plus_i]  # the axis points 1, -1, i, -i
        max_margin = max(margins)
        max_index = _first_max_index(margins)
        report = RoucheReport(
            n=n,
            C=float(C),
            radius=float(radius),
            beta=beta,
            circle_points=circle_points,
            max_margin=float(max_margin),
            max_margin_index=max_index,
            margin_below_one=bool(max_margin < 1),
            witness_ok=witness_ok,
            witness_floor=float(floor),
            precision_bits=work_bits,
        )
    return report


def _first_max_index(margins: list) -> int:
    """The first index whose margin rounds to the same double as the largest.

    Margins that differ only by rounding noise (at a conjugate pair of
    points, or an axis point and the circle point it repeats, where each
    is evaluated on its own) would let the noise pick the member
    reported; the first one is reported.
    """
    top = float(max(margins))
    return next(i for i, v in enumerate(margins) if float(v) == top)


@dataclass(frozen=True)
class TreeRootReport:
    n: int
    max_modulus: float
    bound: float
    tolerance: float
    within_bound: bool
    annulus_inner: float
    annulus_outer: float
    annulus_ok: bool  # diagnostic only, never asserted
    analysis: RootAnalysis


def tree_root_check(tree: Graph, tolerance: float = params.DEFAULT_TOLERANCE) -> TreeRootReport:
    """Root diagnostics for a tree host.

    Asserts the absolute bound max|x| <= 1 + cbrt(3) (+ tolerance) and
    reports, without asserting, whether all roots lie in the conjectured
    annulus 1/2 <= |x + 1/2| <= 1/2 + (n-1)^(1/(n-1)).
    """
    tolerance = params.finite(tolerance, "tolerance")
    if tree.m != tree.n - 1 or not is_connected(tree):
        raise ValidationError("tree_root_check needs a tree (connected, m = n - 1)")
    counts = counts_for(tree)
    analysis = find_roots(build_polynomial(counts))
    within = analysis.max_modulus <= TREE_ROOT_BOUND + tolerance
    n = tree.n
    if n >= 2:
        outer = 0.5 + (n - 1) ** (1.0 / (n - 1))
    else:
        outer = 0.5
    annulus_ok = all(
        0.5 - 1e-12 <= abs(complex(r) + 0.5) <= outer + 1e-12 for r in analysis.roots
    )
    return TreeRootReport(
        n=n,
        max_modulus=analysis.max_modulus,
        bound=TREE_ROOT_BOUND,
        tolerance=tolerance,
        within_bound=within,
        annulus_inner=0.5,
        annulus_outer=outer,
        annulus_ok=annulus_ok,
        analysis=analysis,
    )
