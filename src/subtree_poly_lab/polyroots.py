"""Subtree polynomial: certified roots and diagnostics.

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
reaching exactly the requested precision_bits, one polish per rung,
each stopping every root at its rounding level. The polish holds each
root as Gaussian fixed-point integers (xr, xi, t), x = (xr + i xi) 2^-t,
rounded to the rung's bits, and runs on Python integers alone: each step
evaluates Q(x) = S(x)/x on the exact integer coefficients, builds Q'(x)
from the same pass's partial sums only when the root moves, and takes
the Aberth step Q/(Q' - Q R) by one integer division, the repulsion R
summed in double precision and read exactly (on the integers, for a
root whose repulsion leaves double range); the simultaneous correction
keeps two iterates from settling on one root.

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
scale-normalized residuals |Q(x)| / Q(|x|), doubles rounded once from
the integers of the last rung's last evaluation, which also gives the
mirror's (a root moved after it is evaluated afresh, one pass for a
pair), plus a Vieta product check on the triples. The roots are
returned as the triples themselves; the Vieta product, its target and
each modulus are rounded at the working precision by `dyadic`, in
mpmath's rounding modes, so they print the digits mpmath gives.

precision_bits is an accuracy target. The polish stops at it where the
roots certify and their Weierstrass inclusion disks (_inclusion_disks,
on the same integers and in doubles) are pairwise disjoint, each of
radius at most 2^-(precision_bits - 64) |x|: each disk then holds
exactly one root, which is proven to precision_bits - 64 bits.
Otherwise the polish goes on from its iterates, pairs and real slots at
twice the precision, up to the cap _work_bits (the coefficients' size
plus 64 bits), where the roots need only certify. Where certification
fails at the cap, the roots are polished again from their own iterates
at twice the precision with every mirror dropped (each slot corrected on
its own, as an iteration that knows nothing of conjugates), at most
MAX_ESCALATIONS times; a failure after that raises, it is never silent.
The design follows MPSolve (Bini and Fiorentino, 2000; Bini and Robol,
2014), which also keeps its iterates in the arithmetic of its evaluator
and raises the precision only where the roots are not yet proven.

Also here: the Rouche margin |F(y) - e^{beta y}| / |e^{beta y}| sampled
at N points of the circle |y| = alpha log(n) / C and its four axis
points, all from one discrete Fourier transform on Python integers:
F(y) and the series of e^{beta y}, cut where a stated tail bound falls
below the rounding level, are folded modulo M = lcm(N, 4) into Gaussian
fixed-point integers, transformed by radix-2 steps over the power of two
in M and Goertzel's recurrence over its odd factor, each value within
2^-work_bits (F(r) + e^{beta r}) of its exact value; N is at most
params.MAX_CIRCLE_POINTS, and M times the transform's bits at most
params.MAX_CIRCLE_BITS. Then the contrast checks for tree hosts. The exact
Poisson-profile diagnostics (`exact_beta`, `poisson_deviation`) take the
counts alone and live in `counting`.
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import dyadic, params
from .counting import SubtreeCountVector, counts_for, exact_beta
from .errors import CapacityError, CertificationError, ValidationError
from .graphs import Graph, is_connected

RESIDUAL_THRESHOLD = 1e-20
VIETA_RELATIVE_TOLERANCE = 1e-8
CLUSTER_TOLERANCE = 1e-7
TREE_ROOT_BOUND = 1.0 + 3.0 ** (1.0 / 3.0)
MAX_START_SWEEPS = 500  # double-precision Aberth sweeps before the polish takes over
MAX_POLISH_SWEEPS = 60  # Aberth sweeps per _polish call
MAX_ESCALATIONS = 2  # re-polishes at twice the precision before certification fails
_LOG_SLACK = 2.0**-24  # the safe-side slack of each log2 in the inclusion disks


def build_polynomial(counts: SubtreeCountVector) -> SubtreeCountVector:
    """The counts themselves: `find_roots` takes the count vector.

    It stays only because perfbench/layers.py calls it; no module of the
    lab does. ROADMAP item 2 deletes it with that file's replays.
    """
    return counts


class RootAnalysis(NamedTuple):
    # exact triples (xr, xi, t), x = (xr + i xi) 2^-t, n entries: the forced
    # 0 first as (0, 0, 0), then by real part; see _root_key
    roots: tuple[tuple[int, int, int], ...]
    residuals: tuple[float, ...]
    max_modulus: float
    iterations: int  # start sweeps + polish corrections (one per slot corrected), all rungs
    precision_bits: int
    # dyadics (m, e), the value m 2^e, rounded at precision_bits as mpmath rounds
    vieta_product: tuple[int, int]  # product of the root moduli (root_modulus)
    vieta_target: tuple[int, int]  # s_1 / s_n
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


def _fixed_horner(s: Sequence[int], tops: list, x: tuple, bits: int) -> tuple:
    """Q(x) and Q(|x|) for Q(x) = sum_k s[k] x^k, in Gaussian fixed point.

    One Horner pass over the exact integer coefficients, on Python
    integers only; `tops` is _top_bits(s) and x the triple (xr, xi, t),
    x = (xr + i xi) 2^-t. Returns (p_re, p_im, scale, G, m, trail): p and
    scale are Q(x) and Q(|x|) times 2^G, and trail keeps the fixed-point
    x and the partial sums the pass multiplied by x, from which
    _fixed_derivative builds Q'(x) only where a caller needs it.

    X = x 2^(F+m) is the triple brought to F = bits + guard fractional
    bits at 1/4 < 2^m |x| < 1 (a shift, exact for a triple of the polish,
    which holds `bits` bits), so X keeps F bits of x whatever |x|. The
    partial sum still to be multiplied by x^k is held at scale
    2^(G - m k), so each step truncates by less than 3 units of 2^-G in
    Q(x) (of 2^-(G-m) in Q'(x)). G comes from a lower bound on
    max_{k>=1} s_k |x|^k, which is below both Q(|x|) and |x| Q'(|x|):
    the errors stay under
    2^-(bits+guard) Q(|x|) and d 2^-(bits+guard) Q'(|x|), the accuracy of
    mpmath's Horner at `bits` and far below the stop test's threshold
    4 d 2^-bits Q(|x|), with integers no longer than the polish needs.
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
    a = math.isqrt(xr * xr + xi * xi)
    shift = G - m * d
    pr = s[-1] << shift if shift >= 0 else s[-1] >> -shift
    scale = pr
    pi = 0
    sums = []
    for k in range(d - 1, -1, -1):
        sums.append((pr, pi))
        shift += m
        c = s[k] << shift if shift >= 0 else s[k] >> -shift
        # a complex product in three multiplications
        t = xr * (pr + pi)
        pr, pi = ((t - pi * xsum) >> F) + c, (t + pr * xdif) >> F
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
    """R of _repulsion summed on the integers of the exact iterates, as (rr, ri, k).

    For a root whose double copy or double sum left double range. On the
    finest grid 2^-T of the triples each difference is a Gaussian integer
    D, and 1/(x_j - x_k) = conj(D) 2^T / |D|^2 is floored at 2^-k, k
    chosen so that the largest term holds `bits` bits: R is off by less
    than d units of 2^-k, well inside the double accuracy it needs.
    """
    T = max(t for _, _, t in xs)
    grid = [(xr << (T - t), xi << (T - t)) for xr, xi, t in xs]
    ar, ai = grid[j]
    # itself (and an exact duplicate) repels nothing
    diffs = [(ar - br, ai - bi) for br, bi in grid if (br, bi) != (ar, ai)]
    if not diffs:
        return 0, 0, 0
    k = bits + 2 - T + min(dr * dr + di * di for dr, di in diffs).bit_length() // 2
    rr = sum((dr << (T + k)) // (dr * dr + di * di) for dr, di in diffs)
    ri = sum((-di << (T + k)) // (dr * dr + di * di) for dr, di in diffs)
    return rr, ri, k


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
    s: Sequence[int], tops: list, xs: list, e: int, bits: int, mirrors: list
) -> tuple[list, int, dict, list]:
    """Gauss-Seidel Aberth corrections on Q(x) = S(x)/x at `bits` bits, on fixed-point integers.

    `tops` is _top_bits(s), xs the start points as triples (xr, xi, t)
    (x = (xr + i xi) 2^-t) and e the exponent that brings 2^e x into
    double range for the repulsion. Returns the polished points, the
    number of corrections, the evaluations (each triple evaluated maps
    to the integers (p_re, p_im, scale, G) of _fixed_horner, so the
    certification re-evaluates only a root that moved after its last
    evaluation) and the slots' kinds after the polish, which the next
    call takes as its `mirrors` so that a pair split into two real slots
    stays split.

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

    The points are rounded to `bits` bits, and at most MAX_POLISH_SWEEPS
    sweeps run, each correction using the roots already corrected. A
    root freezes when |Q(x)| <= 4 d 2^-bits Q(|x|) (rounding level; Q
    has nonnegative coefficients) or its step falls below
    2^-(bits-16)|x|. Q'(x) is built only after the freeze test fails.
    Frozen roots still repel the others. Every test and step runs on the
    integers and doubles; the repulsion of a root whose double sum leaves
    double range is summed on the integers (_exact_repulsion).
    """
    d = len(s) - 1
    mirrors = list(mirrors)
    scaled = [_scaled_copy(x, e) for x in xs]
    xs = [_rounded(*x, bits) for x in xs]
    for j, k in enumerate(mirrors):
        if k is not None and j < k:
            xs[k], scaled[k] = _conjugate(xs[j]), scaled[j].conjugate()
    corrections = 0
    evaluated = {}
    active = [j for j, k in enumerate(mirrors) if k is None or j <= k]
    for _ in range(MAX_POLISH_SWEEPS):
        if not active:
            break
        still = []
        for j in active:
            x, k = xs[j], mirrors[j]
            leader = k is not None and j < k
            pr, pi, scale, G, m, trail = _fixed_horner(s, tops, x, bits)
            evaluated[x] = pr, pi, scale, G
            if leader:
                evaluated[_conjugate(x)] = pr, -pi, scale, G
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
            corrections += 1
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
    return xs, corrections, evaluated, mirrors


def find_roots(
    counts: SubtreeCountVector,
    precision_bits: int = params.DEFAULT_PRECISION_BITS,
) -> RootAnalysis:
    """All roots of S(x), certified; the count equals the true degree.

    Trailing zero coefficients (a disconnected source leaves s_n = 0)
    are trimmed first. Each _polish call runs at one precision, `bits`,
    on the ladder: it starts at min(128, precision_bits) and doubles up to
    precision_bits with no test. From there it stops where the roots
    certify and their inclusion disks (_inclusion_disks) prove each of
    them to precision_bits - 64 bits: the disks pairwise disjoint, each
    radius at most 2^-(precision_bits - 64) |x|. Otherwise it doubles up
    to the cap _work_bits, where certification alone stops it. Where a
    residual stays above threshold or the Vieta product check misses at
    the cap, the roots are polished again from their own iterates at
    twice the precision with every mirror dropped, at most
    MAX_ESCALATIONS times; then it raises CertificationError (carrying
    the best iterates and residuals) instead of returning dubious roots.
    """
    s, n = counts.counts, counts.n
    if s[0] < 1:
        raise ValidationError("s_1 must be positive (every vertex is a subtree)")
    while n > 1 and s[n - 1] == 0:
        n -= 1
    s = s[:n]
    precision_bits = params.precision_bits(precision_bits, "precision_bits")
    cap = _work_bits(precision_bits, max(s))
    tops = _top_bits(s)
    u, e, sweeps = _float_start(s) if n > 1 else ([], 0, 0)  # S(x) = s_1 x: only the root 0
    bits = min(128, precision_bits)
    xs = [_reciprocal(uj, e, bits) for uj in u]
    d = len(xs)
    mirrors = [d - 1 - j for j in range(d)]  # the start's pairs: slot d-1-j mirrors slot j
    iterations = sweeps
    escalations = 0
    while True:
        xs, corrections, evaluated, mirrors = _polish(s, tops, xs, e, bits, mirrors)
        iterations += corrections
        if bits < precision_bits:
            bits = min(2 * bits, precision_bits)
            continue
        # scale-normalized residuals |S(x)| / S(|x|) = |Q(x)| / Q(|x|), the
        # |x| factors cancelling; the scale is free of cancellation and
        # positive (Q has nonnegative coefficients and Q(0) = s_1 >= 1).
        # A root the polish left where it last evaluated it takes those
        # integers; one it moved afterwards is evaluated afresh, and the
        # pass serves its exact conjugate too. Each residual is rounded
        # once to a double, from the integers.
        residuals = [0.0]
        for x in xs:
            if x not in evaluated:
                pr, pi, scale, G = _fixed_horner(s, tops, x, bits)[:4]
                evaluated[x], evaluated[_conjugate(x)] = (pr, pi, scale, G), (pr, -pi, scale, G)
            pr, pi, scale, _ = evaluated[x]
            residuals.append(_root_ratio(pr * pr + pi * pi, scale * scale))
        vieta_product, vieta_target, vieta_rel = _vieta(xs, s[0], s[-1], bits)
        certified = _certified(residuals, vieta_rel)
        if bits < cap:
            accuracy = precision_bits - 64
            if certified and _inclusion_disks(s, xs, mirrors, evaluated, accuracy) is not None:
                break
            bits = min(2 * bits, cap)  # the pairs and real slots carried on
        elif certified:
            break
        elif escalations < MAX_ESCALATIONS:
            escalations += 1
            # every mirror dropped: each slot is corrected on its own, so a
            # pair that split wrongly or stalled cannot stay as it was
            bits, mirrors = 2 * bits, [None] * d
        else:
            worst = max(residuals, key=lambda r: (math.isnan(r), r))
            raise CertificationError(
                f"root certification failed: max residual {worst:.3e}, "
                f"Vieta relative error {vieta_rel:.3e}",
                roots=[(0, 0, 0)] + xs,
                residuals=residuals,
            )
    pairs = sorted(zip(xs, residuals[1:]), key=lambda t: _root_key(t[0], bits))
    ordered = [(0, 0, 0)] + [x for x, _ in pairs]
    ordered_residuals = (0.0,) + tuple(r for _, r in pairs)
    return RootAnalysis(
        roots=tuple(ordered),
        residuals=ordered_residuals,
        max_modulus=max((dyadic.to_float(root_modulus(x, bits)) for x in xs), default=0.0),
        iterations=iterations,
        precision_bits=bits,
        vieta_product=vieta_product,
        vieta_target=vieta_target,
        vieta_relative_error=vieta_rel,
        clusters=_cluster(ordered),
    )


def _vieta(xs: list, s1: int, sn: int, bits: int) -> tuple:
    """The product of the root moduli, its target s_1/s_n and their relative error.

    The product and the target are dyadics (m, e), each operation rounded
    to nearest at `bits` as mpmath's fprod and division rounded it: the
    moduli (root_modulus) multiplied from 1 in the order of xs, and s_1 and
    s_n rounded before their quotient. The relative error |P - T| / T is
    rounded to a double.
    """
    product = (1, 0)
    for x in xs:
        product = dyadic.mul(product, root_modulus(x, bits), bits)
    target = dyadic.div(dyadic.rounded(s1, 0, bits), dyadic.rounded(sn, 0, bits), bits)
    gap = dyadic.add(product, (-target[0], target[1]), bits)
    return product, target, dyadic.to_float(dyadic.div((abs(gap[0]), gap[1]), target, bits))


def _inclusion_disks(
    s: Sequence[int], xs: list, mirrors: list, evaluated: dict, accuracy: float
) -> list | None:
    """log2 of an inclusion radius for each root of Q where they prove every root; else None.

    For the polished roots z_i of Q (degree d, leading coefficient s_n),
    the Weierstrass corrections W_i = Q(z_i) / (s_n prod_{j != i} (z_i - z_j))
    give d disks D(z_i, d |W_i|) whose union holds every root of Q, a
    connected component of m disks holding exactly m of them
    (Carstensen, Numer. Math. 59, 1991). The radii are returned only where
    the disks are pairwise disjoint, so that each holds exactly one root,
    and each is at most 2^-accuracy |z_i|; each returned r_i bounds
    log2(d |W_i|) from above:

    - |Q(z_i)| from the integers (p_re, p_im, G) of z_i's evaluation in
      `evaluated`, at the precision z_i is held to, so that _fixed_horner
      reads z_i exactly: its value p lies within 3(d+1) units of
      Q(z_i) 2^G (below 3 units for each of its d + 1 truncations, each
      multiplied afterwards by powers of 2^m z_i, of modulus below 1), so
      |Q(z_i)| 2^G <= |p| + 3(d+1) <= |(|p_re| + 3(d+1)) + i(|p_im| + 3(d+1))|;
    - each |z_i - z_j| from below, from the exact difference of the two
      triples on the finest grid 2^-T among them.

    Every log2 here is of an exact integer and within 2^-32 of its exact
    value (the integer rounded once to a double, then one libm log2, of a
    value below 2^20: integers of under a million bits), and each of the
    few sums after it rounds by less than 2^-30 (values below 2^22). Each
    distance and modulus is lowered by _LOG_SLACK = 2^-24 and each radius
    raised by d of them, which covers those roundings many times over.
    Two disks are disjoint where the distance of their centers exceeds
    twice the larger radius; so all are where each center lies farther
    than twice its own radius from its nearest neighbour. Only leaders,
    real slots and free slots are computed, on Python integers and
    doubles: a mirror's disk is its leader's, conjugated, at the same
    distances (the centers are closed under conjugation wherever a slot
    has a mirror). The first disk that proves nothing ends the computation.
    """
    d = len(xs)
    T = max((t for _, _, t in xs), default=0)
    grid = [(xr << (T - t), xi << (T - t)) for xr, xi, t in xs]
    if len(set(grid)) < d:
        return None  # two centers coincide
    err = 3 * (d + 1)
    radii = [0.0] * d
    for i, k in enumerate(mirrors):
        if k is not None and k < i:
            continue  # a mirror
        ar, ai = grid[i]
        pr, pi, _, G = evaluated[xs[i]]
        # log2 of the squared distances to the other centers on the grid:
        # log2 |z_i - z_j| = logs_j / 2 - T
        logs = [math.log2((ar - br) ** 2 + (ai - bi) ** 2) for br, bi in grid[:i] + grid[i + 1 :]]
        top = d * d * ((abs(pr) + err) ** 2 + (abs(pi) + err) ** 2)
        # d |W_i| = sqrt(top) 2^-G / (s_n prod |z_i - z_j|)
        radius = 0.5 * (math.log2(top) - math.fsum(logs)) + (d - 1) * T - G - math.log2(s[-1])
        radius += d * _LOG_SLACK
        size = ar * ar + ai * ai
        modulus = 0.5 * math.log2(size) - T - _LOG_SLACK if size else -math.inf
        nearest = 0.5 * min(logs, default=math.inf) - T - _LOG_SLACK
        if radius > modulus - accuracy or radius + 1 >= nearest:
            return None
        radii[i] = radii[k if k is not None else i] = radius
    return radii


def _work_bits(precision_bits: int, top: int) -> int:
    """precision_bits (checked by the caller), raised to hold `top` with 64 bits to spare.

    rouche_margin works at this precision. For find_roots it is only the
    cap of the polish: below it the roots stop where their inclusion
    disks prove them, and at it they need only certify.
    """
    return max(precision_bits, top.bit_length() + 64)


def root_modulus(x: tuple, bits: int) -> tuple[int, int]:
    """|x| of a triple as the dyadic (m, e), rounded at `bits` as mpmath's abs rounds it."""
    xr, xi, t = x
    return dyadic.hypot((xr, -t), (xi, -t), bits)


def _complex(x: tuple) -> complex:
    """The triple's point as a Python complex, each part rounded to nearest."""
    xr, xi, t = x
    return complex(dyadic.to_float((xr, -t)), dyadic.to_float((xi, -t)))


def _root_key(x: tuple, bits: int) -> tuple:
    """Sort key of a nonzero root: re(x)/|x|, then re(x), on a grid of 2^-(bits // 2); then imag.

    The real parts of a conjugate pair agree only up to rounding noise;
    on the grid they tie, so the pair lists its negative imaginary part
    first whatever the noise. Every negative real root has re(x)/|x| = -1
    up to the noise of its imaginary part, so the real roots are listed
    by their real parts. The quotient and the modulus are rounded at
    `bits`, and each grid point to `bits` bits, as mpmath rounded them.
    """
    xr, xi, t = x
    half = bits // 2
    m, e = dyadic.div((xr, -t), root_modulus(x, bits), bits)
    ratio, real = dyadic.nint((m, e + half), bits), dyadic.nint((xr, half - t), bits)
    return ratio, real, xi * Fraction(2) ** -t


def _certified(residuals: list[float], vieta_rel: float) -> bool:
    """Every residual and the Vieta error within tolerance; a NaN fails."""
    residuals_ok = all(r <= RESIDUAL_THRESHOLD for r in residuals)
    return residuals_ok and vieta_rel <= VIETA_RELATIVE_TOLERANCE


def _cluster(roots) -> tuple[tuple[complex, int], ...]:
    """Group roots closer than CLUSTER_TOLERANCE; near-multiples stay honest."""
    remaining = [_complex(r) for r in roots]
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


class RoucheReport(NamedTuple):
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
    precision_bits: int = params.DEFAULT_PRECISION_BITS,
) -> RoucheReport:
    """Sampled max of |F(y) - e^{beta y}| / |e^{beta y}| on |y| = alpha log(n)/C.

    Where the margin is below 1 on the whole circle, F has no zero in the
    disk, so every nonzero root x of S has |x| < 1/radius: the paper's
    root bound. A finite sample is a falsifiable proxy for the full-circle
    statement, hence the "sampled supremum" label. The four axis points
    are always included on top of the N equally spaced ones, y_j = r w^j
    with w = e^{2 pi i/N}. Also checks the pointwise witness
    |e^{beta y}| >= n^(-1/C) that the comparison relies on.

    Both series are evaluated on the circle by one discrete Fourier
    transform. With the radius r folded into the coefficients, F(r u) =
    sum_k (s_{n-k}/s_n) r^k u^k and e^{beta r u} = sum_k (beta r)^k/k! u^k,
    the exponential cut where its tail falls below the rounding level.
    Folded modulo M = lcm(N, 4), D = F - e and E = e are one sequence of
    Gaussian fixed-point integers D + iE, and its length-M transform
    (_circle_dft) gives D and E at every circle point (output j M/N) and
    every axis point (outputs 0, M/4, M/2, 3M/4) at once. Every step runs
    on Python integers at P = work_bits + g fractional bits, the guard g
    the bit length of 64 (L^3 + M), L a bound on the number of terms
    (each error below is at most 40 (L^3 + M) (F(r) + e^{beta r}) 2^-P):
    each D and E read from the transform lies within
    2^-work_bits (F(r) + e^{beta r}) of its exact value (the roundings of
    r^k and (beta r)^k/k!, the cut tail, the roots of unity and the
    transform's products; see _circle_series, _unit_roots and
    _circle_dft). Each margin |D|/|E| is rounded to a double once, from
    the integers, and the witness compares |E|^2 with
    (n^(-1/C) (1 - 2^-50))^2 on the integers. r, n^(-1/C) and
    e^{2 pi i/M} come from integer series (dyadic.ln, dyadic.exp and
    dyadic.cos_sin), once whatever N. With ln n within 2 units of
    2^-(work_bits + 8), r is alpha ln(n)/C rounded to nearest at
    work_bits bits (the radius as rounded at work_bits), and
    n^(-1/C) = e^{-ln(n)/C} is within 3 units of 2^-(work_bits + 8): far
    inside the 2^-60 relative that keeps (1 - 2^-50) n^(-1/C) below the
    exact value (n^(-1/C) > 2^-10 for n < 2^60, as C > 6), so the
    witness bound stays a lower bound. The transform holds about
    6 M P bits at its peak; where M P exceeds params.MAX_CIRCLE_BITS,
    CapacityError is raised before it is built.

    The coefficients are real, so the values at conjugate points are
    conjugate: point N - j takes the margin of point j, and -i that of i.
    """
    C = params.rouche_C(C, "C")
    N = params.circle_points(circle_points, "circle_points")
    precision_bits = params.precision_bits(precision_bits, "precision_bits")
    n = counts.n
    if n < 2:
        raise ValidationError("Rouche margin needs n >= 2")
    beta = exact_beta(counts)  # refuses a disconnected source
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    work_bits = _work_bits(precision_bits, counts.s(n))
    w = work_bits + 8
    log_n = dyadic.ln(n, w)
    cn, cd = C.as_integer_ratio()
    rm, re_ = dyadic.div((alpha.numerator * cd * log_n, -w), (alpha.denominator * cn, 0), work_bits)
    floor = dyadic.exp(-(log_n * cd // cn), w)  # n^(-1/C) at 2^-w
    bm, be = floor * ((1 << 50) - 1), -w - 50
    M = math.lcm(N, 4)
    step = M // N
    twice_x = -_floor_scaled(-2 * beta.numerator * rm, re_, beta.denominator)  # ceil(2 beta r)
    # L: the exponential stops by term max(2e beta r, P) + 2, with P <= 2 work_bits - 2
    terms = max(n, 3 * twice_x + 3, 2 * work_bits)
    P = work_bits + (64 * (terms**3 + M)).bit_length()
    if M * P > params.MAX_CIRCLE_BITS:
        raise CapacityError(
            f"the Rouche transform of {N} circle points at {P} bits holds M P = {M * P} "
            f"bits, over the limit of {params.MAX_CIRCLE_BITS}; lower the circle points "
            "or the precision"
        )
    z = _circle_series(counts.counts[::-1], (rm, re_), beta, twice_x, P, M)
    Z = _circle_dft(z, _unit_roots(M, P), P)
    # the witness fails where |2E 2^P|^2 < (2 bound 2^P)^2 = bm^2 2^shift
    shift = 2 * (be + P + 1)
    witness_ok = True
    margin = {}
    for m in {j * step for j in range(N // 2 + 1)} | {M // 4, M // 2}:
        (ar, ai), (br, bi) = Z[m], Z[-m]
        dr, di, er, ei = ar + br, ai - bi, ai + bi, br - ar  # 2D and 2E at output m
        mag = er * er + ei * ei
        witness_ok &= (mag << max(-shift, 0)) >= (bm * bm << max(shift, 0))
        margin[m] = _root_ratio(dr * dr + di * di, mag)
    margins = [margin[min(j, N - j) * step] for j in range(N)]
    margins += [margin[0], margin[M // 2], margin[M // 4], margin[M // 4]]  # 1, -1, i, -i
    # doubles rounded once, so points sharing the largest tie exactly; the first is reported
    max_margin = max(margins)
    return RoucheReport(
        n=n,
        C=float(C),
        radius=dyadic.to_float((rm, re_)),
        beta=beta,
        circle_points=N,
        max_margin=max_margin,
        max_margin_index=margins.index(max_margin),
        margin_below_one=max_margin < 1,
        witness_ok=witness_ok,
        witness_floor=dyadic.to_float((floor, -w)),
        precision_bits=work_bits,
    )


def _floor_scaled(num: int, e: int, den: int = 1) -> int:
    """floor(num 2^e / den), den > 0."""
    return (num << e) // den if e >= 0 else num // (den << -e)


def _truncated(m: int, e: int, bits: int) -> tuple[int, int]:
    """m 2^e (m >= 0) with m cut to its leading `bits` bits, as (m', e')."""
    shift = m.bit_length() - bits
    return (m >> shift, e + shift) if shift > 0 else (m, e)


def _circle_series(
    c: Sequence[int], r: tuple[int, int], beta: Fraction, twice_x: int, P: int, M: int
) -> list[tuple[int, int]]:
    """The packed coefficients (d_b, e_b) of D + iE at 2^-P, folded modulo M.

    c holds s_n, ..., s_1 and r = (rm, re), the radius rm 2^re. d sums
    c_k r^k / s_n - (beta r)^k/k! and e sums (beta r)^k/k! over k = b mod M.
    r^k and (beta r)^k/k! are kept as P-bit mantissas with exponents, each
    step truncating (relative error below 8k 2^-P after k steps), and each
    term is floored to 2^-P. The exponential stops at the first k >= 2 beta r
    (twice_x is ceil(2 beta r)) whose term floors to 0: there
    beta r/(k+1) <= 1/2, so the tail left out is below 3 units of 2^-P.
    """
    rm, re_ = r
    d, e = [0] * M, [0] * M
    pm, pe = 1, 0  # r^k
    for k, ck in enumerate(c):
        d[k % M] += _floor_scaled(ck * pm, pe + P, c[0])
        pm, pe = _truncated(pm * rm, pe + re_, P)
    shift = P + beta.denominator.bit_length()
    xm, xe = _truncated((beta.numerator * rm << shift) // beta.denominator, re_ - shift, P)
    tm, te, k = 1, 0, 0  # (beta r)^k / k!
    while True:
        term = _floor_scaled(tm, te + P)
        if not term and k >= twice_x:
            return list(zip(d, e))
        d[k % M] -= term
        e[k % M] += term
        k += 1
        tm, te = _truncated(tm * xm // k, te + xe, P)


def _unit_roots(M: int, P: int) -> list[tuple[int, int]]:
    """e^{2 pi i k/M} for k < M/2 as (cos, sin) at 2^-P, for 4 | M.

    dyadic.cos_sin gives e^{2 pi i/M} at T = P + g bits, 2^g >= 4M, each
    part within one unit of 2^-T; the recurrence w_{k+1} = w_k w_1,
    floored at 2^-T, runs over the first quadrant (below 3k units of 2^-T
    after k < M/4 steps, so under 2^-P/4), each root is rounded to 2^-P,
    and the second quadrant is the first times i, exactly: each part of
    every root lies within 2^-P of its exact value.
    """
    g = M.bit_length() + 2
    T = P + g
    c1, s1 = dyadic.cos_sin(M, T)
    c, s, half = 1 << T, 0, 1 << (g - 1)
    quadrant = []
    for _ in range(M // 4):
        quadrant.append(((c + half) >> g, (s + half) >> g))
        c, s = (c * c1 - s * s1) >> T, (c * s1 + s * c1) >> T
    return quadrant + [(-s, c) for c, s in quadrant]


def _circle_dft(z: list, roots: list, P: int) -> list[tuple[int, int]]:
    """Z_m = sum_b z_b e^{2 pi i b m/M} for m < M = len(z), on Gaussian integers at 2^-P.

    `roots` is _unit_roots(M, P). Radix-2 steps by decimation in time
    split the transform down to the odd factor q of M; each length-q
    transform is direct, by _goertzel over its nonzero entries. Each
    butterfly multiplies by a root in three products and floors, so an
    output is off by less than 2 units of 2^-P per butterfly beneath it
    plus 2^-P sqrt(2) times the sum of the |z_b| per radix-2 level, on top
    of the errors of the inputs and the leaves.
    """
    M = len(z)
    q = M // (M & -M)

    def dft(start: int, stride: int) -> list:
        if stride * q == M:
            return _goertzel(z[start::stride], roots[::stride], P)
        lo, hi = [], []
        pairs = zip(dft(start, 2 * stride), dft(start + stride, 2 * stride), roots[::stride])
        for (er, ei), (a, b), (c, s) in pairs:
            t = c * (a + b)
            tr, ti = (t - b * (c + s)) >> P, (t + a * (s - c)) >> P
            lo.append((er + tr, ei + ti))
            hi.append((er - tr, ei - ti))
        return lo + hi

    return dft(0, 1)


def _goertzel(x: list, roots: list, P: int) -> list[tuple[int, int]]:
    """X_m = sum_b x_b w^{bm}, m < q = len(x) (odd), w = e^{2 pi i/q}, at 2^-P.

    `roots` holds w^m for m <= q/2. Goertzel's recurrence
    s_b = x_b + 2 cos(2 pi m/q) s_{b+1} - s_{b+2}, run down from the last
    nonzero entry, gives both X_m = s_0 - s_1 w^-m and X_{q-m} =
    s_0 - s_1 w^m: one real product per entry and part. Over l entries,
    its floors and the rounded root put each output off by less than
    8 l^3 (1 + sum |x_b|) units of 2^-P.
    """
    q, top = len(x), len(x)
    while top and x[top - 1] == (0, 0):
        top -= 1
    entries = x[top - 1 :: -1] if top else []
    out = [(sum(r for r, _ in entries), sum(i for _, i in entries))] + [None] * (q - 1)
    for m in range(1, q // 2 + 1):
        c, s = roots[m]
        c2 = 2 * c
        r1 = i1 = r2 = i2 = 0
        for xr, xi in entries:
            r1, r2 = xr + ((c2 * r1) >> P) - r2, r1
            i1, i2 = xi + ((c2 * i1) >> P) - i2, i1
        u, v, w, t = (r2 * c) >> P, (i2 * s) >> P, (i2 * c) >> P, (r2 * s) >> P
        out[m] = (r1 - u - v, i1 - w + t)
        out[q - m] = (r1 - u + v, i1 - w - t)
    return out


def _root_ratio(num: int, den: int) -> float:
    """sqrt(num/den) for integers num >= 0 < den, rounded once to a double.

    The root's floor at 2^-k has at least 65 bits; doubled, plus one where
    the root is inexact, it converts to a double as the exact root would.
    """
    k = (den.bit_length() - num.bit_length()) // 2 + 66
    q, rest = divmod(num << 2 * k, den) if k >= 0 else divmod(num, den << -2 * k)
    root = math.isqrt(q)
    return math.ldexp(float(2 * root + (rest > 0 or root * root != q)), -k - 1)


class TreeRootReport(NamedTuple):
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
    analysis = find_roots(counts)
    within = analysis.max_modulus <= TREE_ROOT_BOUND + tolerance
    n = tree.n
    if n >= 2:
        outer = 0.5 + (n - 1) ** (1.0 / (n - 1))
    else:
        outer = 0.5
    annulus_ok = all(
        0.5 - 1e-12 <= abs(_complex(r) + 0.5) <= outer + 1e-12 for r in analysis.roots
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
