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
at its rounding level. Each correction evaluates S(x)/x and its
derivative in Gaussian fixed point on the exact integer coefficients
(Python integers, no mpmath), and sums the Aberth repulsion in double
precision; the simultaneous correction keeps two iterates from settling
on one root. The roots are certified at the working precision by
scale-normalized residuals |Q(x)| / Q(|x|), Q(x) = S(x)/x, taken from
the same integer evaluator without its derivative, plus a Vieta product
check in mpmath. Certification
failures raise; they are never silent. The design follows MPSolve
(Bini and Fiorentino, 2000; Bini and Robol, 2014).

Also here: the Rouche margin |F(y) - e^{beta y}| / |e^{beta y}| sampled
on the circle |y| = alpha log(n) / C, with F(y) from the integer
evaluator on the exact reversed counts s_n, ..., s_1 and one division by
s_n per point, and the contrast checks for tree hosts. The exact
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

from . import params
from .counting import SubtreeCountVector, counts_for, exact_beta
from .errors import CertificationError, ValidationError
from .graphs import Graph, is_connected

# the last polish stage and the certification run at work_bits, this or
# the coefficient bits + 64 if larger; earlier stages start at 128 bits
DEFAULT_PRECISION_BITS = 192
RESIDUAL_THRESHOLD = 1e-20
VIETA_RELATIVE_TOLERANCE = 1e-8
CLUSTER_TOLERANCE = 1e-7
TREE_ROOT_BOUND = 1.0 + 3.0 ** (1.0 / 3.0)
MAX_START_SWEEPS = 500  # double-precision Aberth sweeps before the polish takes over
MAX_POLISH_SWEEPS = 60  # Aberth sweeps per polish stage


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
    iterations: int  # double-precision start sweeps + polish corrections over all stages
    precision_bits: int
    vieta_product: float
    vieta_target: float
    vieta_relative_error: float
    clusters: tuple[tuple[complex, int], ...]  # (center, multiplicity)

    def to_json_dict(self) -> dict:
        return {
            "roots": [[mp.nstr(r.real, 25), mp.nstr(r.imag, 25)] for r in self.roots],
            "residuals": list(self.residuals),
            "max_modulus": self.max_modulus,
            "iterations": self.iterations,
            "precision_bits": self.precision_bits,
            "vieta_product": self.vieta_product,
            "vieta_target": self.vieta_target,
            "vieta_relative_error": self.vieta_relative_error,
            "clusters": [
                [repr(c.real), repr(c.imag), mult] for c, mult in self.clusters
            ],
        }


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
    Each sweep steps every moving root from the iterates of the previous
    sweep. A root freezes once |F| <= 4 d 2^-52 sum |a_k| |u|^k, where the
    computed value is rounding noise and further steps cannot help, or
    once its step is not finite; a root left non-finite restarts the
    polish from its start on the circle.
    """
    n = len(s)
    d = n - 1
    e = round((s[-1].bit_length() - s[0].bit_length()) / d)
    coeffs = [_scaled_ratio(s[n - 1 - k], s[-1], e * k) for k in range(n)]
    dcoeffs = [k * c for k, c in enumerate(coeffs) if k]
    circle = [cmath.exp(1j * (2 * math.pi * (j + 0.35) / d)) for j in range(d)]
    if not all(map(math.isfinite, coeffs)):
        return circle, e, 0  # out of double range: the polish starts cold
    radius = (coeffs[0] / coeffs[d] if coeffs[d] else math.inf) ** (1.0 / d)
    z0 = [radius * w for w in circle]
    z = list(z0)
    active = range(d)
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
            z[j] = zj
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


def _to_fixed(v: tuple, shift: int) -> int:
    """An mpf value (given as its _mpf_ tuple) times 2^shift, truncated to an integer."""
    sign, man, exp, _ = v
    exp += shift
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def _top_bits(s: Sequence[int]) -> list[tuple[int, int]]:
    """(k, bitlen(s[k]) - 1) for each nonzero s[k] with k >= 1, so 2^b <= s[k].

    _fixed_horner bounds its scale from these; they depend on the
    polynomial only, so each caller takes them once per polynomial.
    """
    return [(k, c.bit_length() - 1) for k, c in enumerate(s) if k and c]


def _fixed_horner(
    s: Sequence[int], tops: list, x, bits: int, derivative: bool = True, magnitude: bool = True
) -> tuple:
    """Q(x), Q'(x) and Q(|x|) for Q(x) = sum_k s[k] x^k, in Gaussian fixed point.

    One Horner pass over the exact integer coefficients, on Python
    integers only; `tops` is _top_bits(s). Returns (p_re, p_im, dp_re,
    dp_im, scale, G, m): p and scale are Q(x) and Q(|x|) times 2^G, and
    dp is Q'(x) times 2^(G-m). With derivative=False the Q' recurrence
    is skipped (four big-integer products per step instead of seven) and
    dp_re, dp_im are None; with magnitude=False the Q(|x|) recurrence
    (one product per step, and the square root giving |x|) is skipped and
    scale is None. p and the other outputs are the same integers either
    way.

    X = x 2^(F+m) is read off the mantissas and exponents of the mpc x,
    with F = bits + guard bits and 1/4 < 2^m |x| < 1, so X keeps F bits
    of x whatever |x| (for |x| < 1 the shift F + m is about
    F + max(0, -log2|x|)). The partial sum still to be multiplied by x^k
    is held at scale 2^(G - m k), so each step truncates by less than
    3 units of 2^-G in Q(x) (of 2^-(G-m) in Q'(x)). G comes from a lower
    bound on max_{k>=1} s_k |x|^k, which is below both Q(|x|) and
    |x| Q'(|x|): the errors stay under 2^-(bits+guard) Q(|x|) and
    d 2^-(bits+guard) Q'(|x|), the accuracy of mpmath's Horner at `bits`
    and far below the stop test's threshold 4 d 2^-bits Q(|x|), with
    integers no longer than the stage needs.
    """
    d = len(s) - 1
    re, im = x._mpc_
    F = bits + 2 * (4 * len(s)).bit_length()
    parts = [math.log2(man) + exp for _, man, exp, _ in (re, im) if man]
    if parts and d:
        lx = max(parts)  # lx <= log2|x| < lx + 1/2
        m = -math.floor(lx + 0.5) - 1
        # 2^low <= max_{k>=1} s_k |x|^k, which is at most Q(|x|) and |x| Q'(|x|)
        low = max((b + k * lx for k, b in tops), default=0)
    else:
        m = 0
        low = s[0].bit_length() - 1
    G = F + (3 * (d + 1)).bit_length() + 1 - math.floor(low)
    xr = _to_fixed(re, F + m)
    xi = _to_fixed(im, F + m)
    xsum, xdif = xr + xi, xi - xr
    a = math.isqrt(xr * xr + xi * xi) if magnitude else None
    shift = G - m * d
    pr = s[-1] << shift if shift >= 0 else s[-1] >> -shift
    scale = pr if magnitude else None
    pi = 0
    dr = di = 0 if derivative else None
    for k in range(d - 1, -1, -1):
        # complex products in three multiplications each
        if derivative:
            t = xr * (dr + di)
            dr, di = ((t - di * xsum) >> F) + pr, ((t + dr * xdif) >> F) + pi
        shift += m
        c = s[k] << shift if shift >= 0 else s[k] >> -shift
        t = xr * (pr + pi)
        pr, pi = ((t - pi * xsum) >> F) + c, (t + pr * xdif) >> F
        if magnitude:
            scale = ((scale * a) >> F) + c
    return pr, pi, dr, di, scale, G, m


def _scaled_copy(x, e: int) -> complex:
    """x 2^e rounded to a Python complex (inf or 0 where it leaves double range)."""
    return complex(mp.ldexp(x.real, e), mp.ldexp(x.imag, e))


def _repulsion(xs: list, scaled: list, j: int, e: int):
    """sum_{k != j} 1/(x_j - x_k), in double precision on the copies x 2^e.

    The sum only scales the Newton step, so double precision suffices.
    A root whose copy left double range (or whose double sum is not
    finite) takes the multiprecision sum instead.
    """
    cj = scaled[j]
    if cj != 0 and cmath.isfinite(cj):
        # itself (and an exact duplicate) repels nothing
        r = sum(1 / (cj - ck) for ck in scaled if ck != cj)
        if cmath.isfinite(r):
            return mp.mpc(mp.ldexp(r.real, e), mp.ldexp(r.imag, e))
    xj = xs[j]
    return mp.fsum(1 / (xj - xk) for xk in xs if xk != xj)


def _polish(
    s: Sequence[int], tops: list, u: list[complex], e: int, work_bits: int
) -> tuple[list, list[int]]:
    """Gauss-Seidel Aberth corrections on Q(x) = S(x)/x from the start y = 2^e u.

    `tops` is _top_bits(s). Returns the roots x = 1/y polished to
    work_bits and the number of corrections at each stage of
    _stages(work_bits). Each stage runs at most MAX_POLISH_SWEEPS sweeps
    at its precision, each correction using the roots already corrected.
    A root freezes for the stage when |Q(x)| <= 4 d 2^-bits Q(|x|)
    (rounding level; Q has nonnegative coefficients, and the test is exact
    on the integers of _fixed_horner) or its step falls below
    2^-(bits-16)|x|. Frozen roots still repel the others.
    """
    d = len(s) - 1
    stages = _stages(work_bits)
    with mp.workprec(stages[0]):
        xs = [1 / (mp.mpc(complex(uj)) * mp.ldexp(1, e)) for uj in u]
    scaled = [_scaled_copy(x, e) for x in xs]
    corrections = []
    for bits in stages:
        count = 0
        with mp.workprec(bits):
            stop = mp.ldexp(1, -(bits - 16))
            active = list(range(d))
            for _ in range(MAX_POLISH_SWEEPS):
                if not active:
                    break
                still = []
                for j in active:
                    pr, pi, dr, di, scale, _, m = _fixed_horner(s, tops, xs[j], bits)
                    if (pr * pr + pi * pi) << (2 * bits) <= (4 * d * scale) ** 2 or not (dr or di):
                        continue
                    # Q/Q' with both integers brought to one scale, which cancels
                    up, down = max(0, -m), max(0, m)
                    newton = mp.mpc(pr << up, pi << up) / mp.mpc(dr << down, di << down)
                    denom = 1 - newton * _repulsion(xs, scaled, j, e)
                    step = newton / denom if denom != 0 else newton
                    xs[j] -= step
                    scaled[j] = _scaled_copy(xs[j], e)
                    count += 1
                    if abs(step) > stop * abs(xs[j]):
                        still.append(j)
                active = still
        corrections.append(count)
    return xs, corrections


def find_roots(
    p: SubtreePolynomial,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RootAnalysis:
    """All roots of S(x), certified; the count equals the true degree.

    Trailing zero coefficients (a disconnected source leaves s_n = 0)
    are trimmed first. Raises CertificationError (carrying the best
    iterates and residuals) if any residual stays above threshold or
    the Vieta product check misses, instead of returning dubious roots.
    """
    s = p.coefficients
    n = p.degree
    while n > 1 and s[n - 1] == 0:
        n -= 1
    s = s[:n]
    work_bits = _work_bits(precision_bits, max(s))
    if n == 1:
        zero = mp.mpc(0)
        return RootAnalysis(
            roots=(zero,),
            residuals=(0.0,),
            max_modulus=0.0,
            iterations=0,
            precision_bits=work_bits,
            vieta_product=1.0,
            vieta_target=1.0,
            vieta_relative_error=0.0,
            clusters=((0j, 1),),
        )
    sn = s[-1]
    tops = _top_bits(s)
    u, e, sweeps = _float_start(s)
    xs, corrections = _polish(s, tops, u, e, work_bits)
    iterations = sweeps + sum(corrections)
    with mp.workprec(work_bits):
        roots = [mp.mpc(0)] + xs
        residuals = [0.0]
        # scale-normalized residuals |S(x)| / S(|x|) = |Q(x)| / Q(|x|), the
        # |x| factors cancelling; the scale is free of cancellation and
        # positive (Q has nonnegative coefficients and Q(0) = s_1 >= 1)
        for x in xs:
            pr, pi, _, _, scale, _, _ = _fixed_horner(s, tops, x, work_bits, derivative=False)
            residuals.append(float(abs(mp.mpc(pr, pi)) / scale))
        vieta_product = mp.mpf(1)
        for x in roots[1:]:
            vieta_product *= abs(x)
        vieta_target = mp.mpf(s[0]) / mp.mpf(sn)
        vieta_rel = float(abs(vieta_product - vieta_target) / vieta_target)
        half_bits = work_bits // 2
        pairs = sorted(zip(roots[1:], residuals[1:]), key=lambda t: _root_key(t[0], half_bits))
        max_modulus = float(max(abs(x) for x in roots))
    _require_certified(roots, residuals, vieta_rel)
    ordered = [roots[0]] + [x for x, _ in pairs]
    ordered_residuals = (0.0,) + tuple(r for _, r in pairs)
    return RootAnalysis(
        roots=tuple(ordered),
        residuals=ordered_residuals,
        max_modulus=max_modulus,
        iterations=iterations,
        precision_bits=work_bits,
        vieta_product=float(vieta_product),
        vieta_target=float(vieta_target),
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


def _require_certified(roots: list, residuals: list[float], vieta_rel: float) -> None:
    """Raise unless every residual and the Vieta error are within tolerance.

    Written as "not (value <= bound)" so that a NaN fails.
    """
    if not all(r <= RESIDUAL_THRESHOLD for r in residuals) or not (
        vieta_rel <= VIETA_RELATIVE_TOLERANCE
    ):
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


def root_bound(alpha: Fraction, n: int, C: float = 7.0) -> float:
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "C": self.C,
            "radius": self.radius,
            "beta": float(self.beta),
            "beta_exact": str(self.beta),
            "circle_points": self.circle_points,
            "max_margin": self.max_margin,
            "max_margin_index": self.max_margin_index,
            "margin_below_one": self.margin_below_one,
            "witness_ok": self.witness_ok,
            "witness_floor": self.witness_floor,
            "precision_bits": self.precision_bits,
            "label": self.label,
        }


def rouche_margin(
    counts: SubtreeCountVector,
    alpha: Fraction,
    C: float = 7.0,
    circle_points: int = 256,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RoucheReport:
    """Sampled max of |F(y) - e^{beta y}| / |e^{beta y}| on |y| = alpha log(n)/C.

    A finite sample is a falsifiable proxy for the full-circle statement,
    hence the "sampled supremum" label. The four axis points are always
    included on top of the equally spaced ones. F(y) s_n comes from
    _fixed_horner on the exact counts at the working precision, and
    e^{beta y} from mpmath. Also checks the pointwise witness
    |e^{beta y}| >= n^(-1/C) that the comparison relies on.
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
        points = [
            radius * mp.exp(2j * mp.pi * mp.mpf(j) / circle_points)
            for j in range(circle_points)
        ]
        points += [radius * u for u in (mp.mpc(1), mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0, -1))]
        margins = []
        witness_ok = True
        for yv in points:
            pr, pi, _, _, _, G, _ = _fixed_horner(
                reversed_counts, tops, yv, work_bits, derivative=False, magnitude=False
            )
            f = mp.mpc(mp.ldexp(pr, -G), mp.ldexp(pi, -G)) / sn
            e = mp.exp(beta_mp * yv)
            mag = abs(e)
            if mag < floor * slack:
                witness_ok = False
            margins.append(abs(f - e) / mag)
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

    Margins at a conjugate pair of points, or at an axis point that
    repeats a circle point, agree up to rounding noise, and the noise
    alone would pick the member reported; the first one is reported.
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max_modulus": self.max_modulus,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "within_bound": self.within_bound,
            "annulus_inner": self.annulus_inner,
            "annulus_outer": self.annulus_outer,
            "annulus_ok": self.annulus_ok,
            "analysis": self.analysis.to_json_dict(),
        }


def tree_root_check(tree: Graph, tolerance: float = 1e-9) -> TreeRootReport:
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
