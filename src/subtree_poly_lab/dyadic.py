"""Dyadic numbers m 2^e for the root commands: roundings, decimal strings, constants.

A dyadic is a pair of integers (m, e), the value m 2^e; a root triple
(xr, xi, t) of polyroots has the parts (xr, -t) and (xi, -t). Everything
here runs on Python integers:

- `rounded`, `add`, `mul`, `div`, `hypot`, `to_float` and `nint` round
  as mpmath 1.3 does at a working precision of `prec` bits (mode "n" to
  nearest, ties to even; "d" toward zero; "u" away from zero), and
  `nstr` writes significant digits as mpmath's nstr does, so that the
  root reports keep the digits they had when mpmath computed them;
- `ln`, `exp` and `cos_sin` are integer series at 2^-prec, each within
  a few units of its exact value, for the Rouche circle.

The roundings and `nstr` are ported from mpmath 1.3.0, libmp/libmpf.py
(normalize, mpf_add, mpf_div, mpf_sqrt, mpf_hypot, mpf_pow_int,
to_float, to_digits_exp and to_str). mpmath is distributed under the BSD
licence: Copyright (c) 2005-2021 Fredrik Johansson and mpmath
contributors, all rights reserved.
"""

import math

_LOG2_10 = math.log(10, 2)  # as mpmath's to_digits_exp computes it


def rounded(m: int, e: int, prec: int, mode: str = "n") -> tuple[int, int]:
    """m 2^e rounded to prec bits, trailing zero bits stripped (mpmath's normalize)."""
    if not m:
        return 0, 0
    a = abs(m)
    n = a.bit_length() - prec
    if n > 0:
        if mode == "n":
            t = a >> (n - 1)
            a = (t >> 1) + bool(t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)))
        else:
            a = a >> n if mode == "d" else -(-a >> n)
        e += n
    zeros = (a & -a).bit_length() - 1
    return (a if m > 0 else -a) >> zeros, e + zeros


def _exact(x: tuple[int, int]) -> tuple[int, int]:
    return rounded(*x, abs(x[0]).bit_length())


def add(x: tuple[int, int], y: tuple[int, int], prec: int, mode: str = "n") -> tuple[int, int]:
    """x + y rounded to prec bits (mpf_add: a far smaller term is a sticky unit)."""
    (sm, se), (tm, te) = sorted((_exact(x), _exact(y)), key=lambda v: -v[1])
    if not (sm and tm):
        return rounded(sm + tm, se if sm else te, prec, mode)
    k = prec + 4
    if se - te > 100 and abs(sm).bit_length() + se - abs(tm).bit_length() - te > k:
        big = (abs(sm) << k) + (1 if (sm > 0) == (tm > 0) else -1)
        return rounded(big if sm > 0 else -big, se - k, prec, mode)
    return rounded((sm << (se - te)) + tm, te, prec, mode)


def mul(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """x y rounded to nearest at prec bits."""
    return rounded(x[0] * y[0], x[1] + y[1], prec)


def div(x: tuple[int, int], y: tuple[int, int], prec: int, mode: str = "n") -> tuple[int, int]:
    """x / y (y nonzero) rounded to prec bits: a quotient with a sticky bit (mpf_div)."""
    (sm, se), (tm, te) = x, y
    a, b = abs(sm), abs(tm)
    sign = -1 if (sm < 0) != (tm < 0) else 1
    extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
    q, rest = divmod(a << extra, b)
    if rest:
        q, extra = 2 * q + 1, extra + 1
    return rounded(sign * q, se - te - extra, prec, mode)


def hypot(x: tuple[int, int], y: tuple[int, int], prec: int) -> tuple[int, int]:
    """sqrt(x^2 + y^2) at prec bits as mpmath's abs of a complex rounds it.

    The sum of the exact squares is rounded down at prec + 4 bits (mpf_add's
    default mode), and its square root correctly to nearest (mpf_sqrt); a
    zero part leaves the other part rounded to nearest.
    """
    if not (x[0] and y[0]):
        return rounded(abs(x[0] or y[0]), x[1] if x[0] else y[1], prec)
    (xm, xe), (ym, ye) = _exact(x), _exact(y)
    m, e = add((xm * xm, 2 * xe), (ym * ym, 2 * ye), prec + 4, "d")
    if e & 1:
        m, e = m << 1, e - 1
    shift = max(4, 2 * prec - m.bit_length() + 4)
    shift += shift & 1
    root = math.isqrt(m << shift)
    if root * root != m << shift:  # a sticky bit below the root's last
        root, shift = 2 * root + 1, shift + 2
    return rounded(root, (e - shift) // 2, prec)


def to_float(x: tuple[int, int]) -> float:
    """x as a double: rounded to nearest at 53 bits, then scaled (mpmath's float())."""
    m, e = rounded(*x, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def nint(x: tuple[int, int], prec: int) -> int:
    """The integer nearest to x, ties to even, then rounded to prec bits (mpf_nint)."""
    m, e = x
    if e < 0:
        q, r = divmod(m, 1 << -e)
        half = 1 << (-e - 1)
        m, e = q + (r > half or (r == half and q & 1)), 0
    m, e = rounded(m, e, prec)
    return m << e


def nstr(x: tuple[int, int], n: int) -> str:
    """x to n significant digits, as mpmath's nstr(x, n) writes it.

    The digits are taken rounded down to n + 3 places, then rounded to n
    (a carry out of ...999 moves the exponent); the position of the
    leading digit picks fixed point (strictly between min(-(n // 3), -5)
    and n) or an exponent; trailing zeros are stripped.
    """
    if not x[0]:
        return "0.0"
    sign, digits, exponent = _digits_exp(*_exact(x), n + 3)
    if len(digits) > n and digits[n] in "56789":
        digits = str(int(digits[:n]) + 1)
        if len(digits) > n:
            digits, exponent = digits[:n], exponent + 1
    else:
        digits = digits[:n]
    split = 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


def _digits_exp(m: int, e: int, dps: int) -> tuple[str, str, int]:
    """(sign, digits, exponent) of m 2^e (m odd), the digits rounded down (to_digits_exp).

    Past 2^+-3500 the value is first divided by 10^b, b = e ln 2 / ln 10
    truncated toward zero (from ln 2 and ln 10 rounded down to a few bits),
    so that the digits come from a number of modest size.
    """
    sign = "-" if m < 0 else ""
    m = abs(m)
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(e + m.bit_length()) > 3500:
        p = abs(e).bit_length() + 5
        ln2, ln10 = (rounded(ln(k, p + 20), -(p + 20), p, "d") for k in (2, 10))
        q, qe = div((e * ln2[0], ln2[1]), ln10, p, "d")
        b = abs(q) << qe if qe >= 0 else abs(q) >> -qe
        exponent = b if q > 0 else -b
        m, e = div((m, e), _pow10(exponent, bitprec, "d"), bitprec, "d")
    fixprec = max(bitprec - e - m.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


def _pow10(n: int, prec: int, mode: str) -> tuple[int, int]:
    """10^n at prec bits, as mpf_pow_int rounds it (directed, in `mode`, "d" or "u")."""
    if n < 0:
        return div((1, 0), _pow10(-n, prec + 5, "u" if mode == "d" else "d"), prec, mode)
    if 3 * n < 1000:
        return rounded(5**n, n, prec, mode)
    work = prec + 4 * n.bit_length() + 4

    def cut(v: int) -> tuple[int, int]:
        k = max(v.bit_length() - work, 0)
        return (v >> k if mode == "d" else -(-v >> k)), k

    man, exp, pm, pe = 5, 1, 1, 0
    while True:
        if n & 1:
            pm, k = cut(pm * man)
            pe += exp + k
            n -= 1
            if not n:
                return rounded(pm, pe, prec, mode)
        man, k = cut(man * man)
        exp += exp + k
        n //= 2


def _arc(a: int, b: int, P: int, tiny: int, sign: int) -> int:
    """sum_j sign^j z^(2j+1)/(2j+1), z = a/b, 0 <= 3a <= b, at 2^-P: atanh(z) or atan(z).

    The terms are added while each is at least `tiny` units, so the tail
    left out is below 9 tiny/8; each term is off by less than 3 units.
    """
    power, total, k = (a << P) // b, 0, 1
    a2, b2 = a * a, b * b
    while power // k >= tiny:
        total += sign ** (k // 2) * (power // k)
        power = power * a2 // b2
        k += 2
    return total


def ln(n: int, prec: int) -> int:
    """ln n at 2^-prec for an integer n >= 1, within 2 units.

    n = 2^k y with 1 <= y < 2: ln n = 2k atanh(1/3) + 2 atanh((y-1)/(y+1)),
    both series at prec + g bits, each stopped where its terms fall below
    1/(2k+2) units of 2^-prec: taken 2k and 2 times, the tails left out
    stay below 9/8 units and the roundings, with g guard bits, below 1/8;
    the sum is then rounded to nearest at 2^-prec.
    """
    k = n.bit_length() - 1
    g = (prec + 8).bit_length() + (k + 1).bit_length() + 6
    P = prec + g
    unit = 1 << g  # one unit of 2^-prec, at 2^-P
    total = 2 * _arc(n - (1 << k), n + (1 << k), P, unit // (2 * k + 2), 1)
    if k:
        total += 2 * k * _arc(1, 3, P, unit // (2 * k + 2), 1)
    return (total + (unit >> 1)) >> g


def exp(x: int, prec: int) -> int:
    """e^(x 2^-prec) at 2^-prec for x <= 0, within one unit.

    The argument is halved s times to below 2^-8, its Taylor series summed
    until a term vanishes, and the sum squared s times, all at P = prec + g
    bits: the truncations, below P units before the squarings and doubled
    at each, stay below 1/16 unit of 2^-prec as g >= s + bitlen(P) + 4.
    """
    s = (-x >> prec).bit_length() + 8
    g = s + (prec + s + 32).bit_length() + 4
    P = prec + g
    y = x << (g - s)  # x 2^-s, at 2^-P
    total = term = 1 << P
    k = 0
    while term:
        k += 1
        term = (term * y >> P) // k
        total += term
    for _ in range(s):
        total = total * total >> P
    return (total + (1 << (g - 1))) >> g


def cos_sin(M: int, prec: int) -> tuple[int, int]:
    """cos(2 pi/M) and sin(2 pi/M) at 2^-prec for M >= 4, each within one unit.

    pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239), then the Taylor
    series of e^{i theta}, theta = 2 pi/M <= pi/2, summed until a term
    vanishes, all at prec + g bits: with g = bitlen(prec) + 10 the tails
    and truncations stay below 1/2 unit of 2^-prec.
    """
    g = prec.bit_length() + 10
    P = prec + g
    pi = 16 * _arc(1, 5, P, 1, -1) - 4 * _arc(1, 239, P, 1, -1)
    theta = 2 * pi // M
    parts = [1 << P, 0]  # cos, sin
    term, k = 1 << P, 0
    while term:
        k += 1
        term = (term * theta >> P) // k
        parts[k % 2] += term if k % 4 < 2 else -term
    return tuple((v + (1 << (g - 1))) >> g for v in parts)
