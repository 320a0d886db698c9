"""The root reports' roundings, decimal strings and constants against mpmath."""

from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subtree_poly_lab import dyadic
from subtree_poly_lab.polyroots import _root_key, _vieta, root_modulus


def _mpf(x):
    # the dyadic (m, e) as an mpf, exactly
    return mp.make_mpf(from_man_exp(*x))


def _mpc(x):
    # the triple (xr, xi, t) as the mpc (xr + i xi) 2^-t, exactly
    xr, xi, t = x
    return mp.make_mpc((from_man_exp(xr, -t), from_man_exp(xi, -t)))


def _dyadic(v):
    # an mpf as the dyadic (m, e) with its sign, (0, 0) for zero
    sign, man, exp, _ = v._mpf_
    return ((-man if sign else man), exp) if man else (0, 0)


@settings(max_examples=400, deadline=None)
@given(
    mantissa=st.integers(-(2**2000), 2**2000),
    exponent=st.integers(-20000, 20000),
    digits=st.sampled_from([20, 25]),
)
# the largest parts below 2^-3500 and above 2^3500 take the power-of-ten branch
@example(mantissa=1, exponent=-1200, digits=25)
@example(mantissa=1, exponent=-3600, digits=25)
@example(mantissa=-3, exponent=3600, digits=20)
@example(mantissa=0, exponent=5, digits=25)
# past 2^3500, a mantissa of more than about 2,390 bits takes the short
# power of ten (3 n < 1000)
@example(mantissa=2**3000 + 1, exponent=600, digits=25)
def test_nstr_matches_mpmath(mantissa, exponent, digits):
    x = (mantissa, exponent)
    assert dyadic.nstr(x, digits) == mp.nstr(_mpf(x), digits)


def test_nstr_carries_into_a_new_exponent():
    # 2^s (1 - 2^-b) prints as ...999 to more than 25 places: rounding
    # carries into the next decade, on both sides of 2^+-3500
    carried = 0
    for bits in (90, 100, 200, 2000):
        for shift in (0, 1, 7, -20, 3600, -3600, 19000, -19000):
            for sign in (1, -1):
                x = (sign * ((1 << bits) - 1), shift - bits)
                for digits in (20, 25):
                    ours = dyadic.nstr(x, digits)
                    assert ours == mp.nstr(_mpf(x), digits)
                    carried += "999" not in ours
    assert carried == 4 * 8 * 2 * 2


def _mpmath_key(x, bits):
    # the sort key's rounded parts as find_roots computed them in mpmath
    with mp.workprec(bits):
        z = _mpc(x)
        return tuple(int(mp.nint(mp.ldexp(v, bits // 2))) for v in (z.real / abs(z), z.real))


_parts = st.integers(-(2**600), 2**600)


@settings(max_examples=400, deadline=None)
@given(xr=_parts, xi=_parts, t=st.integers(-700, 900), bits=st.integers(106, 700))
# sums of squares whose rounding down at bits + 4 (not to nearest) sets
# the modulus' last bit
@example(xr=5866615803427217691441940711785510152371998374301959770055,
         xi=2899380593235079862583016745254643799779784291636751976553, t=188, bits=192)
@example(xr=38650669856667045377781497522884260443969185441298241424204962881910068692081,
         xi=48012741782070400775994975003510987205562050217647011465249995133251014925371,
         t=256, bits=256)
@example(xr=55427969835858825407093487495257, xi=55872736314998626512261904376185, t=103, bits=106)
# a part far below the other: the smaller square is a sticky unit
@example(xr=-(3**150) << 400, xi=7, t=500, bits=128)
@example(xr=0, xi=-(5**90), t=3, bits=106)
def test_modulus_and_sort_key_round_as_mpmath(xr, xi, t, bits):
    x = (xr, xi, t)
    with mp.workprec(bits):
        modulus = abs(_mpc(x))
    assert root_modulus(x, bits) == _dyadic(modulus)
    assert dyadic.to_float(root_modulus(x, bits)) == float(modulus)
    if xr or xi:
        key = _root_key(x, bits)
        assert key[:2] == _mpmath_key(x, bits)
        assert key[2] == Fraction(xi) * Fraction(2) ** -t


@settings(max_examples=150, deadline=None)
@given(
    xs=st.lists(st.tuples(_parts, _parts, st.integers(-100, 700)), max_size=8),
    s1=st.integers(1, 2**80),
    sn=st.integers(1, 2**2000),
    bits=st.integers(106, 700),
)
def test_vieta_fields_round_as_mpmath(xs, s1, sn, bits):
    product, target, relative = _vieta(xs, s1, sn, bits)
    with mp.workprec(bits):
        their_product = mp.fprod(abs(_mpc(x)) for x in xs)
        their_target = mp.mpf(s1) / mp.mpf(sn)
        their_relative = float(abs(their_product - their_target) / their_target)
    assert (product, target) == (_dyadic(their_product), _dyadic(their_target))
    assert relative == their_relative


_precisions = st.integers(256, 4096)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(1, 300), st.integers(1, 10**12)), prec=_precisions)
@example(n=2, prec=256)
@example(n=120, prec=4096)
@example(n=1000, prec=1000)
def test_ln_is_within_two_units(n, prec):
    with mp.workprec(prec + 64):
        assert abs(dyadic.ln(n, prec) - mp.ln(n) * mp.ldexp(1, prec)) <= 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), prec=_precisions)
def test_exp_is_within_one_unit(data, prec):
    x = -data.draw(st.integers(0, 2 ** (prec + 5)))  # e^y for -32 <= y <= 0
    with mp.workprec(prec + 64):
        assert abs(dyadic.exp(x, prec) - mp.exp(mp.ldexp(x, -prec)) * mp.ldexp(1, prec)) <= 1


@settings(max_examples=60, deadline=None)
@given(quarter=st.integers(1, 4096), prec=_precisions)
@example(quarter=1, prec=4096)
def test_cos_sin_are_within_one_unit(quarter, prec):
    M = 4 * quarter
    c, s = dyadic.cos_sin(M, prec)
    with mp.workprec(prec + 64):
        angle = 2 * mp.pi / M
        assert abs(c - mp.cos(angle) * mp.ldexp(1, prec)) <= 1
        assert abs(s - mp.sin(angle) * mp.ldexp(1, prec)) <= 1
