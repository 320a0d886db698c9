"""Polynomial construction, certified roots, margins, deviations."""

import math
import os
import sys
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, mpf_neg
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subtree_poly_lab import (
    CapacityError,
    CertificationError,
    Graph,
    SubtreeCountVector,
    ValidationError,
    build_polynomial,
    complete_graph_counts,
    degree_profile,
    exact_beta,
    find_roots,
    generate,
    generate_connected,
    parse_family,
    poisson_deviation,
    rouche_margin,
    subtree_counts,
    tree_root_check,
)
from subtree_poly_lab import dyadic, polyroots
from subtree_poly_lab.counting import counts_for
from subtree_poly_lab.params import DEFAULT_PRECISION_BITS
from subtree_poly_lab.polyroots import (
    MAX_START_SWEEPS,
    RESIDUAL_THRESHOLD,
    TREE_ROOT_BOUND,
    VIETA_RELATIVE_TOLERANCE,
    _aberth_step,
    _certified,
    _exact_repulsion,
    _fixed_derivative,
    _fixed_horner,
    _float_start,
    _guarded,
    _horner,
    _inclusion_disks,
    _modulus,
    _polish,
    _reciprocal,
    _repulsion,
    _rounded,
    _root_key,
    _root_ratio,
    _scaled_copy,
    _scaled_ratio,
    _start_step,
    _top_bits,
    _unit_roots,
    _work_bits,
)


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _vector(*coefficients):
    return SubtreeCountVector(n=len(coefficients), counts=coefficients)


def _exact(x):
    # a triple (xr, xi, t) as the mpc (xr + i xi) 2^-t, exactly: the roots of
    # a RootAnalysis, a polish iterate or a repulsion (rr, ri, k)
    xr, xi, t = x
    return mp.make_mpc((from_man_exp(xr, -t), from_man_exp(xi, -t)))


def _triple(x):
    # the mpc x exactly as a triple (xr, xi, t)
    (sr, mr, er, _), (si, mi, ei, _) = x._mpc_
    t = -min(er, ei)
    return (-mr if sr else mr) << (er + t), (-mi if si else mi) << (ei + t), t


def _closest(roots, target):
    return min(abs(complex(_exact(r)) - target) for r in roots)


# ------------------------------------------------------------ construction


def test_build_polynomial_examples():
    # the coefficients of S(x) are the count vector itself
    for family, coefficients in [("path(3)", (3, 2, 1)), ("complete(3)", (3, 3, 3)),
                                 ("complete(1)", (1,))]:
        c = subtree_counts(generate(family))
        assert build_polynomial(c) is c
        assert c.counts == coefficients


def test_polynomial_validation():
    with pytest.raises(ValidationError):
        SubtreeCountVector(n=0, counts=())
    with pytest.raises(ValidationError, match="s_1 must be positive"):
        find_roots(SubtreeCountVector(n=2, counts=(0, 1)))


def test_reversed_series_invariants():
    # the coefficients s_{n-k}/s_n of F(y) are what poisson_deviation
    # normalizes: F = 1 + beta y + ..., with n of them
    counts = complete_graph_counts(9)
    beta = exact_beta(counts)
    devs = poisson_deviation(counts, 8)
    ratios = [(1 + dev) * beta**k / math.factorial(k) for k, dev in enumerate(devs)]
    assert ratios == [Fraction(counts.s(9 - k), counts.s(9)) for k in range(9)]
    assert ratios[0] == 1
    assert ratios[1] == beta == Fraction(counts.s(8), counts.s(9))


# ------------------------------------------------------------------- roots


def test_p3_roots_closed_form():
    # x^2 + 2x + 3 = 0 -> -1 +/- i sqrt(2)
    analysis = find_roots(subtree_counts(generate("path(3)")))
    assert len(analysis.roots) == 3
    assert _closest(analysis.roots, 0) == 0
    assert _closest(analysis.roots, complex(-1, math.sqrt(2))) < 1e-12
    assert _closest(analysis.roots, complex(-1, -math.sqrt(2))) < 1e-12
    assert analysis.max_modulus == pytest.approx(math.sqrt(3), abs=1e-12)


def test_k3_roots_cube_roots_of_unity():
    analysis = find_roots(subtree_counts(generate("complete(3)")))
    w = complex(-0.5, math.sqrt(3) / 2)
    assert _closest(analysis.roots, w) < 1e-12
    assert _closest(analysis.roots, w.conjugate()) < 1e-12
    assert analysis.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_single_vertex_polynomial():
    analysis = find_roots(_vector(1))
    assert analysis.roots == ((0, 0, 0),)
    assert analysis.max_modulus == 0.0


def test_p2_roots():
    analysis = find_roots(subtree_counts(generate("path(2)")))
    assert _closest(analysis.roots, -2.0) < 1e-14
    assert analysis.max_modulus == pytest.approx(2.0)


def test_disconnected_source_trims_trailing_zeros():
    # 2K_2 has no 3- or 4-vertex subtrees: S = 4x + 2x^2, true degree 2
    counts = subtree_counts(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert counts.counts == (4, 2, 0, 0)
    analysis = find_roots(counts)
    assert len(analysis.roots) == 2
    assert _closest(analysis.roots, -2.0) < 1e-14


def test_root_count_and_certification_fields():
    for family in ["cycle(6)", "complete(7)", "path(8)", "gnp(8,0.7)"]:
        counts = subtree_counts(generate(family, seed=3))
        analysis = find_roots(counts)
        assert len(analysis.roots) == counts.n
        assert all(r <= 1e-20 for r in analysis.residuals)
        assert analysis.vieta_relative_error <= 1e-8
        assert analysis.precision_bits >= 106


def test_conjugate_symmetry():
    for family in ["complete(9)", "cycle(8)", "gnp(9,0.6)"]:
        analysis = find_roots(subtree_counts(generate(family, seed=5)))
        pool = [complex(_exact(r)) for r in analysis.roots]
        for r in pool:
            assert min(abs(r.conjugate() - q) for q in pool) < 1e-18


def _conjugate_key(x):
    # the exact parts of conj(x), negated without rounding
    return x.real._mpf_, mpf_neg(x.imag._mpf_)


def _closure_hosts():
    # (family, seed) of a connected gnp host, a cycle, a path or a random tree
    gnp = st.tuples(st.integers(3, 13), st.sampled_from([0.3, 0.5, 0.7])).map(
        lambda args: "gnp({},{})".format(*args)
    )
    cycles = st.integers(3, 24).map(lambda n: f"cycle({n})")
    paths = st.integers(2, 60).map(lambda n: f"path({n})")
    trees = st.integers(2, 70).map(lambda n: f"random_tree({n})")
    return st.tuples(st.one_of(gnp, cycles, paths, trees), st.integers(0, 10**6))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(host=_closure_hosts())
# a pair splits into two real slots in the polish on these trees
@example(host=("random_tree(50)", 1))
@example(host=("random_tree(100)", 2))
def test_roots_are_closed_under_conjugation_bit_for_bit(host):
    # the polish corrects one root of each pair and sets its mirror to the
    # exact conjugate, and holds a real slot on the axis: every non-real
    # root's conjugate is present bit for bit, a real root has imaginary
    # part exactly 0 (printed as 0.0), and the two roots of a pair carry the
    # same residual. None of these hosts needs the re-polish, which drops
    # the mirrors
    family, seed = host
    spec = parse_family(family)
    counts = counts_for(generate_connected(spec, seed)[0] if family.startswith("gnp")
                        else generate(spec, seed=seed), spec)
    analysis = find_roots(counts)
    assert analysis.precision_bits == max(DEFAULT_PRECISION_BITS, max(counts.counts).bit_length() + 64)
    roots, residuals = [_exact(x) for x in analysis.roots[1:]], analysis.residuals[1:]
    residual_of = {(x.real._mpf_, x.imag._mpf_): r for x, r in zip(roots, residuals)}
    keys = Counter((x.real._mpf_, x.imag._mpf_) for x in roots)
    assert keys == Counter(_conjugate_key(x) for x in roots)
    with mp.workprec(analysis.precision_bits):
        for x, residual in zip(roots, residuals):
            if abs(x.imag) <= 1e-30 * abs(x):
                assert x.imag == 0 and mp.nstr(x.imag, 25) == "0.0"
            else:
                assert residual_of[_conjugate_key(x)] == residual


def test_conjugate_pair_order_ignores_noise_in_real_parts():
    # the two real parts of a pair agree only up to rounding noise; the
    # order must not depend on which of them the noise makes larger
    with mp.workprec(256):
        re, im = mp.mpf("-0.1180347582202573965633483"), mp.mpf("0.37")
        for noise in (mp.ldexp(re, -240), -mp.ldexp(re, -240)):
            pair = [mp.mpc(re + noise, im), mp.mpc(re, -im)]
            for candidates in (pair, pair[::-1]):
                ordered = sorted(candidates, key=lambda x: _root_key(_triple(x), 256))
                assert [x.imag for x in ordered] == [-im, im]


def test_roots_list_each_pair_negative_imaginary_first():
    for n in (12, 40):
        roots = [_exact(x) for x in find_roots(complete_graph_counts(n)).roots[1:]]
        i = 0
        while i < len(roots):
            x = roots[i]
            if abs(x.imag) <= 1e-30 * abs(x):  # a real root
                i += 1
                continue
            assert x.imag < 0 and abs(roots[i + 1] - mp.conj(x)) < 1e-12 * abs(x)
            i += 2


def test_vieta_product_value():
    counts = subtree_counts(generate("complete(6)"))
    analysis = find_roots(counts)
    target = counts.s(1) / counts.s(6)
    assert math.ldexp(*analysis.vieta_product) == pytest.approx(target, rel=1e-12)


def test_cluster_reporting_total_multiplicity():
    counts = subtree_counts(generate("complete(5)"))
    analysis = find_roots(counts)
    assert sum(mult for _, mult in analysis.clusters) == counts.n


def test_precision_floor_enforced():
    for bits in (64, 105):
        with pytest.raises(ValidationError, match="at least 106"):
            find_roots(_vector(3, 2, 1), precision_bits=bits)
    with pytest.raises(ValidationError, match="at least 106"):
        rouche_margin(complete_graph_counts(5), Fraction(4, 5), precision_bits=10)


def test_extended_range_closed_form():
    # 3 + 2v + v^2 has roots v = -1 +/- i sqrt(2); with y = 2^600 v the
    # reversed series has the ratio s_1/s_3 = 2^-1200/3, far below double
    # range, and the roots x = 1/y must still come out to 25 digits
    scale = 2**600
    analysis = find_roots(_vector(1, 2 * scale, 3 * scale**2))
    with mp.workprec(256):
        v = [1 / (_exact(r) * scale) for r in analysis.roots[1:]]
        for target in (mp.mpc(-1, mp.sqrt(2)), mp.mpc(-1, -mp.sqrt(2))):
            assert min(abs(r - target) for r in v) < mp.mpf(10) ** -25


def _quadratic_roots(c, b, a):
    # the two roots of a x^2 + b x + c (b >= 0), by the quadratic formula
    # in its cancellation-free form q = -(b + sqrt(b^2 - 4ac))/2: q/a, c/q
    with mp.workprec(4096):
        q = -(b + mp.sqrt(mp.mpc(b * b - 4 * a * c))) / 2
        return [q / a, c / q]


@pytest.mark.parametrize(
    "coefficients", [(1, 1, 2**1100), (2**1100, 1, 1), (1, 2**3000, 1)]
)
def test_quadratic_roots_past_double_range(coefficients):
    # s_1/s_n rounds to 0 or overflows in doubles; the scaled start must not,
    # and where no power of two brings the ratios into range (roots 2^-3000
    # and 2^3000 apart) the polish must still get there from a cold start
    analysis = find_roots(_vector(*coefficients))
    assert analysis.vieta_relative_error <= 1e-8
    with mp.workprec(256):
        for target in _quadratic_roots(*coefficients):
            assert min(abs(_exact(r) - target) for r in analysis.roots[1:]) < abs(target) * mp.mpf(10) ** -40


def test_k80_certifies_and_meets_vieta():
    # K_80 once let two Newton iterates settle on one root (Vieta error 38)
    counts = complete_graph_counts(80)
    analysis = find_roots(counts)
    assert len(analysis.roots) == 80
    assert max(analysis.residuals) <= 1e-20
    s = counts.counts
    with mp.workprec(256):
        nonzero = [_exact(r) for r in analysis.roots[1:]]
        product = mp.fprod(abs(r) for r in nonzero)
        assert abs(product / (mp.mpf(s[0]) / s[-1]) - 1) < 1e-8
        total = mp.fsum(nonzero)
        target = -mp.mpf(s[-2]) / s[-1]
        assert abs(total - target) < 1e-8 * abs(target)


@pytest.mark.parametrize(
    "n, precision_bits, ladder",
    [(40, 106, [106]), (40, 512, [128, 256, 512]), (80, 192, [128, 192]),
     (120, 192, [128, 192, 384]), (160, 192, [128, 192, 384])],
)
def test_find_roots_polishes_once_per_rung_from_128(monkeypatch, n, precision_bits, ladder):
    # one _polish call per rung: min(128, precision_bits), doubled up to
    # precision_bits, then doubled on where the inclusion disks prove nothing
    # (K_120 and K_160 at 192 bits; their caps are 880 and 1221)
    polish = polyroots._polish
    rungs = []

    def recorded(s, tops, xs, e, bits, mirrors):
        rungs.append(bits)
        return polish(s, tops, xs, e, bits, mirrors)

    monkeypatch.setattr(polyroots, "_polish", recorded)
    analysis = find_roots(complete_graph_counts(n), precision_bits)
    assert rungs == ladder
    assert analysis.precision_bits == ladder[-1]


def _inline_fixed_horner(s, trail, g, m):
    # (Q re, Q im, Q' re, Q' im) with Q' by the recurrence run inside the
    # value pass, as the evaluator did before Q' moved to its own loop over
    # the kept partial sums: the exact-integer oracle for that split, on
    # the fixed-point x, F and scale of the same _fixed_horner pass
    xr, xsum, xdif, f, _ = trail
    d = len(s) - 1
    shift = g - m * d
    pr = s[-1] << shift if shift >= 0 else s[-1] >> -shift
    pi = dr = di = 0
    for k in range(d - 1, -1, -1):
        t = xr * (dr + di)
        dr, di = ((t - di * xsum) >> f) + pr, ((t + dr * xdif) >> f) + pi
        shift += m
        c = s[k] << shift if shift >= 0 else s[k] >> -shift
        t = xr * (pr + pi)
        pr, pi = ((t - pi * xsum) >> f) + c, (t + pr * xdif) >> f
    return pr, pi, dr, di


@settings(max_examples=60, deadline=None)
@given(
    s=st.lists(st.integers(0, 2**1200), min_size=1, max_size=11).map(
        lambda rest: [1 + rest[0]] + rest[1:]  # s_1 >= 1, as in every S(x)
    ),
    log_modulus=st.integers(-600, 600),
    turn=st.integers(0, 359),
    bits=st.sampled_from([128, 192, 256, 512]),
)
def test_fixed_horner_matches_mpmath_horner(s, log_modulus, turn, bits):
    # Q, Q' and Q(|x|) from the integer evaluator against mpmath's Horner at
    # the stage precision; both err by at most a few d 2^-bits of the scale.
    # Q' from the kept partial sums is the same pair of integers as the
    # recurrence run inside the value pass.
    d = len(s) - 1
    with mp.workprec(bits):
        x = mp.expjpi(mp.mpf(turn) / 180) * mp.ldexp(1, log_modulus)
        q = _horner([mp.mpf(c) for c in s], x)
        dq = _horner([mp.mpf(k * c) for k, c in enumerate(s) if k] or [mp.mpf(0)], x)
        scale = _horner([mp.mpf(c) for c in s], abs(x))
    point = _fixed_point(x, bits, len(s))
    pr, pi, fixed_scale, g, m, trail = _fixed_horner(s, _top_bits(s), point, bits)
    dr, di = _fixed_derivative(trail)
    assert _inline_fixed_horner(s, trail, g, m) == (pr, pi, dr, di)
    with mp.workprec(4 * bits + 600 * (d + 2) + 2500):
        size = abs(x)
        true_scale = mp.fsum(c * size**k for k, c in enumerate(s))
        dscale = mp.fsum(k * c * size ** (k - 1) for k, c in enumerate(s) if k)
        tol = 8 * (d + 1) * mp.ldexp(1, -bits)
        assert abs(mp.mpc(pr, pi) * mp.ldexp(1, -g) - q) <= tol * true_scale
        assert abs(mp.ldexp(fixed_scale, -g) - scale) <= tol * true_scale
        assert abs(mp.mpc(dr, di) * mp.ldexp(1, m - g) - dq) <= tol * dscale


def _fixed_point(x, bits: int, n: int) -> tuple[int, int, int]:
    # the mpc x as the Gaussian fixed point (xr, xi, t) that _fixed_horner
    # reads at `bits` for n coefficients: its exact triple rounded to the
    # evaluator's F = _guarded(bits, n) bits
    return _rounded(*_triple(x), _guarded(bits, n))


@settings(max_examples=100, deadline=None)
@given(
    mantissas=st.tuples(st.integers(-2**600, 2**600), st.integers(-2**600, 2**600)),
    exponents=st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)),
    bits=st.sampled_from([106, 128, 192, 256, 512]),
    n=st.integers(1, 300),
)
def test_fixed_point_is_within_one_unit_of_the_point(mantissas, exponents, bits, n):
    # the triple of an mpc, at any precision and with parts of any relative
    # size, is the point rounded to the evaluator's F bits: each part
    # within one unit of 2^-t, the larger part between 2^(F-3) and 2^F
    with mp.workprec(600):
        x = mp.mpc(*(mp.ldexp(c, k) for c, k in zip(mantissas, exponents)))
    xr, xi, t = _fixed_point(x, bits, len(range(n)))
    for ours, part in ((xr, x.real), (xi, x.imag)):
        sign, man, exp, _ = part._mpf_
        assert abs(ours - (-1) ** sign * man * Fraction(2) ** (exp + t)) <= 1
    if any(mantissas):
        f = bits + 2 * (4 * n).bit_length()
        assert 2 ** (f - 3) <= max(abs(xr), abs(xi)) <= 2**f


def test_fixed_horner_at_zero():
    origin = _fixed_point(mp.mpc(0), 128, 3)
    pr, pi, scale, g, m, trail = _fixed_horner([5, 3, 7], _top_bits([5, 3, 7]), origin, 128)
    assert (pr, pi, scale) == (5 << g, 0, 5 << g)
    assert _fixed_derivative(trail) == (3 << (g - m), 0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 9), p=st.floats(0.2, 0.9), seed=st.integers(0, 10**6))
def test_roots_match_mpmath_polyroots(n, p, seed):
    # an independent root finder (Durand-Kerner at raised precision) gives
    # the same multiset of roots
    g, _ = generate_connected(f"gnp({n},{p})", seed)
    counts = subtree_counts(g)
    ours = [_exact(r) for r in find_roots(counts).roots]
    s = counts.counts
    with mp.workprec(256):
        reference = [mp.mpc(0)] + list(mp.polyroots(s[::-1], maxsteps=200, extraprec=512))
        for r in reference:
            nearest = min(range(len(ours)), key=lambda i: abs(ours[i] - r))
            assert abs(ours.pop(nearest) - r) < 1e-30 * max(1, abs(r))
    assert not ours


def _rungs(work_bits):
    # the ladder up to work_bits: 128, 256, 512, ... below it, then work_bits
    rungs = [min(128, work_bits)]
    while rungs[-1] < work_bits:
        rungs.append(min(2 * rungs[-1], work_bits))
    return rungs


def _ladder_polish(s, tops, u, e, work_bits):
    # the polish of find_roots from the double start u, one _polish call per
    # rung up to work_bits, slot d-1-j the mirror of slot j as on the
    # symmetric start circle; the corrections are counted per rung
    rungs = _rungs(work_bits)
    xs = [_reciprocal(uj, e, rungs[0]) for uj in u]
    mirrors = [len(u) - 1 - j for j in range(len(u))]
    corrections = []
    for bits in rungs:
        xs, count, evaluated, mirrors = _polish(s, tops, xs, e, bits, mirrors)
        corrections.append(count)
    return xs, corrections, evaluated, mirrors


@pytest.mark.parametrize("n", [40, 60, 80])
def test_final_polish_stage_corrects_each_root_at_most_once_on_average(n):
    # the ladder leaves the full-precision stage at most d corrections
    s = complete_graph_counts(n).counts
    work_bits = max(DEFAULT_PRECISION_BITS, max(c.bit_length() for c in s) + 64)
    u, e, _ = _float_start(s)
    _, corrections, _, _ = _ladder_polish(s, _top_bits(s), u, e, work_bits)
    assert len(corrections) == len(_rungs(work_bits)) >= 2
    assert corrections[-1] <= n - 1


def test_polish_makes_no_mpmath_call():
    # every test, Newton quotient and Aberth step of the K_40 polish, and its
    # inclusion disks, run on Python integers and doubles: no function of
    # the mpmath package is entered
    s = complete_graph_counts(40).counts
    work_bits = max(DEFAULT_PRECISION_BITS, max(s).bit_length() + 64)
    u, e, _ = _float_start(s)
    package = os.path.dirname(mp.__file__)
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        xs, corrections, evaluated, mirrors = _ladder_polish(s, _top_bits(s), u, e, work_bits)
        for x in xs:
            if x not in evaluated:
                evaluated[x] = _fixed_horner(s, _top_bits(s), x, work_bits)[:4]
        radii = _inclusion_disks(s, xs, mirrors, evaluated, DEFAULT_PRECISION_BITS - 64)
    finally:
        sys.setprofile(None)
    assert not entered
    assert radii is not None
    # one correction per leader or real slot corrected: [66, 39, 6] while
    # both roots of a pair were corrected
    assert corrections == [33, 20, 3]


def _all_top_bits(s):
    # every point (k, bitlen(s_k) - 1) that _top_bits takes its hull from
    return [(k, c.bit_length() - 1) for k, c in enumerate(s) if k and c]


def test_top_bits_hull_gives_the_scale_of_all_points():
    # the evaluator's outputs (its scale exponent G above all) from the hull
    # equal those from all points, at points of modulus 1.37^j for
    # |j| <= 130 (about 2^-59 to 2^59) on every host
    hosts = [complete_graph_counts(n).counts for n in range(2, 161)]
    hosts += [counts_for(generate(f"random_tree({n})", seed)).counts
              for n in (5, 30, 80, 150) for seed in (0, 1)]
    hosts += [subtree_counts(generate_connected(f"gnp({n},{p})", seed)[0]).counts
              for n in (8, 12) for p in (0.3, 0.7) for seed in (1, 2)]
    hosts += [counts_for(generate(f"cycle({n})")).counts for n in (5, 17)]
    with mp.workprec(128):
        points = [mp.mpf(1.37) ** j * mp.expjpi(mp.mpf(j) / 7) for j in range(-130, 131, 9)]
    for s in hosts:
        tops, everything = _top_bits(s), _all_top_bits(s)
        assert set(tops) <= set(everything)
        for point in points:
            x = _fixed_point(point, 128, len(s))
            ours = _fixed_horner(s, tops, x, 128)
            theirs = _fixed_horner(s, everything, x, 128)
            assert ours[:5] == theirs[:5]


def test_top_bits_keeps_the_upper_hull():
    # (1, 0), (2, 5), (3, 6), (4, 7), (5, 3): (3, 6) lies on the chord from
    # (2, 5) to (4, 7) and stays; nothing lies strictly above the kept chain
    assert _top_bits([9, 1, 32, 64, 128, 8]) == [(1, 0), (2, 5), (3, 6), (4, 7), (5, 3)]
    assert _top_bits([9, 1, 2, 64, 0, 8]) == [(1, 0), (3, 6), (5, 3)]


def _counting_evaluator(monkeypatch):
    # wrap the evaluator and the Q' pass; "polish" holds the value passes
    # counted when _polish returned
    calls = Counter()
    fixed_horner, fixed_derivative, polish = (
        polyroots._fixed_horner, polyroots._fixed_derivative, polyroots._polish
    )

    def value_pass(*args, **kwargs):
        calls["value"] += 1
        return fixed_horner(*args, **kwargs)

    def derivative_pass(trail):
        calls["derivative"] += 1
        return fixed_derivative(trail)

    def counted_polish(*args):
        result = polish(*args)
        calls["polish"] = calls["value"]
        return result

    monkeypatch.setattr(polyroots, "_fixed_horner", value_pass)
    monkeypatch.setattr(polyroots, "_fixed_derivative", derivative_pass)
    monkeypatch.setattr(polyroots, "_polish", counted_polish)
    return calls


@pytest.mark.parametrize(
    # (221, 111, 6), (429, 256, 0) and (960, 644, 0) while both roots of a
    # pair were evaluated and corrected; (113, 56, 3), (223, 135, 0) and
    # (500, 340, 0) while every polish climbed to the cap _work_bits
    # (267, 407 and 558 bits) where it now stops at 192
    "n, values, derivatives, fresh", [(40, 93, 53, 0), (60, 163, 105, 0), (80, 347, 267, 0)]
)
def test_root_kernel_work_counts(monkeypatch, n, values, derivatives, fresh):
    # deterministic work of find_roots on K_n: the polish's value passes, a
    # Q' pass per correction, and a certification pass only for the roots
    # that stopped on their step size (moved after their last evaluation),
    # one pass for both roots of a pair
    calls = _counting_evaluator(monkeypatch)
    counts = complete_graph_counts(n)
    analysis = find_roots(counts)
    iterations_after_start = analysis.iterations - _float_start(counts.counts)[2]
    assert calls["polish"] == values
    assert calls["derivative"] == derivatives == iterations_after_start
    assert calls["value"] - calls["polish"] == fresh
    # a reused residual is the one a fresh evaluation gives at the root or,
    # for a mirror, at its leader, the conjugate (the truncations of the
    # evaluator round the two differently)
    s, work_bits = counts.counts, analysis.precision_bits
    with mp.workprec(work_bits):
        for x, residual in zip(analysis.roots[1:], analysis.residuals[1:], strict=True):
            fresh_residuals = set()
            for point in (_exact(x), mp.conj(_exact(x))):
                point = _fixed_point(point, work_bits, len(s))
                pr, pi, scale, _, _, _ = _fixed_horner(s, _top_bits(s), point, work_bits)
                fresh_residuals.add(float(abs(mp.mpc(pr, pi)) / scale))
            assert residual in fresh_residuals


@pytest.mark.parametrize("circle_points, evaluations", [(256, 129), (8, 5), (6, 5), (7, 6), (1, 3)])
def test_rouche_evaluates_one_point_per_conjugate_pair(monkeypatch, circle_points, evaluations):
    # one margin for the points j <= N/2 of the circle, plus -1 for odd N
    # and i unless 4 | N
    margins = Counter()
    monkeypatch.setattr(polyroots, "_root_ratio", _counted(margins, "margin", _root_ratio))
    rouche_margin(complete_graph_counts(120), Fraction(119, 120), circle_points=circle_points)
    assert margins["margin"] == evaluations


def test_rouche_takes_no_horner_pass_and_the_same_series_at_every_n(monkeypatch):
    # the whole circle comes from one transform: one integer series each
    # gives ln n (for the radius and n^(-1/C)), n^(-1/C) and one root of
    # unity, however many points there are
    calls = _counting_evaluator(monkeypatch)
    for name in ("ln", "exp", "cos_sin"):
        monkeypatch.setattr(dyadic, name, _counted(calls, name, getattr(dyadic, name)))
    per_n = []
    for circle_points in (1, 7, 256):
        calls.clear()
        rouche_margin(complete_graph_counts(120), Fraction(119, 120), circle_points=circle_points)
        per_n.append(dict(calls))
    assert per_n[0] == per_n[1] == per_n[2] == {"ln": 1, "exp": 1, "cos_sin": 1}


def _counted(calls, name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def _numpy_float_start(s):
    # the reference for _float_start: the same Aberth iteration vectorised
    # over complex128 arrays, where non-finite values propagate instead of
    # raising: the leaders and the real point of the symmetric circle are
    # stepped, each mirror set to its leader's conjugate
    n = len(s)
    d = n - 1
    e = round((s[-1].bit_length() - s[0].bit_length()) / d)
    coeffs = np.array([_scaled_ratio(s[n - 1 - k], s[-1], e * k) for k in range(n)])
    dcoeffs = coeffs[1:] * np.arange(1, n)
    circle = np.exp(1j * np.pi * (2 * np.arange(d) + 1) / d)
    circle[d // 2:] = np.conj(circle[: (d + 1) // 2][::-1])  # exact mirrors
    circle[d // 2] = -1 if d % 2 else circle[d // 2]
    if not np.isfinite(coeffs).all():
        return circle, e, 0
    z0 = abs(coeffs[0] / coeffs[d]) ** (1.0 / d) * circle
    z = z0.copy()
    active = np.arange((d + 1) // 2)
    tiny = 4 * d * 2.0**-52
    sweeps = 0
    with np.errstate(all="ignore"):
        while active.size and sweeps < MAX_START_SWEEPS:
            sweeps += 1
            za = z[active]
            p = _horner(coeffs, za)
            dp = _horner(dcoeffs, za)
            scale = _horner(coeffs, np.abs(za))
            diff = za[:, None] - z[None, :]
            diff[diff == 0] = np.inf
            newton = p / dp
            step = newton / (1 - newton * (1 / diff).sum(axis=1))
            moving = (np.abs(p) > tiny * scale) & np.isfinite(step)
            za = za - step
            real = 2 * active + 1 == d
            za[real] = za[real].real
            za[za.imag < 0] = np.conj(za[za.imag < 0])  # a pair that crossed the axis, reflected
            z[d - 1 - active[moving]] = np.conj(za[moving])
            z[active[moving]] = za[moving]
            active = active[moving]
    bad = ~np.isfinite(z)
    z[bad] = z0[bad]
    return z, e, sweeps


def _start_hosts():
    # s_1..s_n of K_n (n <= 60), a connected gnp host (n <= 12) or a random tree (n <= 40)
    complete = st.integers(2, 60).map(lambda n: complete_graph_counts(n).counts)

    def gnp(args):
        n, p, seed = args
        return counts_for(generate_connected(f"gnp({n},{p})", seed)[0]).counts

    def tree(args):
        n, seed = args
        return counts_for(generate(f"random_tree({n})", seed)).counts

    sparse = st.tuples(st.integers(2, 12), st.floats(0.2, 0.9), st.integers(0, 10**6)).map(gnp)
    trees = st.tuples(st.integers(2, 40), st.integers(0, 10**6)).map(tree)
    return st.one_of(complete, sparse, trees)


@settings(max_examples=30, deadline=None)
@given(s=_start_hosts())
def test_float_start_polishes_to_the_roots_of_the_numpy_start(s):
    # the two starts round differently (complex division, summation order),
    # so the polish leaves each at a slightly different iterate: both must
    # certify, and agree to the polish's step tolerance 2^-(work_bits-16)|x|
    # times the root's condition number Q(|x|) / (|x| |Q'(x)|) where that
    # exceeds 1 (on K_41 one root has it near 1.3e7, and the reference start
    # scaled by 1 + 2^-40 ends 500 step tolerances away on that root)
    work_bits = max(DEFAULT_PRECISION_BITS, max(s).bit_length() + 64)
    tops = _top_bits(s)
    u, e, _ = _float_start(s)
    reference_u, reference_e, _ = _numpy_float_start(s)
    assert (e, len(u)) == (reference_e, len(reference_u))
    ours, _, _, _ = _ladder_polish(s, tops, u, e, work_bits)
    theirs, _, _, _ = _ladder_polish(s, tops, [complex(v) for v in reference_u], e, work_bits)
    with mp.workprec(work_bits):
        for x in theirs:
            pr, pi, scale, _, _, _ = _fixed_horner(s, tops, x, work_bits)
            assert abs(mp.mpc(pr, pi)) / scale <= RESIDUAL_THRESHOLD
        step_tolerance = mp.ldexp(1, -(work_bits - 16))
        theirs = [_exact(x) for x in theirs]
        for point in ours:
            pr, pi, scale, _, m, trail = _fixed_horner(s, tops, point, work_bits)
            dr, di = _fixed_derivative(trail)
            assert abs(mp.mpc(pr, pi)) / scale <= RESIDUAL_THRESHOLD
            x = _exact(point)
            condition = scale / (abs(x) * abs(mp.mpc(dr, di)) * mp.ldexp(1, m))
            nearest = min(range(len(theirs)), key=lambda i: abs(theirs[i] - x))
            distance = abs(theirs.pop(nearest) - x)
            assert distance <= step_tolerance * abs(x) * max(1, condition)
    assert not theirs


def test_float_start_stops_where_complex128_gave_inf_or_nan():
    # Python raises where the complex128 reference computed inf or NaN; each
    # case must end as it did there
    assert _modulus(complex(1.7e308, 1.7e308)) == math.inf  # abs() raises
    # F(u) = 1 + u^2 at u = 0: F' = 0, so the Newton quotient has no value
    assert _start_step([1.0, 0.0, 1.0], [0.0, 2.0], [0j, 5 + 0j], 0, 1e-15) is None
    assert _start_step([1.0, 0.0, 1.0], [0.0, 2.0], [1 + 0j, 5 + 0j], 0, 1e-15) is not None


def test_float_start_restarts_roots_that_leave_double_range(monkeypatch):
    # a finite step can land a root on an infinite iterate; such a root
    # goes back to its start on the circle, which no sweep leaves
    s = complete_graph_counts(6).counts
    monkeypatch.setattr(polyroots, "MAX_START_SWEEPS", 0)
    start, e, _ = _float_start(s)
    monkeypatch.setattr(polyroots, "_start_step", lambda *args: -1e308)
    monkeypatch.setattr(polyroots, "MAX_START_SWEEPS", 1)
    once, _, _ = _float_start(s)  # every root moved by 1e308, still finite
    assert all(math.isfinite(z.real) and z != z0 for z, z0 in zip(once, start))
    monkeypatch.setattr(polyroots, "MAX_START_SWEEPS", 3)
    assert _float_start(s) == (start, e, 3)


@settings(max_examples=40, deadline=None)
@given(
    s=_start_hosts(),
    data=st.data(),
)
def test_integer_aberth_step_matches_mpmath(s, data):
    # the integer Aberth step Q/(Q' - Q R) against N/(1 - N R), N = Q/Q', in
    # mpmath at the stage's precision, on the same Q and Q' and the same
    # repulsion, at a polished root moved off by a relative 2^-K (the state
    # a stage starts from) or at a point of the double start. The
    # repulsion summed in mpmath agrees with the double sum to double
    # precision, and the step from either agrees with mpmath's
    work_bits = max(DEFAULT_PRECISION_BITS, max(s).bit_length() + 64)
    tops = _top_bits(s)
    u, e, _ = _float_start(s)
    bits = data.draw(st.sampled_from(_rungs(work_bits)))
    j = data.draw(st.integers(0, len(u) - 1))
    if data.draw(st.booleans()):
        xs = [_reciprocal(uj, e, bits) for uj in u]
    else:
        xs, _, _, _ = _ladder_polish(s, tops, u, e, work_bits)
        k = data.draw(st.integers(4, bits // 2 + 8))
        cr, ci = data.draw(st.integers(-256, 256)), data.draw(st.integers(-256, 256))
        xr, xi, t = xs[j]
        xs[j] = (xr + ((xr * cr - xi * ci) >> k), xi + ((xr * ci + xi * cr) >> k), t)
    xs = [_rounded(*x, bits) for x in xs]
    scaled = [_scaled_copy(x, e) for x in xs]
    r = _repulsion(scaled, j, e)
    assume(r is not None)
    pr, pi, _, g, m, trail = _fixed_horner(s, tops, xs[j], bits)
    dr, di = _fixed_derivative(trail)
    assume(dr or di)
    exact_r = _exact_repulsion(xs, j, bits)
    with mp.workprec(4 * bits):
        x = _exact(xs[j])
        others = [_exact(xk) for xk in xs if xk != xs[j]]
        # the double sum's error: each copy and each operation rounded once
        spread = mp.fsum((abs(x) + abs(xk)) / abs(x - xk) ** 2 for xk in others)
        assert abs(_exact(r) - _exact(exact_r)) <= len(xs) * mp.ldexp(1, -48) * spread
    for repulsion in (r, exact_r):
        sr, si, t = _aberth_step((pr, pi), (dr, di), m, xs[j][2], repulsion, bits)
        with mp.workprec(bits):
            q = mp.mpc(pr, pi) * mp.ldexp(1, -g)
            dq = mp.mpc(dr, di) * mp.ldexp(1, m - g)
            n = q / dq
            step = n / (1 - n * _exact(repulsion))
        with mp.workprec(4 * bits):
            assert abs(_exact((sr, si, t)) - step) <= mp.ldexp(1, 8 - bits) * abs(x)


def test_integer_aberth_step_is_newton_where_its_denominator_vanishes():
    # Q = 1 + x^2 at x = 1: Q = Q' = 2, so the repulsion R = 1 makes
    # Q' - Q R vanish, and the step is the Newton quotient Q/Q' = 1
    s, bits = [1, 0, 1], 128
    point = _fixed_point(mp.mpc(1), bits, len(s))
    pr, pi, _, g, m, trail = _fixed_horner(s, _top_bits(s), point, bits)
    q = _fixed_derivative(trail)
    assert (pr, pi) == (2 << g, 0) and q == (2 << (g - m), 0)
    for r in [(1, 0, 0), (1 << 40, 0, 40), (1 << 7, 0, 7)]:
        sr, si, t = _aberth_step((pr, pi), q, m, point[2], r, bits)
        assert (sr, si) == (1 << t, 0)
    # another repulsion gives the Aberth step 1/(1 - R) on the same grid
    sr, si, t = _aberth_step((pr, pi), q, m, point[2], (1, 0, 1), bits)
    assert (sr, si) == (2 << t, 0)


@pytest.mark.parametrize(
    "p, q, m, t, r, bits, right_shift",
    [
        ((2**300, 0), (1, 0), 0, -10, (0, 0, 0), 128, True),
        ((-(2**300) - 1, 3), (1, 0), 0, -10, (0, 0, 0), 128, True),
        ((2**300 + 12345, 7 - 2**299), (3, -5), -4, -40, (0, 0, 0), 128, True),
        ((2**300, 0), (1, 0), 0, -1, (0, 0, 0), 128, True),
        ((2**300, 0), (1, 0), 0, 0, (0, 0, 0), 128, False),
        ((3, 1), (1, 2), 2, 5, (3, -1, 4), 64, False),
    ],
)
def test_integer_aberth_step_is_the_floor_of_the_exact_step(p, q, m, t, r, bits, right_shift):
    # p = Q 2^G, q = Q' 2^(G-m) and R = (rr + i ri) 2^-k, so the step
    # Q/(Q' - Q R) is p/(q 2^m - p R); the triple holds the floors of its
    # parts at 2^t'. A step far above the point's grid (t' + h < 0)
    # divides by a shifted denominator instead of shifting the numerator
    sr, si, t_out = _aberth_step(p, q, m, t, r, bits)
    assert (t_out + max(r[2], -m) < 0) == right_shift
    rr, ri, k = r
    scale = Fraction(2) ** m
    big_r = (Fraction(rr, 2**k), Fraction(ri, 2**k))
    dr = q[0] * scale - (p[0] * big_r[0] - p[1] * big_r[1])
    di = q[1] * scale - (p[0] * big_r[1] + p[1] * big_r[0])
    den = dr * dr + di * di
    step_r = (p[0] * dr + p[1] * di) / den
    step_i = (p[1] * dr - p[0] * di) / den
    unit = Fraction(2) ** t_out
    assert (sr, si) == (math.floor(step_r * unit), math.floor(step_i * unit))


def _dense_hosts():
    # (counts, alpha) of K_n for n <= 40, or of a connected gnp host, n <= 10
    complete = st.integers(2, 40).map(
        lambda n: (complete_graph_counts(n), Fraction(n - 1, n))
    )

    def gnp(args):
        n, p, seed = args
        g, _ = generate_connected(f"gnp({n},{p})", seed)
        return subtree_counts(g), degree_profile(g).alpha

    sparse = st.tuples(st.integers(2, 10), st.floats(0.2, 0.9), st.integers(0, 10**6)).map(gnp)
    return st.one_of(complete, sparse)


def _mpmath_residuals(s, roots, work_bits):
    # the certification's residuals |S(x)| / S(|x|) by mpmath's Horner on
    # the coefficients rounded at work_bits: the route the integer
    # evaluator replaced
    with mp.workprec(work_bits):
        q = [mp.mpf(c) for c in s]
        roots = map(_exact, roots)
        return [float(abs(x) * abs(_horner(q, x)) / (abs(x) * _horner(q, abs(x)))) for x in roots]


@settings(max_examples=25, deadline=None)
@given(host=_dense_hosts())
def test_residuals_match_mpmath_horner(host):
    counts, _ = host
    analysis = find_roots(counts)
    s, work_bits = counts.counts, analysis.precision_bits
    oracle = _mpmath_residuals(s, analysis.roots[1:], work_bits)
    tolerance = 8 * (len(s) - 1) * 2.0**-work_bits
    for ours, theirs in zip(analysis.residuals[1:], oracle):
        assert ours <= RESIDUAL_THRESHOLD and theirs <= RESIDUAL_THRESHOLD
        assert abs(ours - theirs) <= tolerance


@pytest.mark.parametrize("family", ["complete(12)", "complete(40)", "cycle(9)", "gnp(9,0.6)"])
def test_residuals_off_the_roots_match_mpmath_horner(monkeypatch, family):
    # roots moved off by a relative 2^-20 after the polish fail
    # certification; every residual the error carries is evaluated afresh
    # at the moved root (none is the polish's own, at the rounding level),
    # and matches the mpmath route to its accuracy
    polish = polyroots._polish

    def nudged(*args):
        xs, *rest = polish(*args)
        return [(xr + (xr >> 20), xi + (xi >> 20), t) for xr, xi, t in xs], *rest

    monkeypatch.setattr(polyroots, "_polish", nudged)
    spec = parse_family(family)
    counts = counts_for(generate(spec, seed=1), spec)
    with pytest.raises(CertificationError) as failure:
        find_roots(counts)
    roots, residuals = failure.value.roots, failure.value.residuals
    s = counts.counts
    work_bits = max(DEFAULT_PRECISION_BITS, max(s).bit_length() + 64)
    oracle = _mpmath_residuals(s, roots[1:], work_bits)
    for ours, theirs in zip(residuals[1:], oracle, strict=True):
        assert abs(ours - theirs) <= 1e-12 * theirs + 8 * (len(s) - 1) * 2.0**-work_bits
    assert min(residuals[1:]) > RESIDUAL_THRESHOLD


def test_large_tree_certifies_after_a_re_polish_at_twice_the_precision():
    # random_tree(210) at seed 0: at 192 bits every residual is at the
    # rounding level but the Vieta error is 4.2e-8, on clustered roots; the
    # re-polish of the iterates at 384 bits certifies them
    counts = counts_for(generate("random_tree(210)", seed=0))
    analysis = find_roots(counts)
    assert analysis.precision_bits == 2 * DEFAULT_PRECISION_BITS
    assert analysis.vieta_relative_error <= VIETA_RELATIVE_TOLERANCE
    assert max(analysis.residuals) <= RESIDUAL_THRESHOLD
    assert len(analysis.roots) == 210


def test_failed_certification_re_polishes_at_most_twice(monkeypatch):
    # roots moved off after every polish never certify: the polish runs
    # the ladder, then once at twice and once at four times work_bits
    polish = polyroots._polish
    ladder = []

    def nudged(s, tops, xs, e, bits, mirrors):
        ladder.append(bits)
        xs, *rest = polish(s, tops, xs, e, bits, mirrors)
        return [(xr + (xr >> 20), xi + (xi >> 20), t) for xr, xi, t in xs], *rest

    monkeypatch.setattr(polyroots, "_polish", nudged)
    with pytest.raises(CertificationError) as failure:
        find_roots(complete_graph_counts(12))
    assert ladder == [128, 192, 384, 768]
    assert min(failure.value.residuals[1:]) > RESIDUAL_THRESHOLD


def test_failed_certification_drops_the_mirrors_at_twice_the_precision(monkeypatch):
    # roots moved off after the polish at precision_bits only (the 192 rung
    # would repair a nudge at 128): the re-polish runs once, at twice
    # work_bits with every slot free (each evaluated and corrected on its
    # own, no mirror and no real slot), and certifies
    polish = polyroots._polish
    calls = []

    def nudged(s, tops, xs, e, bits, mirrors):
        calls.append((bits, mirrors, xs))
        xs, corrections, evaluated, mirrors = polish(s, tops, xs, e, bits, mirrors)
        calls[-1] += (evaluated,)
        if len(calls) == 2:
            xs = [(xr + (xr >> 20), xi + (xi >> 20), t) for xr, xi, t in xs]
        return xs, corrections, evaluated, mirrors

    monkeypatch.setattr(polyroots, "_polish", nudged)
    analysis = find_roots(complete_graph_counts(12))
    d = 11
    (first, start_mirrors, _, _), (second, _, _, _), (bits, mirrors, xs, evaluated) = calls
    assert (first, second, bits) == (128, 192, 384)
    assert start_mirrors == [d - 1 - j for j in range(d)]
    assert mirrors == [None] * d
    # every slot was evaluated where the re-polish started it
    assert all(_rounded(*x, 384) in evaluated for x in xs)
    assert analysis.precision_bits == 384
    assert max(analysis.residuals) <= RESIDUAL_THRESHOLD


def test_polish_skips_a_slot_whose_derivative_is_zero(monkeypatch):
    # Q'(x) = 0 leaves no Aberth step: the slot is skipped for the sweep,
    # and the polish still certifies the same roots at the same precision
    expected = find_roots(complete_graph_counts(12))
    fixed_derivative = polyroots._fixed_derivative
    calls = []

    def flat_once(trail):
        calls.append(trail)
        return (0, 0) if len(calls) == 1 else fixed_derivative(trail)

    monkeypatch.setattr(polyroots, "_fixed_derivative", flat_once)
    analysis = find_roots(complete_graph_counts(12))
    assert len(calls) > 1
    assert analysis.precision_bits == expected.precision_bits == 192
    assert analysis.roots == expected.roots


def _host_counts(family, seed=0):
    # s_1..s_n of the host, a gnp draw conditioned on being connected
    spec = parse_family(family)
    if family.startswith("gnp"):
        return counts_for(generate_connected(spec, seed)[0], spec).counts
    return counts_for(generate(spec, seed=seed), spec).counts


def _disks_at(s, bits, accuracy=0):
    # the ladder's roots at `bits` from the double start and their
    # inclusion disks (log2 radii, or None where two may meet or a radius
    # exceeds 2^-accuracy |x|), every root evaluated at `bits` as the
    # certification of find_roots leaves it; and a polish of those roots
    # on at four times the precision
    tops = _top_bits(s)
    u, e, _ = _float_start(s)
    xs, _, evaluated, mirrors = _ladder_polish(s, tops, u, e, bits)
    for x in xs:
        if x not in evaluated:
            evaluated[x] = _fixed_horner(s, tops, x, bits)[:4]

    def refine():
        return _polish(s, tops, xs, e, 4 * bits, mirrors)[0]

    return xs, _inclusion_disks(s, xs, mirrors, evaluated, accuracy), refine


_DISK_HOSTS = [
    ("complete(40)", 0, 192),
    ("complete(60)", 0, 192),
    ("complete(80)", 0, 192),
    ("complete(120)", 0, 192),
    ("complete(120)", 0, 384),
    ("complete(160)", 0, 192),
    ("complete(160)", 0, 384),
    ("gnp(14,0.5)", 1, 192),
    ("cycle(20)", 0, 192),
    ("random_tree(100)", 2, 192),
]


@pytest.mark.parametrize("family, seed, bits", _DISK_HOSTS)
def test_each_root_lies_in_its_own_inclusion_disk_and_in_no_other(family, seed, bits):
    # the roots polished on at four times the precision, with residuals
    # below 2^-(3 bits) there: each lies in exactly one disk, and each disk
    # holds exactly one of them. A root farther from a center than the
    # disk's radius plus 2^-40 times their moduli, in doubles, lies outside
    # it; every other pair is compared in mpmath
    s = _host_counts(family, seed)
    xs, radii, refine = _disks_at(s, bits)
    assert radii is not None
    refined = refine()
    for x in refined:
        pr, pi, scale = _fixed_horner(s, _top_bits(s), x, 4 * bits)[:3]
        assert _root_ratio(pr * pr + pi * pi, scale * scale) <= 2.0 ** -(3 * bits)
    inside = []
    with mp.workprec(4 * bits):
        disks = [(_exact(x), complex(_exact(x)), r) for x, r in zip(xs, radii)]
        for z in map(_exact, refined):
            w = complex(z)
            row = []
            for c, v, r in disks:
                gap = abs(w - v) - 2.0**r - 2.0**-40 * (abs(w) + abs(v))
                row.append(gap <= 0 and abs(z - c) <= mp.mpf(2) ** r)
            inside.append(row)
    assert all(sum(row) == 1 for row in inside)
    assert all(sum(column) == 1 for column in zip(*inside))


def _exact_value(s, x):
    # Q(x) 2^(t d) for the triple x = (xr + i xi) 2^-t, exactly: Horner on
    # Gaussian integers with every term on the grid of 2^-(t d)
    xr, xi, t = x
    vr, vi = s[-1], 0
    for k in range(len(s) - 2, -1, -1):
        vr, vi = vr * xr - vi * xi + (s[k] << (t * (len(s) - 1 - k))), vr * xi + vi * xr
    return vr, vi


@pytest.mark.parametrize(
    "family, seed",
    [("complete(40)", 0), ("complete(120)", 0), ("gnp(14,0.5)", 1), ("cycle(20)", 0),
     ("random_tree(100)", 2)],
)
def test_inclusion_radius_bounds_d_times_the_exact_weierstrass_correction(family, seed):
    # each returned radius is at least log2(d |W_i|), W_i = Q(z_i) / (s_n
    # prod_{j != i} (z_i - z_j)), with Q(z_i) exact on the integers and the
    # rest in mpmath at twice the precision. At a polished root |Q(z_i)| is
    # about as small as the evaluator's truncations, so a bound that took
    # its value without their error term would fall below d |W_i| here,
    # as would one without the factor d
    s = _host_counts(family, seed)
    d = len(s) - 1
    xs, radii, _ = _disks_at(s, DEFAULT_PRECISION_BITS)
    assert radii is not None
    with mp.workprec(2 * DEFAULT_PRECISION_BITS):
        centers = [_exact(x) for x in xs]
        for i, (x, z) in enumerate(zip(xs, centers)):
            vr, vi = _exact_value(s, x)
            q = abs(mp.mpc(vr, vi)) * mp.mpf(2) ** (-x[2] * d)
            product = mp.fprod(abs(z - c) for j, c in enumerate(centers) if j != i)
            assert d * q / (s[-1] * product) <= mp.mpf(2) ** radii[i]


def test_inclusion_disks_prove_nothing_on_a_double_root_or_past_their_accuracy():
    # 2^200 (x + 1)^2: both disks hold the double root, so they meet at
    # every precision, and find_roots climbs to the cap _work_bits. The
    # disks of K_160 at 192 bits are disjoint (the test above), but with
    # radii up to 2^-57 |x| they do not prove its roots to 128 bits
    assert _disks_at(_host_counts("complete(160)"), 192, 128)[1] is None
    s = [2**200, 2**201, 2**200]
    for bits in (192, 384):
        assert _disks_at(s, bits)[1] is None
    analysis = find_roots(SubtreeCountVector(n=3, counts=tuple(s)))
    assert analysis.precision_bits == _work_bits(DEFAULT_PRECISION_BITS, 2**201) == 266


def test_inclusion_disks_prove_nothing_where_two_centers_coincide():
    # K_12's polished roots as free slots; slot 1 then takes slot 0's point,
    # held on a grid one bit finer: on the common grid the two centers are
    # equal, so no disk is proven (and their distance has no log2)
    s = complete_graph_counts(12).counts
    tops = _top_bits(s)
    u, e, _ = _float_start(s)
    xs, _, evaluated, _ = _ladder_polish(s, tops, u, e, DEFAULT_PRECISION_BITS)
    d = len(xs)
    for x in xs:
        if x not in evaluated:
            evaluated[x] = _fixed_horner(s, tops, x, DEFAULT_PRECISION_BITS)[:4]
    assert _inclusion_disks(s, xs, [None] * d, evaluated, 0) is not None
    xr, xi, t = xs[0]
    xs[1] = (2 * xr, 2 * xi, t + 1)
    evaluated[xs[1]] = _fixed_horner(s, tops, xs[1], DEFAULT_PRECISION_BITS)[:4]
    assert _inclusion_disks(s, xs, [None] * d, evaluated, 0) is None


@pytest.mark.parametrize("n, bits", [(40, 192), (60, 192), (80, 192), (120, 384), (160, 384)])
def test_find_roots_stops_where_the_disks_prove_the_roots(n, bits):
    # the default request: each root proven to 192 - 64 bits, on K_40..K_80
    # at 192 bits, where the cap _work_bits is 267..558, and on K_120 and
    # K_160 at 384 (at 192 their largest radii are 2^-88 and 2^-57 |x|)
    counts = complete_graph_counts(n)
    analysis = find_roots(counts)
    assert analysis.precision_bits == bits < _work_bits(DEFAULT_PRECISION_BITS, max(counts.counts))
    assert max(analysis.residuals) <= RESIDUAL_THRESHOLD


def test_find_roots_climbs_to_the_cap_where_the_disks_prove_nothing(monkeypatch):
    # random_tree(200) seed 0 asked for 106 bits: the pass at 106 and the
    # one at its cap of 170 do not certify (clustered roots), and the
    # re-polish at twice the cap does, as the ladder of the cap alone did
    counts = SubtreeCountVector(n=200, counts=tuple(_host_counts("random_tree(200)", 0)))
    polish = polyroots._polish
    ladder = []

    def recorded(s, tops, xs, e, bits, mirrors):
        ladder.append(bits)
        return polish(s, tops, xs, e, bits, mirrors)

    monkeypatch.setattr(polyroots, "_polish", recorded)
    analysis = find_roots(counts, 106)
    assert _work_bits(106, max(counts.counts)) == 170
    assert ladder == [106, 170, 340]
    assert analysis.precision_bits == 340


def test_split_pairs_stay_real_slots_up_the_ladder(monkeypatch):
    # random_tree(100) seed 2 asked for 106 bits: the pass at 106 splits a
    # pair into two real slots and certifies, its disks do not prove the
    # roots, and the pass at the cap of 112 starts from the slots' kinds
    # the first pass left: every real slot stays real, on the axis
    counts = SubtreeCountVector(n=100, counts=tuple(_host_counts("random_tree(100)", 2)))
    polish = polyroots._polish
    calls = []

    def recorded(s, tops, xs, e, bits, mirrors):
        result = polish(s, tops, xs, e, bits, mirrors)
        calls.append((bits, list(mirrors), result[0], result[3]))
        return result

    monkeypatch.setattr(polyroots, "_polish", recorded)
    analysis = find_roots(counts, 106)
    assert [bits for bits, _, _, _ in calls] == [106, 112]
    (_, first_in, _, first_out), (_, second_in, xs, second_out) = calls
    real = [j for j, k in enumerate(first_out) if k == j]
    assert len(real) > sum(1 for j, k in enumerate(first_in) if k == j)
    assert second_in == first_out
    assert all(second_out[j] == j and xs[j][1] == 0 for j in real)
    assert analysis.precision_bits == 112


def _mpmath_rouche(counts, alpha, C, circle_points):
    # (max margin, its index under the shared tie rule) with F from
    # mpmath's Horner on the rounded ratios s_{n-k}/s_n: the route
    # rouche_margin took before the integer evaluator, on the same points
    n = counts.n
    beta = exact_beta(counts)
    with mp.workprec(max(DEFAULT_PRECISION_BITS, counts.s(n).bit_length() + 64)):
        sn = mp.mpf(counts.s(n))
        coeffs = [mp.mpf(counts.s(n - k)) / sn for k in range(n)]
        beta_mp = mp.mpf(beta.numerator) / beta.denominator
        radius = mp.mpf(alpha.numerator) / alpha.denominator * mp.log(n) / mp.mpf(C)
        points = [
            radius * mp.exp(2j * mp.pi * mp.mpf(j) / circle_points)
            for j in range(circle_points)
        ]
        points += [radius * u for u in (mp.mpc(1), mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0, -1))]
        margins = []
        for y in points:
            e = mp.exp(beta_mp * y)
            margins.append(float(abs(_horner(coeffs, y) - e) / abs(e)))
    return max(margins), margins.index(max(margins))


@settings(max_examples=30, deadline=None)
@given(
    host=_dense_hosts(),
    circle_points=st.sampled_from([1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 15, 32, 64, 101, 256]),
)
def test_rouche_margin_matches_mpmath_horner(host, circle_points):
    counts, alpha = host
    report = rouche_margin(counts, alpha, circle_points=circle_points)
    assert (report.max_margin, report.max_margin_index) == _mpmath_rouche(
        counts, alpha, 7.0, circle_points
    )


def test_rouche_margin_matches_mpmath_horner_at_a_prime_circle():
    # N = 1009: M = 4036, two radix-2 levels over four Goertzel leaves of
    # length 1009, each leaf holding a few of the nonzero folded entries
    g, _ = generate_connected("gnp(9,0.5)", 3)
    counts, alpha = subtree_counts(g), degree_profile(g).alpha
    report = rouche_margin(counts, alpha, circle_points=1009)
    assert (report.max_margin, report.max_margin_index) == _mpmath_rouche(counts, alpha, 7.0, 1009)


def test_nan_residual_or_vieta_error_fails_certification():
    assert not _certified([0.0, math.nan], 0.0)
    assert not _certified([0.0, 0.0], math.nan)
    assert _certified([0.0, 1e-30], 1e-12)


# ------------------------------------------------------------ rouche margin


def test_rouche_margin_k20():
    counts = complete_graph_counts(20)
    report = rouche_margin(counts, Fraction(19, 20), C=7.0, circle_points=256)
    assert 0.0 <= report.max_margin < 1.0
    assert report.witness_ok
    assert report.margin_below_one
    assert report.radius == pytest.approx(float(Fraction(19, 20)) * math.log(20) / 7.0)
    assert report.witness_floor == pytest.approx(20 ** (-1 / 7.0))


def test_rouche_margin_k40_is_the_double_nearest_the_exact_margin():
    # mpmath at 2000 bits gives 3.3434617379527453624e-05 at point 0; the
    # square root of |D|^2/|E|^2 already rounded to a double is one ulp higher
    report = rouche_margin(complete_graph_counts(40), Fraction(39, 40))
    assert (report.max_margin, report.max_margin_index) == (3.343461737952745e-05, 0)


@settings(max_examples=200, deadline=None)
@given(num=st.integers(0, 2**300), den=st.integers(1, 2**300))
@example(num=0, den=3)
@example(num=4 * 3**40, den=3**40)
def test_root_ratio_rounds_the_exact_root_once(num, den):
    # the exact root lies between the midpoints to the neighbouring doubles
    root = _root_ratio(num, den)
    below, above = (Fraction(math.nextafter(root, to)) for to in (0.0, math.inf))
    low, high = (Fraction(root) + below) / 2, (Fraction(root) + above) / 2
    assert low * low <= Fraction(num, den) <= high * high


def test_rouche_transform_past_its_bit_budget_is_refused_before_it_is_built(monkeypatch):
    # N = 4095 folds into M = 16380 values; at 8200 bits (P = 8249) M P
    # passes 2^27 and is refused before the folded series is built, at
    # 8000 bits (P = 8048) it is within budget
    def unbuilt(*args):
        raise AssertionError("the transform was built")

    monkeypatch.setattr(polyroots, "_circle_series", unbuilt)
    counts = complete_graph_counts(12)
    with pytest.raises(CapacityError, match=r"over the limit of 134217728"):
        rouche_margin(counts, Fraction(11, 12), circle_points=4095, precision_bits=8200)
    with pytest.raises(AssertionError, match="the transform was built"):
        rouche_margin(counts, Fraction(11, 12), circle_points=4095, precision_bits=8000)


@pytest.mark.parametrize("M, P", [(4, 60), (12, 200), (4036, 100), (2**15, 64), (3 * 2**14, 64)])
def test_unit_roots_are_within_one_unit(M, P):
    # each part of e^{2 pi i k/M} within 2^-P, also past M = 2^14, where
    # the recurrence runs over more than 4096 steps
    roots = _unit_roots(M, P)
    assert len(roots) == M // 2
    with mp.workprec(P + 64):
        for k in [*range(0, M // 2, max(1, M // 512)), M // 4 - 1, M // 2 - 1]:
            exact = mp.expjpi(mp.mpf(2 * k) / M)
            c, s = roots[k]
            assert abs(mp.ldexp(c, -P) - exact.real) <= mp.ldexp(1, -P)
            assert abs(mp.ldexp(s, -P) - exact.imag) <= mp.ldexp(1, -P)


def test_rouche_margin_rejects_small_C():
    counts = complete_graph_counts(10)
    for C in (6.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            rouche_margin(counts, Fraction(9, 10), C=C)
    with pytest.raises(ValidationError, match="n >= 2"):
        rouche_margin(complete_graph_counts(1), Fraction(1))
    for alpha in (Fraction(0), Fraction(-9, 10)):
        with pytest.raises(ValidationError, match="alpha must be positive"):
            rouche_margin(counts, alpha)
    with pytest.raises(ValidationError, match="at least 106"):
        rouche_margin(counts, Fraction(9, 10), precision_bits=105)
    # a disconnected source (alpha 0) is refused as disconnected
    with pytest.raises(ValidationError, match="disconnected"):
        rouche_margin(SubtreeCountVector(4, (4, 2, 0, 0)), Fraction(0))


@pytest.mark.parametrize(
    "spec, seed",
    [("complete(40)", 0), ("complete(60)", 0), ("complete(80)", 0), ("complete(120)", 0),
     ("gnp(16,0.5)", 1), ("gnp(14,0.5)", 1), ("complete_minus_perfect_matching(16)", 0),
     ("K_{6,10}", 0), ("cycle(12)", 0), ("path(10)", 0), ("random_tree(12)", 3)],
)
def test_certified_roots_lie_inside_the_rouche_radius(spec, seed):
    # the paper's conclusion at C = 7: the margin below 1 on |y| = alpha ln(n)/C
    # puts every nonzero root inside |x| < 1/radius. The margin is sampled, not
    # proven (ROADMAP items 11 and 20); max_modulus * radius runs from 0.008
    # (K_120) to 0.059 (cycle(12))
    if spec == "K_{6,10}":  # no family: counted from its edge list
        g, family = Graph.from_edges(16, [(u, v) for u in range(6) for v in range(6, 16)]), None
    else:
        g, family = generate(spec, seed=seed), parse_family(spec)
    counts = counts_for(g, family)
    report = rouche_margin(counts, degree_profile(g).alpha, C=7.0)
    assert report.margin_below_one
    assert find_roots(counts).max_modulus < 1 / report.radius


def test_rouche_point_count_includes_axis():
    counts = complete_graph_counts(10)
    a = rouche_margin(counts, Fraction(9, 10), circle_points=8)
    assert a.circle_points == 8  # the 4 axis points ride on top


def test_reversed_series_at_zero_matches_exponential():
    # F(0) = 1 = e^0: the pointwise margin vanishes at the origin; F(0) is
    # 1 + dev_0, and F(0) = s_n/s_n agrees with S(x) = s_n x^n F(1/x)
    counts = complete_graph_counts(8)
    f0 = 1 + poisson_deviation(counts, 0)[0]
    assert f0 == Fraction(counts.s(8), counts.s(8)) == 1
    assert abs(float(f0) - math.exp(0.0)) == 0.0


# --------------------------------------------------------------- deviations


def test_deviation_zero_for_k0_k1():
    for family in ["complete(8)", "cycle(6)", "gnp(9,0.5)"]:
        counts = subtree_counts(generate(family, seed=2))
        devs = poisson_deviation(counts, 1)
        assert devs[0] == 0
        assert devs[1] == 0


def test_deviation_k20_closed_form():
    # independent expression from the closed-form counts of K_20
    counts = complete_graph_counts(20)
    beta = Fraction(20 * 19**17, 20**18)
    expected_dev2 = Fraction(math.comb(20, 2) * 18**16, 20**18) * 2 / beta**2 - 1
    devs = poisson_deviation(counts, 2)
    assert devs[2] == expected_dev2
    assert devs[2] != 0


def test_deviation_validation():
    counts = complete_graph_counts(5)
    with pytest.raises(ValidationError):
        poisson_deviation(counts, 5)
    with pytest.raises(ValidationError):
        poisson_deviation(counts, -1)


def test_poisson_limit_complete_graphs():
    # for K_n the ratio s_{n-k}/s_n approaches e^{-k}/k! as n grows
    counts = complete_graph_counts(200)
    for k in [1, 2, 3]:
        ratio = Fraction(counts.s(200 - k), counts.s(200))
        limit = math.exp(-k) / math.factorial(k)
        assert abs(float(ratio) - limit) / limit < 0.05


def test_deviation_trend_toward_poisson():
    maxdev = []
    for n in [10, 15, 20, 25]:
        devs = poisson_deviation(complete_graph_counts(n), 3)
        maxdev.append(max(abs(d) for d in devs[1:]))
    assert all(a > b for a, b in zip(maxdev, maxdev[1:]))


# -------------------------------------------------------------- tree checks


def test_tree_check_p3():
    report = tree_root_check(generate("path(3)"))
    assert report.within_bound
    assert report.max_modulus == pytest.approx(math.sqrt(3), abs=1e-12)


def test_tree_check_star4_attains_bound():
    # S(K_{1,3}; x)/x = 4 + 3x + 3x^2 + x^3 = (x+1)^3 + 3: the extremal case,
    # with a real root at -(1 + cbrt(3))
    report = tree_root_check(star(4))
    assert report.max_modulus == pytest.approx(TREE_ROOT_BOUND, abs=1e-12)
    assert report.within_bound


def test_tree_check_p2():
    report = tree_root_check(generate("path(2)"))
    assert report.max_modulus == pytest.approx(2.0)
    assert report.within_bound


def test_tree_check_rejects_non_tree():
    with pytest.raises(ValidationError):
        tree_root_check(generate("cycle(5)"))
    with pytest.raises(ValidationError):
        tree_root_check(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_tree_check_annulus_diagnostic_reported():
    for seed in range(5):
        report = tree_root_check(generate("random_tree(8)", seed=seed))
        assert report.within_bound
        assert isinstance(report.annulus_ok, bool)
        assert report.annulus_outer == pytest.approx(0.5 + 7 ** (1 / 7))
