"""Polynomial construction, certified roots, margins, deviations."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtree_poly_lab import (
    CertificationError,
    Graph,
    SubtreePolynomial,
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
    root_bound,
    rouche_margin,
    subtree_counts,
    tree_root_check,
)
from subtree_poly_lab import polyroots
from subtree_poly_lab.counting import counts_for
from subtree_poly_lab.polyroots import (
    DEFAULT_PRECISION_BITS,
    MAX_START_SWEEPS,
    RESIDUAL_THRESHOLD,
    TREE_ROOT_BOUND,
    _first_max_index,
    _fixed_horner,
    _float_start,
    _horner,
    _modulus,
    _polish,
    _require_certified,
    _root_key,
    _scaled_ratio,
    _stages,
    _start_step,
    _top_bits,
)


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _closest(roots, target):
    return min(abs(complex(r) - target) for r in roots)


# ------------------------------------------------------------ construction


def test_build_polynomial_examples():
    assert build_polynomial(subtree_counts(generate("path(3)"))).coefficients == (3, 2, 1)
    assert build_polynomial(subtree_counts(generate("complete(3)"))).coefficients == (3, 3, 3)
    assert build_polynomial(subtree_counts(generate("complete(1)"))).coefficients == (1,)


def test_polynomial_validation():
    with pytest.raises(ValidationError):
        SubtreePolynomial(coefficients=())
    with pytest.raises(ValidationError):
        SubtreePolynomial(coefficients=(0, 1))


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
    analysis = find_roots(build_polynomial(subtree_counts(generate("path(3)"))))
    assert len(analysis.roots) == 3
    assert _closest(analysis.roots, 0) == 0
    assert _closest(analysis.roots, complex(-1, math.sqrt(2))) < 1e-12
    assert _closest(analysis.roots, complex(-1, -math.sqrt(2))) < 1e-12
    assert analysis.max_modulus == pytest.approx(math.sqrt(3), abs=1e-12)


def test_k3_roots_cube_roots_of_unity():
    analysis = find_roots(build_polynomial(subtree_counts(generate("complete(3)"))))
    w = complex(-0.5, math.sqrt(3) / 2)
    assert _closest(analysis.roots, w) < 1e-12
    assert _closest(analysis.roots, w.conjugate()) < 1e-12
    assert analysis.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_single_vertex_polynomial():
    analysis = find_roots(SubtreePolynomial(coefficients=(1,)))
    assert [complex(r) for r in analysis.roots] == [0j]
    assert analysis.max_modulus == 0.0


def test_p2_roots():
    analysis = find_roots(build_polynomial(subtree_counts(generate("path(2)"))))
    assert _closest(analysis.roots, -2.0) < 1e-14
    assert analysis.max_modulus == pytest.approx(2.0)


def test_disconnected_source_trims_trailing_zeros():
    # 2K_2 has no 3- or 4-vertex subtrees: S = 4x + 2x^2, true degree 2
    counts = subtree_counts(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert counts.counts == (4, 2, 0, 0)
    analysis = find_roots(build_polynomial(counts))
    assert len(analysis.roots) == 2
    assert _closest(analysis.roots, -2.0) < 1e-14


def test_root_count_and_certification_fields():
    for family in ["cycle(6)", "complete(7)", "path(8)", "gnp(8,0.7)"]:
        counts = subtree_counts(generate(family, seed=3))
        analysis = find_roots(build_polynomial(counts))
        assert len(analysis.roots) == counts.n
        assert all(r <= 1e-20 for r in analysis.residuals)
        assert analysis.vieta_relative_error <= 1e-8
        assert analysis.precision_bits >= 106


def test_conjugate_symmetry():
    for family in ["complete(9)", "cycle(8)", "gnp(9,0.6)"]:
        analysis = find_roots(build_polynomial(subtree_counts(generate(family, seed=5))))
        pool = [complex(r) for r in analysis.roots]
        for r in pool:
            assert min(abs(r.conjugate() - q) for q in pool) < 1e-18


def test_conjugate_pair_order_ignores_noise_in_real_parts():
    # the two real parts of a pair agree only up to rounding noise; the
    # order must not depend on which of them the noise makes larger
    with mp.workprec(256):
        re, im = mp.mpf("-0.1180347582202573965633483"), mp.mpf("0.37")
        for noise in (mp.ldexp(re, -240), -mp.ldexp(re, -240)):
            pair = [mp.mpc(re + noise, im), mp.mpc(re, -im)]
            for candidates in (pair, pair[::-1]):
                ordered = sorted(candidates, key=lambda x: _root_key(x, 128))
                assert [x.imag for x in ordered] == [-im, im]


def test_roots_list_each_pair_negative_imaginary_first():
    for n in (12, 40):
        roots = find_roots(build_polynomial(complete_graph_counts(n))).roots[1:]
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
    analysis = find_roots(build_polynomial(counts))
    target = counts.s(1) / counts.s(6)
    assert analysis.vieta_product == pytest.approx(target, rel=1e-12)


def test_cluster_reporting_total_multiplicity():
    counts = subtree_counts(generate("complete(5)"))
    analysis = find_roots(build_polynomial(counts))
    assert sum(mult for _, mult in analysis.clusters) == counts.n


def test_precision_floor_enforced():
    with pytest.raises(ValidationError, match="at least 106"):
        find_roots(SubtreePolynomial(coefficients=(3, 2, 1)), precision_bits=64)
    with pytest.raises(ValidationError, match="at least 106"):
        rouche_margin(complete_graph_counts(5), Fraction(4, 5), precision_bits=10)


def test_extended_range_closed_form():
    # 3 + 2v + v^2 has roots v = -1 +/- i sqrt(2); with y = 2^600 v the
    # reversed series has the ratio s_1/s_3 = 2^-1200/3, far below double
    # range, and the roots x = 1/y must still come out to 25 digits
    scale = 2**600
    analysis = find_roots(SubtreePolynomial(coefficients=(1, 2 * scale, 3 * scale**2)))
    with mp.workprec(256):
        v = [1 / (r * scale) for r in analysis.roots[1:]]
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
    analysis = find_roots(SubtreePolynomial(coefficients=coefficients))
    assert analysis.vieta_relative_error <= 1e-8
    with mp.workprec(256):
        for target in _quadratic_roots(*coefficients):
            assert min(abs(r - target) for r in analysis.roots[1:]) < abs(target) * mp.mpf(10) ** -40


def test_k80_certifies_and_meets_vieta():
    # K_80 once let two Newton iterates settle on one root (Vieta error 38)
    counts = complete_graph_counts(80)
    analysis = find_roots(build_polynomial(counts))
    assert len(analysis.roots) == 80
    assert max(analysis.residuals) <= 1e-20
    s = counts.counts
    with mp.workprec(256):
        nonzero = analysis.roots[1:]
        product = mp.fprod(abs(r) for r in nonzero)
        assert abs(product / (mp.mpf(s[0]) / s[-1]) - 1) < 1e-8
        total = mp.fsum(nonzero)
        target = -mp.mpf(s[-2]) / s[-1]
        assert abs(total - target) < 1e-8 * abs(target)


def test_polish_stages_double_from_128_and_end_at_work_bits():
    assert _stages(106) == [106]
    assert _stages(128) == [128]
    assert _stages(192) == [128, 192]
    assert _stages(558) == [128, 256, 512, 558]
    assert _stages(1221) == [128, 256, 512, 1024, 1221]


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
    # Without the derivative, Q and Q(|x|) are the same integers, and
    # without the magnitude too, Q is.
    d = len(s) - 1
    with mp.workprec(bits):
        x = mp.expjpi(mp.mpf(turn) / 180) * mp.ldexp(1, log_modulus)
        q = _horner([mp.mpf(c) for c in s], x)
        dq = _horner([mp.mpf(k * c) for k, c in enumerate(s) if k] or [mp.mpf(0)], x)
        scale = _horner([mp.mpf(c) for c in s], abs(x))
    pr, pi, dr, di, fixed_scale, g, m = _fixed_horner(s, _top_bits(s), x, bits)
    value_only = _fixed_horner(s, _top_bits(s), x, bits, derivative=False)
    assert value_only == (pr, pi, None, None, fixed_scale, g, m)
    bare = _fixed_horner(s, _top_bits(s), x, bits, derivative=False, magnitude=False)
    assert bare == (pr, pi, None, None, None, g, m)
    with mp.workprec(4 * bits + 600 * (d + 2) + 2500):
        size = abs(x)
        true_scale = mp.fsum(c * size**k for k, c in enumerate(s))
        dscale = mp.fsum(k * c * size ** (k - 1) for k, c in enumerate(s) if k)
        tol = 8 * (d + 1) * mp.ldexp(1, -bits)
        assert abs(mp.mpc(pr, pi) * mp.ldexp(1, -g) - q) <= tol * true_scale
        assert abs(mp.ldexp(fixed_scale, -g) - scale) <= tol * true_scale
        assert abs(mp.mpc(dr, di) * mp.ldexp(1, m - g) - dq) <= tol * dscale


def test_fixed_horner_at_zero():
    pr, pi, dr, di, scale, g, m = _fixed_horner([5, 3, 7], _top_bits([5, 3, 7]), mp.mpc(0), 128)
    assert (pr, pi, scale) == (5 << g, 0, 5 << g)
    assert (dr, di) == (3 << (g - m), 0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 9), p=st.floats(0.2, 0.9), seed=st.integers(0, 10**6))
def test_roots_match_mpmath_polyroots(n, p, seed):
    # an independent root finder (Durand-Kerner at raised precision) gives
    # the same multiset of roots
    g, _ = generate_connected(f"gnp({n},{p})", seed)
    counts = subtree_counts(g)
    ours = list(find_roots(build_polynomial(counts)).roots)
    s = counts.counts
    with mp.workprec(256):
        reference = [mp.mpc(0)] + list(mp.polyroots(s[::-1], maxsteps=200, extraprec=512))
        for r in reference:
            nearest = min(range(len(ours)), key=lambda i: abs(ours[i] - r))
            assert abs(ours.pop(nearest) - r) < 1e-30 * max(1, abs(r))
    assert not ours


@pytest.mark.parametrize("n", [40, 60, 80])
def test_final_polish_stage_corrects_each_root_at_most_once_on_average(n):
    # the ladder leaves the full-precision stage at most d corrections
    s = complete_graph_counts(n).counts
    work_bits = max(DEFAULT_PRECISION_BITS, max(c.bit_length() for c in s) + 64)
    u, e, _ = _float_start(s)
    _, corrections = _polish(s, _top_bits(s), u, e, work_bits)
    assert len(corrections) == len(_stages(work_bits)) >= 2
    assert corrections[-1] <= n - 1


def _numpy_float_start(s):
    # the reference for _float_start: the same Aberth iteration vectorised
    # over complex128 arrays, where non-finite values propagate instead of
    # raising
    n = len(s)
    d = n - 1
    e = round((s[-1].bit_length() - s[0].bit_length()) / d)
    coeffs = np.array([_scaled_ratio(s[n - 1 - k], s[-1], e * k) for k in range(n)])
    dcoeffs = coeffs[1:] * np.arange(1, n)
    angles = 2 * np.pi * (np.arange(d) + 0.35) / d
    if not np.isfinite(coeffs).all():
        return np.exp(1j * angles), e, 0
    z0 = abs(coeffs[0] / coeffs[d]) ** (1.0 / d) * np.exp(1j * angles)
    z = z0.copy()
    active = np.arange(d)
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
            z[active[moving]] = za[moving] - step[moving]
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
    ours, _ = _polish(s, tops, u, e, work_bits)
    theirs, _ = _polish(s, tops, list(reference_u), e, work_bits)
    with mp.workprec(work_bits):
        for x in theirs:
            pr, pi, _, _, scale, _, _ = _fixed_horner(s, tops, x, work_bits, derivative=False)
            assert abs(mp.mpc(pr, pi)) / scale <= RESIDUAL_THRESHOLD
        step_tolerance = mp.ldexp(1, -(work_bits - 16))
        for x in ours:
            pr, pi, dr, di, scale, _, m = _fixed_horner(s, tops, x, work_bits)
            assert abs(mp.mpc(pr, pi)) / scale <= RESIDUAL_THRESHOLD
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
        return [float(abs(x) * abs(_horner(q, x)) / (abs(x) * _horner(q, abs(x)))) for x in roots]


@settings(max_examples=25, deadline=None)
@given(host=_dense_hosts())
def test_residuals_match_mpmath_horner(host):
    counts, _ = host
    analysis = find_roots(build_polynomial(counts))
    s, work_bits = counts.counts, analysis.precision_bits
    oracle = _mpmath_residuals(s, analysis.roots[1:], work_bits)
    tolerance = 8 * (len(s) - 1) * 2.0**-work_bits
    for ours, theirs in zip(analysis.residuals[1:], oracle):
        assert ours <= RESIDUAL_THRESHOLD and theirs <= RESIDUAL_THRESHOLD
        assert abs(ours - theirs) <= tolerance


@pytest.mark.parametrize("family", ["complete(12)", "complete(40)", "cycle(9)", "gnp(9,0.6)"])
def test_residuals_off_the_roots_match_mpmath_horner(monkeypatch, family):
    # roots moved off by a relative 2^-20 fail certification; the residuals
    # the error carries, far above the rounding noise now, match the
    # mpmath route to its accuracy
    polish = polyroots._polish

    def nudged(*args):
        xs, corrections = polish(*args)
        return [x * (1 + mp.ldexp(1, -20)) for x in xs], corrections

    monkeypatch.setattr(polyroots, "_polish", nudged)
    spec = parse_family(family)
    counts = counts_for(generate(spec, seed=1), spec)
    with pytest.raises(CertificationError) as failure:
        find_roots(build_polynomial(counts))
    roots, residuals = failure.value.roots, failure.value.residuals
    s = counts.counts
    work_bits = max(DEFAULT_PRECISION_BITS, max(s).bit_length() + 64)
    oracle = _mpmath_residuals(s, roots[1:], work_bits)
    for ours, theirs in zip(residuals[1:], oracle, strict=True):
        assert abs(ours - theirs) <= 1e-12 * theirs + 8 * (len(s) - 1) * 2.0**-work_bits
    assert max(residuals) > RESIDUAL_THRESHOLD


def test_first_max_index_ties_at_rounding_noise():
    with mp.workprec(256):
        top = mp.mpf(3)
        assert _first_max_index([mp.mpf(1), top, mp.mpf(2)]) == 1
        # the later value is larger only by noise far below double precision
        assert _first_max_index([mp.mpf(1), top, top * (1 + mp.ldexp(1, -200))]) == 1
        assert _first_max_index([mp.mpf(1), top, top * (1 + mp.ldexp(1, -20))]) == 2


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
            margins.append(abs(_horner(coeffs, y) - e) / abs(e))
    return float(max(margins)), _first_max_index(margins)


@settings(max_examples=30, deadline=None)
@given(host=_dense_hosts(), circle_points=st.sampled_from([1, 3, 8, 32, 64, 256]))
def test_rouche_margin_matches_mpmath_horner(host, circle_points):
    counts, alpha = host
    report = rouche_margin(counts, alpha, circle_points=circle_points)
    assert (report.max_margin, report.max_margin_index) == _mpmath_rouche(
        counts, alpha, 7.0, circle_points
    )


def test_nan_residual_or_vieta_error_fails_certification():
    roots = [mp.mpc(0), mp.mpc(-1)]
    with pytest.raises(CertificationError):
        _require_certified(roots, [0.0, math.nan], 0.0)
    with pytest.raises(CertificationError):
        _require_certified(roots, [0.0, 0.0], math.nan)
    _require_certified(roots, [0.0, 1e-30], 1e-12)


# -------------------------------------------------------------- root bound


def test_root_bound_values():
    # frozen by direct substitution into C / (alpha ln n)
    assert root_bound(Fraction(99, 100), 100, 7.0) == pytest.approx(1.5353845320, abs=1e-9)
    assert root_bound(Fraction(3, 4), 4, 7.0) == pytest.approx(6.7325768575, abs=1e-9)


def test_root_bound_monotone_in_n():
    values = [root_bound(Fraction(1, 2), n, 7.0) for n in [10, 20, 40, 80]]
    assert values == sorted(values, reverse=True)


def test_root_bound_validation():
    for C in (6.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            root_bound(Fraction(1, 2), 100, C)
    with pytest.raises(ValidationError):
        root_bound(Fraction(1, 2), 1, 7.0)
    with pytest.raises(ValidationError):
        root_bound(Fraction(0), 10, 7.0)


# ------------------------------------------------------------ rouche margin


def test_rouche_margin_k20():
    counts = complete_graph_counts(20)
    report = rouche_margin(counts, Fraction(19, 20), C=7.0, circle_points=256)
    assert 0.0 <= report.max_margin < 1.0
    assert report.witness_ok
    assert report.margin_below_one
    assert report.radius == pytest.approx(float(Fraction(19, 20)) * math.log(20) / 7.0)
    assert report.witness_floor == pytest.approx(20 ** (-1 / 7.0))


def test_rouche_margin_rejects_small_C():
    counts = complete_graph_counts(10)
    with pytest.raises(ValidationError):
        rouche_margin(counts, Fraction(9, 10), C=6.0)


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
