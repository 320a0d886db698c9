"""Polynomial construction, certified roots, margins, deviations."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from subtree_poly_lab import (
    CertificationError,
    Graph,
    ReversedSeries,
    SubtreePolynomial,
    ValidationError,
    build_polynomial,
    complete_graph_counts,
    exact_beta,
    find_roots,
    generate,
    poisson_deviation,
    root_bound,
    rouche_margin,
    subtree_counts,
    tree_root_check,
)
from subtree_poly_lab.polyroots import TREE_ROOT_BOUND, _require_certified, _root_key


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
    counts = complete_graph_counts(9)
    series = ReversedSeries.from_counts(counts)
    assert series.ratios[0] == 1
    assert series.ratios[1] == series.beta == exact_beta(counts)
    assert len(series.ratios) == 9


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
    with pytest.raises(ValidationError):
        find_roots(SubtreePolynomial(coefficients=(3, 2, 1)), precision_bits=64)


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
    with pytest.raises(ValidationError):
        root_bound(Fraction(1, 2), 100, 6.0)
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
    # F(0) = 1 = e^0: the pointwise margin vanishes at the origin
    series = ReversedSeries.from_counts(complete_graph_counts(8))
    f0 = Fraction(0)
    for c in reversed(series.ratios):
        f0 = f0 * 0 + c
    assert f0 == 1
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
