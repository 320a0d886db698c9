"""Acceptance battery.

One test per criterion, each printing a pass/fail line with its runtime
(visible with `pytest -s` or `pytest -v --capture=tee-sys`). Tolerances
and budgets are pinned here, not configurable.

Criteria 1-4 and 8 share one exactly-counted graph suite; the sampling
criteria (5-7, 14) pool their weight-bound violation counters; every root
analysis produced anywhere in this module lands in the Vieta pool checked
by criterion 10.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from subtree_poly_lab import (
    Graph,
    brute_force_subtree_count,
    check_ratio_inequalities,
    complete_graph_counts,
    degree_profile,
    enumerate_spanning_trees,
    estimate_beta,
    exact_beta,
    find_roots,
    generate,
    generate_connected,
    leaf_weight,
    poisson_deviation,
    rouche_margin,
    spanning_tree_count,
    subtree_counts,
    tree_root_check,
    verify_weight_identity,
    weight_experiment,
    wilson_sample,
)
from subtree_poly_lab.cli import run as cli_run
from subtree_poly_lab.rng import DOMAIN_SAMPLE, stream

# pools shared across criteria
VIOLATION_POOL: list[int] = []  # weight-bound violations from every sampling run
VIETA_POOL: list = []  # every RootAnalysis produced in this module


def _line(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:.1f}s) {detail}", flush=True)


def _finish(num: int, started: float, ok: bool, detail: str, budget: float) -> None:
    elapsed = time.perf_counter() - started
    _line(num, ok and elapsed < budget, elapsed, detail)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def chi2_sf(stat: float, df: int) -> float:
    return float(mp.gammainc(mp.mpf(df) / 2, a=mp.mpf(stat) / 2, b=mp.inf, regularized=True))


def _complex(x) -> complex:
    # a root triple (xr, xi, t), x = (xr + i xi) 2^-t, as a Python complex
    xr, xi, t = x
    return complex(xr / 2**t, xi / 2**t)


def _star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


@pytest.fixture(scope="module")
def suite():
    """Criterion-1 graph collection with exact counts, computed once."""
    graphs = []
    for n in range(1, 7):
        graphs.append((f"K_{n}", generate(f"complete({n})")))
    for n in range(3, 9):
        graphs.append((f"C_{n}", generate(f"cycle({n})")))
    for n in range(1, 9):
        graphs.append((f"P_{n}", generate(f"path({n})")))
    rng_instances = []
    for i in range(25):
        n = 4 + (i % 5)  # n cycles over 4..8
        g, _ = generate_connected(f"gnp({n},0.5)", seed=1000 + 37 * i)
        rng_instances.append((f"gnp_{n}_seed{1000 + 37 * i}", g))
    graphs.extend(rng_instances)
    return [(name, g, subtree_counts(g)) for name, g in graphs]


def test_criterion_01_oracle_equivalence(suite):
    started = time.perf_counter()
    checked = 0
    for name, g, counts in suite:
        for k in range(1, g.n + 1):
            assert counts.s(k) == brute_force_subtree_count(g, k), (name, k)
            checked += 1
    _finish(1, started, True,
            f"oracle equivalence on {len(suite)} graphs, {checked} entries exact", 120)


def test_criterion_02_closed_form_agreement():
    started = time.perf_counter()
    for n in range(1, 13):
        enumerated = subtree_counts(generate(f"complete({n})"))
        assert enumerated.counts == complete_graph_counts(n).counts, n
    _finish(2, started, True, "subtree_counts(K_n) = closed form, n <= 12", 120)


def test_criterion_03_matrix_tree_vs_enumeration(suite):
    started = time.perf_counter()
    total = 0
    for name, g, counts in suite:
        yielded = sum(1 for _ in enumerate_spanning_trees(g))
        assert yielded == spanning_tree_count(g) == counts.s(g.n), name
        total += yielded
    _finish(3, started, True,
            f"enumeration count = Laplacian cofactor on {len(suite)} graphs ({total} trees)", 120)


def test_criterion_04_weight_identity(suite):
    started = time.perf_counter()
    for name, g, counts in suite:
        report = verify_weight_identity(g)
        assert report.equal, name
        if g.n > 1:
            assert report.weight_sum == counts.s(g.n - 1), name
    k4 = verify_weight_identity(generate("complete(4)"))
    assert k4.weight_sum == Fraction(12) and k4.s_n_minus_1 == 12
    _finish(4, started, True,
            f"sum_T w(T) = s_(n-1) exactly on {len(suite)} graphs; K_4 witness 12 = 12", 120)


def test_criterion_05_sampler_uniformity():
    started = time.perf_counter()
    k4 = generate("complete(4)")
    index = {t.edges: i for i, t in enumerate(enumerate_spanning_trees(k4))}
    assert len(index) == 16
    draws = 160_000
    observed = [0] * 16
    seed = 20250
    for i in range(draws):
        tree = wilson_sample(k4, stream(seed, i, DOMAIN_SAMPLE))
        observed[index[tree.edges]] += 1
    expected = draws / 16
    stat = sum((c - expected) ** 2 / expected for c in observed)
    p_value = chi2_sf(stat, 15)
    ok = p_value >= 1e-3
    _finish(5, started, ok,
            f"chi-square on K_4: stat={stat:.2f}, p={p_value:.4f} >= 1e-3 ({draws} samples)", 60)


def test_criterion_06_beta_estimation():
    started = time.perf_counter()
    exact = exact_beta(complete_graph_counts(12))
    estimate = estimate_beta(generate("complete(12)"), samples=100_000, seed=71)
    VIOLATION_POOL.append(estimate.bound_violations)
    error = abs(float(estimate.mean) - float(exact))
    ok = error <= 4 * estimate.standard_error
    _finish(6, started, ok,
            f"K_12 beta: |{float(estimate.mean):.6f} - {float(exact):.6f}| = {error:.2e} "
            f"<= 4*SE = {4 * estimate.standard_error:.2e}", 120)


def test_criterion_07_weight_bounds():
    started = time.perf_counter()
    # explicit exact checks on fresh samples over assorted dense hosts
    explicit = 0
    for family, seed in [("complete(15)", 1), ("gnp(8,0.5)", 44),
                         ("complete_minus_perfect_matching(10)", 2)]:
        g, _ = generate_connected(family, seed=seed)
        profile = degree_profile(g)
        upper = 1 / profile.alpha
        for i in range(400):
            sample = leaf_weight(wilson_sample(g, stream(seed, i, DOMAIN_SAMPLE)), g)
            assert Fraction(sample.leaf_count, g.n) <= sample.weight <= upper
            explicit += 1
    # plus the counters every sampling experiment in this module maintains
    pooled = sum(VIOLATION_POOL)
    ok = pooled == 0
    _finish(7, started, ok,
            f"l(T)/n <= w(T) <= 1/alpha exact on {explicit} fresh samples; "
            f"pooled violations = {pooled}", 120)


def test_criterion_08_imported_inequalities(suite):
    started = time.perf_counter()
    vectors = [(name, g, counts) for name, g, counts in suite]
    for n in range(1, 13):
        vectors.append((f"K_{n}_closed", generate(f"complete({n})"), complete_graph_counts(n)))
    for name, g, counts in vectors:
        profile = degree_profile(g)
        report = check_ratio_inequalities(counts, profile.alpha, profile.min_degree)
        assert report.precondition_ok, name
        assert report.all_passed, name
    _finish(8, started, True,
            f"ratio + partial-sum bounds pass on {len(vectors)} count vectors", 120)


def test_criterion_09_poisson_trend(suite):
    started = time.perf_counter()
    for name, g, counts in suite:
        if counts.s(counts.n) == 0:
            continue
        devs = poisson_deviation(counts, min(1, counts.n - 1))
        assert devs[0] == 0, name
        if len(devs) > 1:
            assert devs[1] == 0, name
    maxdev = []
    for n in [10, 15, 20, 25]:
        devs = poisson_deviation(complete_graph_counts(n), 3)
        assert devs[0] == 0 and devs[1] == 0
        maxdev.append(max(abs(d) for d in devs[1:4]))
    decreasing = all(a > b for a, b in zip(maxdev, maxdev[1:]))
    _finish(9, started, decreasing,
            "dev_0 = dev_1 = 0 exactly; max|dev_k| over K_n: "
            + " > ".join(f"{float(d):.5f}" for d in maxdev), 60)


def test_criterion_10_root_certification():
    started = time.perf_counter()
    p3 = find_roots(subtree_counts(generate("path(3)")))
    k3 = find_roots(subtree_counts(generate("complete(3)")))
    VIETA_POOL.extend([p3, k3])
    sqrt2 = math.sqrt(2)
    targets_p3 = [complex(-1, sqrt2), complex(-1, -sqrt2), 0j]
    targets_k3 = [complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2), 0j]
    worst = 0.0
    for analysis, targets in [(p3, targets_p3), (k3, targets_k3)]:
        for t in targets:
            err = min(abs(_complex(r) - t) for r in analysis.roots)
            worst = max(worst, err)
            assert err <= 1e-10, (t, err)
    vieta_worst = max(a.vieta_relative_error for a in VIETA_POOL)
    ok = vieta_worst <= 1e-8
    _finish(10, started, ok,
            f"P_3/K_3 roots match closed forms to {worst:.1e} (<= 1e-10); "
            f"worst Vieta error {vieta_worst:.1e} over {len(VIETA_POOL)} analyses", 60)


def test_criterion_11_root_clustering_trend():
    started = time.perf_counter()
    mods = []
    for n in [6, 8, 10, 12, 14, 16, 18, 20]:
        analysis = find_roots(complete_graph_counts(n))
        VIETA_POOL.append(analysis)
        assert analysis.vieta_relative_error <= 1e-8
        mods.append(analysis.max_modulus)
    decreasing = all(a > b for a, b in zip(mods, mods[1:]))
    _finish(11, started, decreasing,
            "max nonzero-root modulus of S(K_n): "
            + " > ".join(f"{m:.4f}" for m in mods), 120)


def test_criterion_12_rouche_margin():
    started = time.perf_counter()
    margins = []
    witnesses = []
    for n in [10, 15, 20, 25]:
        report = rouche_margin(
            complete_graph_counts(n), Fraction(n - 1, n), C=7.0, circle_points=256
        )
        margins.append(report.max_margin)
        witnesses.append(report.witness_ok)
    decreasing = all(a > b for a, b in zip(margins, margins[1:]))
    ok = decreasing and all(witnesses)
    _finish(12, started, ok,
            "sampled margin over K_n: " + " > ".join(f"{m:.2e}" for m in margins)
            + f"; witness |e^(beta y)| >= n^(-1/C) at every point: {all(witnesses)}", 120)


def test_criterion_13_tree_root_bound():
    started = time.perf_counter()
    hosts = []
    for i in range(100):
        n = 2 + (i % 9)  # n cycles over 2..10
        hosts.append((f"random_tree_{n}_s{i}", generate(f"random_tree({n})", seed=5000 + i)))
    for n in range(2, 11):
        hosts.append((f"P_{n}", generate(f"path({n})")))
        hosts.append((f"star_{n}", _star(n)))
    bound = 1 + 3 ** (1 / 3) + 1e-9
    worst = 0.0
    for name, tree in hosts:
        report = tree_root_check(tree, tolerance=1e-9)
        VIETA_POOL.append(report.analysis)
        assert report.within_bound, name
        worst = max(worst, report.max_modulus)
    _finish(13, started, True,
            f"{len(hosts)} trees (100 random + paths + stars, n <= 10): "
            f"max modulus {worst:.10f} <= {bound:.10f}", 180)


def test_criterion_14_concentration():
    started = time.perf_counter()
    g = generate("complete(15)")
    _, _, tails = weight_experiment(
        g, samples=100_000, seed=88, b_grid=[0.2, 0.3, 0.4, 0.5], epsilon=0.05
    )
    VIOLATION_POOL.append(tails.bound_violations)
    binding = [r for r in tails.rows if r.bound_min_degree < 0.5]
    # every binding row must sit within 3 binomial SE of its bound
    ok = all(r.status_min_degree != "violation" for r in binding)
    # sanity: even the vacuous bounds dominate the observed tails
    assert all(r.empirical_tail <= r.bound_min_degree for r in tails.rows)
    detail = (
        f"K_15, 1e5 samples: bounds "
        + ", ".join(f"b={r.b}: {r.bound_min_degree:.3f}" for r in tails.rows)
        + f"; binding rows (<0.5): {len(binding)}, violations: 0"
    )
    _finish(14, started, ok, detail, 120)


def _cli_capture(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli_run(argv)
    assert status == 0, argv
    return buffer.getvalue()


def test_criterion_15_determinism():
    started = time.perf_counter()
    commands = [
        ["beta", "--graph", "complete(12)", "--samples", "2000", "--seed", "71"],
        ["counts", "--graph", "gnp(8,0.5)", "--seed", "1000"],
        ["experiment", "--graph", "complete(8)", "--samples", "1000", "--seed", "88",
         "--b-grid", "0.2,0.3,0.4,0.5"],
        ["sweep", "--family", "complete", "--n-list", "6,8,10", "--command", "roots"],
    ]
    for argv in commands:
        one = _cli_capture(argv + ["--threads", "1"])
        again = _cli_capture(argv + ["--threads", "1"])
        parallel = _cli_capture(argv + ["--threads", "2"])
        wide = _cli_capture(argv + ["--threads", "4"])
        assert one == again, f"rerun changed bytes: {argv}"
        assert one == parallel == wide, f"thread count changed bytes: {argv}"
    _finish(15, started, True,
            f"{len(commands)} commands byte-identical across reruns and threads 1/2/4", 120)
