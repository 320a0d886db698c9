"""CLI contract: commands, exit codes, formats, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subtree_poly_lab
from subtree_poly_lab import CertificationError, Graph, SubtreeCountVector, generate
from subtree_poly_lab import cli, params, polyroots
from subtree_poly_lab.cli import run
from subtree_poly_lab.counting import MAX_TREE_VERTICES
from subtree_poly_lab.graphs import FAMILIES


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _triple(x):
    # the mpc x exactly as a root triple (xr, xi, t), x = (xr + i xi) 2^-t
    (sr, mr, er, _), (si, mi, ei, _) = x._mpc_
    t = -min(er, ei)
    return (-mr if sr else mr) << (er + t), (-mi if si else mi) << (ei + t), t


def test_counts_json(capsys):
    status, out, _ = invoke(capsys, "counts", "--graph", "complete(4)")
    assert status == 0
    doc = json.loads(out)
    assert doc["artifact"] == "subtree-poly-lab"
    assert doc["spec"]["command"] == "counts"
    assert doc["spec"]["graph"] == "complete(4)"
    assert doc["result"]["counts"] == ["4", "6", "12", "16"]


def test_counts_csv(capsys):
    status, out, _ = invoke(capsys, "counts", "--graph", "path(3)", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("# subtree-poly-lab")
    assert lines[1] == "k,s_k"
    assert lines[2:] == ["1,3", "2,2", "3,1"]


def test_verify_k3(capsys):
    status, out, _ = invoke(capsys, "verify", "--graph", "complete(3)")
    assert status == 0
    doc = json.loads(out)
    identity = doc["result"]["weight_identity"]
    assert identity["lhs_weight_sum"] == "3"
    assert identity["rhs_s_n_minus_1"] == "3"
    assert doc["result"]["all_passed"]


def test_verify_takes_the_matrix_tree_count_once(capsys, monkeypatch):
    # the identity check's cap guard counts the trees, and the base checks
    # read that count from its report instead of taking it again
    from subtree_poly_lab import counting, spanning

    calls, count = [], counting.spanning_tree_count

    def counted(g):
        calls.append(g.n)
        return count(g)

    monkeypatch.setattr(spanning, "spanning_tree_count", counted)
    monkeypatch.setattr(counting, "spanning_tree_count", counted)
    status, out, _ = invoke(capsys, "verify", "--graph", "complete_minus_perfect_matching(8)")
    assert status == 0
    assert calls == [8]
    base = json.loads(out)["result"]["base_checks"]
    assert base["s_n_equals_matrix_tree"] and base["tree_count_matches_matrix_tree"]


def test_verify_matrix_tree_check_factors_two_minors(capsys, monkeypatch, tmp_path):
    # s_n (counted on the enumeration) and the matrix-tree count must come
    # from different cofactors, or s_n_equals_matrix_tree compares a
    # determinant with itself
    from subtree_poly_lab import counting

    path = tmp_path / "paw_with_tail.txt"
    path.write_text("5 5\n0 1\n0 2\n0 3\n1 2\n3 4\n")
    minors, determinant = [], counting._bareiss_determinant

    def recorded(mat):
        if len(mat) == 4:
            minors.append([row[:] for row in mat])
        return determinant(mat)

    monkeypatch.setattr(counting, "_bareiss_determinant", recorded)
    _, out, _ = invoke(capsys, "verify", "--edge-list", str(path))
    assert json.loads(out)["result"]["base_checks"]["s_n_equals_matrix_tree"]
    # a minor's diagonal is the degree sequence without its deleted vertex
    diagonals = sorted([row[i] for i, row in enumerate(minor)] for minor in minors)
    assert diagonals == [[2, 2, 2, 1], [3, 2, 2, 2]]  # vertex 0 out on one side, 4 on the other


def test_verify_disconnected_flagged(capsys):
    status, out, err = invoke(capsys, "verify", "--graph", "gnp(4,0.0)")
    assert status == 1
    doc = json.loads(out)
    assert doc["result"]["connected"] is False
    assert "disconnected" in err


def test_verify_disconnected_csv_is_empty_table(capsys):
    status, out, err = invoke(capsys, "verify", "--graph", "gnp(8,0.1)", "--seed", "1", "--format", "csv")
    assert status == 1
    lines = out.splitlines()
    assert lines[0].startswith("# subtree-poly-lab")
    assert lines[1:] == ["check,index,lhs,rhs,passed"]
    assert "disconnected" in err


def test_roots_path3(capsys):
    status, out, _ = invoke(capsys, "roots", "--graph", "path(3)")
    assert status == 0
    doc = json.loads(out)
    assert doc["result"]["max_modulus"] == pytest.approx(1.7320508, abs=1e-6)


def test_roots_vieta_fields_print_past_double_range():
    # S(x) = x + 2^1200 x^2: the product of the nonzero root moduli and its
    # target s_1/s_2 = 2^-1200 are below double range (they printed as 0.0)
    analysis = polyroots.find_roots(SubtreeCountVector(n=2, counts=(1, 2**1200)))
    doc = cli._json(analysis)
    with mp.workprec(analysis.precision_bits):
        target = mp.nstr(mp.ldexp(1, -1200), 25)
    assert target == "5.80771375621750318328345e-362"
    assert doc["vieta_target"] == doc["vieta_product"] == target


def test_beta_exact_field_for_complete(capsys):
    status, out, _ = invoke(
        capsys, "beta", "--graph", "complete(10)", "--samples", "2000", "--seed", "9"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] == pytest.approx(0.4782969)
    assert doc["result"]["weight_bound_violations"] == 0
    error = abs(doc["result"]["estimate"] - doc["result"]["exact"])
    assert error <= 4 * doc["result"]["standard_error"]


def test_sample_command(capsys):
    status, out, _ = invoke(
        capsys, "sample", "--graph", "complete(5)", "--samples", "3", "--seed", "4"
    )
    assert status == 0
    doc = json.loads(out)
    trees = doc["result"]["trees"]
    assert len(trees) == 3
    for tree in trees:
        assert len(tree["edges"]) == 4


def test_sample_on_tree_host_is_identity(capsys):
    status, out, _ = invoke(capsys, "sample", "--graph", "path(4)")
    doc = json.loads(out)
    assert doc["result"]["trees"][0]["edges"] == [[0, 1], [1, 2], [2, 3]]
    assert doc["result"]["trees"][0]["weight"] == "2"


def test_poisson_command(capsys):
    status, out, _ = invoke(capsys, "poisson", "--graph", "complete(12)", "--k-max", "3")
    assert status == 0
    doc = json.loads(out)
    devs = doc["result"]["deviations"]
    assert devs[0] == 0.0 and devs[1] == 0.0
    assert doc["result"]["deviations_exact"][1] == "0"


def test_rouche_command(capsys):
    status, out, _ = invoke(
        capsys, "rouche", "--graph", "complete(12)", "--C", "7", "--circle-points", "64"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["result"]["witness_ok"] is True
    assert 0 <= doc["result"]["max_margin"] < 1


def test_rouche_golden_bytes(capsys):
    # the hash was taken when rouche still ran its own mpmath Horner loop; it
    # held through the shared mpmath Horner and through the integer evaluator
    status, out, _ = invoke(capsys, "rouche", "--graph", "complete(25)")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "488fd76338d6a233925ce94710d03c7e5b9c536136f28db9fc257036015ef411"
    )


def test_certification_failure_lists_worst_iterates(monkeypatch, capsys):
    roots = [_triple(mp.mpc(0))] + [_triple(mp.mpc(-k / 8, k / 4)) for k in range(1, 8)]
    residuals = [0.0, 1e-30, 4e-6, math.nan, 2e-21, 1e-25, 3e-3, 1e-22]

    def failing(*args, **kwargs):
        raise CertificationError("root certification failed: test", roots=roots, residuals=residuals)

    monkeypatch.setattr(polyroots, "find_roots", failing)
    status, out, err = invoke(capsys, "roots", "--graph", "complete(8)")
    assert status == 3
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "certification failure: root certification failed: test"
    assert lines[1] == "worst 5 of 8 residuals:"
    # NaN ranks first, then by residual, largest first
    indices = [int(line.split()[1]) for line in lines[2:]]
    assert indices == [3, 6, 2, 4, 7]
    assert "residual 3.000e-03" in lines[3]
    assert lines[3].endswith("iterate (-0.75, 1.5)")


def test_certification_failure_prints_each_iterate_part_rounded_to_a_double(monkeypatch, capsys):
    # 20 digits of each part rounded to 53 bits, as mp.mpc(root) printed it:
    # 1/3 and -2/3 at 200 bits show the digits of their doubles
    third = (1 << 200) // 3
    roots = [(0, 0, 0), (third, -2 * third, 200)]

    def failing(*args, **kwargs):
        raise CertificationError("root certification failed: test", roots=roots, residuals=[0.0, 1.0])

    monkeypatch.setattr(polyroots, "find_roots", failing)
    status, _, err = invoke(capsys, "roots", "--graph", "complete(8)")
    assert status == 3
    assert err.splitlines()[2].endswith("iterate (0.33333333333333331483, -0.66666666666666662966)")


def test_tree_check_command(capsys):
    status, out, _ = invoke(capsys, "tree-check", "--graph", "random_tree(9)", "--seed", "5")
    assert status == 0
    doc = json.loads(out)
    assert doc["result"]["within_bound"] is True


def test_tree_check_past_the_enumeration_cap(capsys):
    # a tree host takes the O(n^2) tree route, which no cap bounds
    status, out, _ = invoke(capsys, "tree-check", "--graph", "random_tree(60)", "--seed", "1")
    assert status == 0
    assert json.loads(out)["result"]["within_bound"] is True


def test_tree_check_lists_real_roots_by_real_part(capsys):
    # the re-polish drops every mirror on this host, so its three real roots
    # carry imaginary noise of either sign; the noise must not order them
    status, out, _ = invoke(capsys, "tree-check", "--graph", "random_tree(150)", "--seed", "1")
    assert status == 0
    roots = json.loads(out)["result"]["analysis"]["roots"]
    real = [float(re) for re, im in roots[1:] if abs(float(im)) < 1e-50]
    assert len(real) == 3 and real == sorted(real)


@pytest.mark.parametrize("command", ["roots", "rouche"])
def test_precision_bits_floor_in_both_commands(capsys, command):
    status, out, err = invoke(capsys, command, "--graph", "complete(5)", "--precision-bits", "10")
    assert status == 1 and out == ""
    assert "error: --precision-bits must be an integer of at least 106, got 10\n" in err


def test_tree_check_rejects_cycle(capsys):
    status, _, err = invoke(capsys, "tree-check", "--graph", "cycle(5)")
    assert status == 1
    assert "tree" in err


def test_experiment_command(capsys):
    status, out, _ = invoke(
        capsys, "experiment", "--graph", "complete(6)", "--samples", "300",
        "--seed", "2", "--b-grid", "0.3,0.5",
    )
    assert status == 0
    doc = json.loads(out)
    assert set(doc["result"]) == {"beta", "leaf_counts", "concentration"}
    assert len(doc["result"]["concentration"]["rows"]) == 2


def test_experiment_csv_is_tail_table(capsys):
    status, out, _ = invoke(
        capsys, "experiment", "--graph", "complete(6)", "--samples", "200",
        "--seed", "4", "--b-grid", "0.25,0.5", "--format", "csv",
    )
    assert status == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "b,tail_count,empirical_tail,bound_min_degree,bound_alpha_form,status"
    assert len(lines) == 3


def test_sweep_roots_decreasing(capsys):
    status, out, _ = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "6,8,10", "--command", "roots"
    )
    assert status == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,max_modulus,vieta_relative_error,iterations"
    mods = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(mods) == 3
    assert mods[0] > mods[1] > mods[2]


def test_sweep_empty_n_list(capsys):
    status, out, _ = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "", "--command", "roots"
    )
    assert status == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines == ["n,max_modulus,vieta_relative_error,iterations"]


def test_sweep_poisson(capsys):
    status, out, _ = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "10,15",
        "--command", "poisson", "--k-max", "3",
    )
    assert status == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,dev_0,dev_1,dev_2,dev_3,max_abs_dev"
    first = lines[1].split(",")
    assert first[0] == "10" and float(first[1]) == 0.0


@pytest.mark.parametrize(
    "inner, flags",
    [("counts", []), ("beta", ["--samples", "200"]), ("roots", []), ("rouche", []),
     ("poisson", ["--k-max", "3"])],
)
def test_sweep_row_is_its_commands_output(capsys, inner, flags):
    # a sweep row projects the report its command prints for the same host and flags
    status, out, _ = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "5,7", "--command", inner, *flags
    )
    assert status == 0
    header, *rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [cells[0] for cells in rows] == ["5", "7"]
    for cells in rows:
        n = int(cells[0])
        command = [inner, "--graph", f"complete({n})", *flags]
        if inner in ("beta", "rouche"):
            status, single, _ = invoke(capsys, *command, "--format", "csv")
            assert status == 0
            own = single.splitlines()[2].split(",")
            assert cells == (own if inner == "beta" else own[:1] + own[2:])  # rouche's row has C
            continue
        row = dict(zip(header, cells))
        status, single, _ = invoke(capsys, *command)
        assert status == 0
        result = json.loads(single)["result"]
        if inner == "roots":
            for key in ("max_modulus", "vieta_relative_error", "iterations"):
                assert json.loads(row[key]) == result[key]
        elif inner == "counts":
            counts = result["counts"]
            assert (row["m"], row["s_n"]) == (counts[1], counts[n - 1])
            assert row["beta"] == repr(float(Fraction(int(counts[n - 2]), int(counts[n - 1]))))
        else:
            assert [float(row[f"dev_{k}"]) for k in range(4)] == result["deviations"]


@pytest.mark.parametrize("n_list, k_max, largest", [("4,6", "7", 6), ("", "1", 0), ("", "1000000000", 0)])
def test_sweep_poisson_refuses_k_max_above_the_largest_n(monkeypatch, capsys, n_list, k_max, largest):
    # one column per k <= --k-max: a k_max past every host only pads nan,
    # and a huge one used to build its header in memory first
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep row ran before --k-max was checked")

    monkeypatch.setitem(cli._SWEEP, "poisson", (refuse, *cli._SWEEP["poisson"][1:]))
    status, out, err = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", n_list, "--command", "poisson", "--k-max", k_max
    )
    assert (status, out) == (1, "")
    assert err == f"error: --k-max must be at most the largest n of the sweep, {largest}\n"


def test_sweep_aborts_with_failing_n(capsys):
    status, _, err = invoke(
        capsys, "sweep", "--family", "cycle", "--n-list", "4,2,6", "--command", "counts"
    )
    assert status == 1
    assert "n=2" in err


def test_sweep_rejects_unknown_family(capsys):
    # an empty n-list runs no row, so only the parser can catch the family
    # before the spec echoes it
    status, out, err = invoke(
        capsys, "sweep", "--family", "torus", "--n-list", "", "--command", "counts"
    )
    assert (status, out) == (1, "")
    assert "argument --family: invalid choice: 'torus'" in err


def test_sweep_rejects_bad_n_list(capsys):
    status, out, err = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "4,a", "--command", "counts"
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error: bad n-list '4,a'")


@pytest.mark.parametrize(
    "inner, flag, value",
    [
        ("poisson", "--k-max", "-1"),
        ("beta", "--samples", "-5"),
        ("rouche", "--circle-points", "0"),
        ("rouche", "--C", "3"),
        # --C and --p are echoed into the spec whichever rows run
        ("counts", "--C", "5"),
        ("counts", "--p", "2"),
    ],
)
def test_sweep_checks_row_flags_before_any_row(capsys, inner, flag, value):
    # an empty --n-list runs no row, and used to echo the bad value into the
    # spec with exit 0
    family = "gnp" if flag == "--p" else "complete"
    for n_list in ("", "5"):
        status, out, err = invoke(
            capsys, "sweep", "--family", family, "--n-list", n_list, "--command", inner, flag, value
        )
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {flag} must be ") and err.endswith(f", got {value}\n")


@pytest.mark.parametrize("n_list", ["", "5,3"])
def test_sweep_refuses_p_for_a_family_without_p(capsys, n_list):
    # it used to exit 0 and print the rows of a sweep without --p
    status, out, err = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", n_list, "--command", "counts", "--p", "0.7"
    )
    assert (status, out) == (1, "")
    assert err == "error: --p does not apply to family complete\n"


def test_sweep_gnp_reads_an_absent_p_as_one_half(capsys):
    argv = ["sweep", "--family", "gnp", "--n-list", "5,7", "--seed", "2", "--command", "counts"]
    status, out, _ = invoke(capsys, *argv)
    assert status == 0
    assert '"p": 0.5}' in out.splitlines()[0]
    assert invoke(capsys, *argv, "--p", "0.5") == (status, out, "")


@pytest.mark.parametrize("flag", [["--format", "json"], ["--format=json"]])
def test_sweep_refuses_json(capsys, flag):
    # sweep writes only its CSV table; it used to print that table for a
    # JSON request and exit 0
    status, out, err = invoke(
        capsys, "sweep", "--family", "complete", "--n-list", "4", "--command", "counts", *flag
    )
    assert status == 1
    assert out == ""
    assert err == "error: sweep writes CSV only\n"


def test_sweep_accepts_explicit_csv(capsys):
    argv = ["sweep", "--family", "complete", "--n-list", "4", "--command", "counts"]
    assert invoke(capsys, *argv, "--format", "csv") == invoke(capsys, *argv)


@pytest.mark.parametrize("value", ["0", "-4", "x"])
def test_threads_flag_must_be_positive(capsys, value):
    status, out, err = invoke(capsys, "counts", "--graph", "complete(4)", "--threads", value)
    assert status == 1
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize("value", ["0", "x"])
def test_threads_environment_default_must_be_positive(monkeypatch, capsys, value):
    monkeypatch.setenv(cli.THREADS_ENV, value)
    status, out, err = invoke(capsys, "counts", "--graph", "complete(4)")
    assert status == 1
    assert out == ""
    assert cli.THREADS_ENV in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("counts", "--graph", "cycle(5)", "--cap", "-3"), "--cap", "-3"),
        (("counts", "--graph", "cycle(5)", "--cap", "x"), "--cap", "x"),
        (("verify", "--graph", "cycle(6)", "--tree-cap", "-1"), "--tree-cap", "-1"),
    ],
)
def test_caps_must_be_nonnegative(capsys, argv, flag, value):
    status, out, err = invoke(capsys, *argv)
    assert status == 1
    assert out == ""
    assert f"error: {flag} must be a nonnegative integer, got {value}\n" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_seed_must_fit_64_bits(capsys, seed):
    # seeds were reduced mod 2^64: -1 drew the same trees as 2^64 - 1, and
    # 2^64 the same as 0, while each echoed its own seed into the spec
    argv = ["beta", "--graph", "complete(9)", "--samples", "30"]
    status, out, err = invoke(capsys, *argv, "--seed", seed)
    assert (status, out) == (1, "")
    assert err == f"error: --seed must be an integer in [0, 2^64), got {seed}\n"
    status, out, _ = invoke(capsys, *argv, "--seed", str(2**64 - 1))
    assert status == 0 and json.loads(out)["spec"]["seed"] == 2**64 - 1


def _strict_json(text):
    # json.loads accepts NaN and Infinity, which JSON has no literal for
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        "rouche --graph complete(5) --C nan",
        "rouche --graph complete(5) --C inf",
        "sweep --family complete --n-list 5 --command rouche --C inf",
        "experiment --graph complete(5) --samples 50 --b-grid nan",
        "experiment --graph complete(5) --samples 50 --b-grid 0.3,inf",
        "experiment --graph complete(5) --samples 50 --epsilon nan",
        "tree-check --graph path(3) --tolerance nan",
        "tree-check --graph path(3) --tolerance inf",
        # the sweep spec echoes --C even where no row reads it, and a gnp
        # sweep echoes --p; the flag's own check runs before either
        "sweep --family complete --n-list 5 --command counts --C nan",
        "sweep --family complete --n-list 5 --command counts --p inf",
        'sweep --family gnp --n-list "" --command counts --p inf',
    ],
)
def test_non_finite_floats_are_rejected(capsys, argv):
    # unchecked, --C nan ended in a StopIteration, --C inf reported a radius
    # of 0, and the others printed NaN or Infinity into the JSON document
    status, out, err = invoke(capsys, *shlex.split(argv))
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        "poisson --graph complete(5) --k-max 5",
        "experiment --graph complete(5) --b-grid ,",
    ],
)
def test_library_validation_reaches_the_cli(capsys, argv):
    # the CLI keeps no copy of these checks: the library's error exits 1
    status, out, err = invoke(capsys, *argv.split())
    assert status == 1
    assert out == ""
    assert err.startswith("error: ")


def test_poisson_refuses_k_max_before_counting(monkeypatch, capsys):
    # a k_max of n or more was refused only after the full enumeration
    def refuse(*args, **kwargs):
        raise AssertionError("poisson counted before checking --k-max")

    monkeypatch.setattr(cli, "counts_for", refuse)
    status, out, err = invoke(capsys, "poisson", "--graph", "cycle(9)", "--k-max", "9")
    assert (status, out) == (1, "")
    assert err.startswith("error: --k-max must be below n = 9")


def test_zero_cap_leaves_closed_form_and_tree_routes(capsys):
    for graph in ("complete(6)", "path(6)"):
        status, _, _ = invoke(capsys, "counts", "--graph", graph, "--cap", "0")
        assert status == 0
    status, _, err = invoke(capsys, "counts", "--graph", "cycle(5)", "--cap", "0")
    assert status == 2
    assert "enumeration cap 0" in err


def test_edge_list_input(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    status, out, _ = invoke(capsys, "counts", "--edge-list", str(path))
    assert status == 0
    assert json.loads(out)["result"]["counts"] == ["3", "3", "3"]


def test_edge_list_with_byte_order_mark(tmp_path, capsys):
    # editors on Windows often save UTF-8 with a leading EF BB BF
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("4 4\n0 1\n1 2\n2 3\n0 2\n", encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    results = []
    for path in (plain, marked):
        status, out, err = invoke(capsys, "counts", "--edge-list", str(path))
        assert (status, err) == (0, "")
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_counts_print_past_the_int_str_digit_limit(capsys):
    # s_270 of K_270 is 270^268, 652 digits; the command lifts the limit
    # while it runs and restores it on return
    digits = str(270**268)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, _ = invoke(capsys, "counts", "--graph", "complete(270)", "--format", "csv")
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(before)
    assert len(digits) > 640
    assert (status, limit) == (0, 640)
    assert out.splitlines()[-1] == f"270,{digits}"


@pytest.mark.parametrize("name", ["missing.txt", "."])
def test_unreadable_edge_list(tmp_path, capsys, name):
    # an unreadable path used to end in an OSError traceback
    status, out, err = invoke(capsys, "counts", "--edge-list", str(tmp_path / name))
    assert (status, out) == (1, "")
    assert err.startswith("error: cannot read edge list ")


def test_missing_graph_source(capsys):
    status, _, err = invoke(capsys, "counts")
    assert status == 1
    assert "graph source" in err


def test_no_command(capsys):
    status, out, err = invoke(capsys)
    assert (status, out) == (1, "")
    assert err.startswith("usage: ")
    assert err.endswith("error: a command is required\n")


def test_unknown_command(capsys):
    status, _, _ = invoke(capsys, "frobnicate")
    assert status == 1


def test_capacity_exit_code(capsys):
    status, _, err = invoke(capsys, "counts", "--graph", "cycle(30)")
    assert status == 2
    assert "cap" in err


@pytest.mark.parametrize("spec", ["path(1)", "path(2)"])
def test_verify_tree_cap_exit_code_on_one_tree_hosts(capsys, spec):
    status, out, err = invoke(capsys, "verify", "--graph", spec, "--tree-cap", "0")
    assert (status, out) == (2, "")
    assert "1 spanning trees exceed the enumeration cap 0" in err


def test_capacity_exit_code_names_bitmask_width(capsys):
    status, _, err = invoke(capsys, "counts", "--graph", "cycle(63)", "--cap", "100")
    assert status == 2
    assert "62-vertex" in err


@pytest.mark.parametrize(
    "argv",
    [["rouche", "--graph", "complete(5)"],
     ["sweep", "--family", "complete", "--n-list", "5", "--command", "rouche"]],
)
def test_circle_points_past_the_limit_exit_2(capsys, argv):
    # the circle's transform holds O(N) big integers
    status, out, err = invoke(capsys, *argv, "--circle-points", "4097")
    assert (status, out) == (2, "")
    assert "limit of 4096 circle points" in err


def test_rouche_transform_past_its_bit_budget_exit_2(capsys):
    # 4095 points fold into M = 16380 values; at 8200 bits they pass 2^27 bits
    status, out, err = invoke(
        capsys, "rouche", "--graph", "complete(12)", "--circle-points", "4095",
        "--precision-bits", "8200",
    )
    assert (status, out) == (2, "")
    assert "over the limit of 134217728" in err


def test_tree_route_refuses_a_star_above_its_vertex_bound(tmp_path, capsys):
    # the tree recursion's work and output grow about 4x per doubling of a
    # star; one vertex over the bound is refused before the recursion runs
    n = MAX_TREE_VERTICES + 1
    path = tmp_path / "star.txt"
    path.write_text(Graph.from_edges(n, [(0, i) for i in range(1, n)]).to_edge_list())
    start = time.perf_counter()
    status, out, err = invoke(capsys, "counts", "--edge-list", str(path))
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert f"n={n}" in err and f"{MAX_TREE_VERTICES}-vertex" in err


def test_counts_edge_list_golden_bytes(tmp_path, monkeypatch, capsys):
    # the spec echoes the edge-list path, so run from tmp_path with a fixed name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gnp14.txt").write_text(generate("gnp(14,0.5)", seed=3).to_edge_list())
    status, out, _ = invoke(capsys, "counts", "--edge-list", "gnp14.txt")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47a2dc2eecad1a17c1d50ade43d295ebacff5ebecacc9fcfd24c5807f0ef86ce"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("experiment --graph complete(15) --samples 2000 --seed 1",
         "9ac62bef041158fb09e199d4983abef73df6d0085f858620e7063eccbf8cc07c"),
        # a non-regular host, where L = lcm of the degrees exceeds every degree
        ("experiment --graph gnp(10,0.6) --samples 500 --seed 4",
         "56ba22f645f961f72b48a8cfde159148ad8c6838de98b0e4c33f7df0cfa79164"),
        ("experiment --graph complete(7) --samples 400 --seed 11 --threads 2",
         "6cd86701344a9da0ccd2c37a8e26deae4e477a774228fecd5ce58cd49c61cb67"),
        ("sample --graph complete(6) --samples 3 --seed 2",
         "5fab09c10a527d810b820bc8d1911ea0c0fcabe998730dd60acb5e965aea587e"),
        ("sample --graph gnp(8,0.6) --samples 3 --seed 5",
         "d3bff28a4b88687ea5d925ec741e21da124ff28f3ba90c215080d4294be412b0"),
        ("verify --graph complete_minus_perfect_matching(8)",
         "bdda2990eed8a4caacc67219e7dd081e3a707e578f2bdac7d1f36c03a93d335e"),
    ],
)
def test_spanning_commands_golden_bytes(capsys, argv, digest):
    # hashes taken when weights were accumulated as per-sample Fractions on
    # a fresh Generator per sample; the integer kernel must print the same bytes
    status, out, _ = invoke(capsys, *argv.split())
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, status, digest",
    [
        ("counts --graph gnp(10,0.5) --seed 3", 0,
         "057de6273ccbd33c8d381883c274a6b72c11b48d1d7a45901afe29c1d07c2fef"),
        ("counts --graph gnp(10,0.5) --seed 3 --format csv", 0,
         "b1ac7d484a24d83bb7ecc6bd626fa49d38f9bd50068aaaacfe2f9cd11efb8b50"),
        ("counts --graph complete(12)", 0,
         "a610b933b2b776ef46bacfbf346a9ed5134e0f7bc661163f23d4fc8232658c31"),
        ("counts --graph complete(12) --format csv", 0,
         "5cbfe58e0f1d6a8b8505843e1bea58c4783c59db400439a5aa9bf86407b18ad3"),
        ("beta --graph complete(8) --samples 300 --seed 3", 0,
         "04abb03428b48b8e300e9d5ba2854ed08e0ad4f0028bb3fbf766a8dd06209a90"),
        ("beta --graph complete(8) --samples 300 --seed 3 --format csv", 0,
         "b595ce14dfb10535da0a8d8d5811952a82ccc1d3b058eb9068bf5478cfd9dea7"),
        ("beta --graph gnp(9,0.6) --samples 300 --seed 2", 0,
         "69ca016c64a396b9d9bdebc8c5617da0eaa56ccb37a532a39c6ca8c5e51ce02d"),
        ("sample --graph complete(5) --samples 3 --seed 4", 0,
         "18a01482cbf54103b3344d5486eaf83f1b7dcc281d421e13a9f6f93068f3089a"),
        ("sample --graph complete(5) --samples 3 --seed 4 --format csv", 0,
         "ef87b17fc7883f77c3073aac24b8a95aa79836098a56950de534258e2fbf4de2"),
        ("roots --graph cycle(8)", 0,
         "23db12841446ed5107c230554cffc47bce2fe1610c15868b02eb7bc7db2173c1"),
        ("roots --graph cycle(8) --format csv", 0,
         "897d49f990803f02da1ffd1572bee2cb4fd035e4faf8112d60ba33b529090196"),
        ("roots --graph complete(10) --format csv", 0,
         "332359122a70fb96b9e9c79b468fbb0880eb3a020dd2217baa7c2748fea5f000"),
        ("rouche --graph complete(12) --circle-points 64", 0,
         "a49f5c103577b8e540f636ca70bc644c7dcc776b4008353dc62371416afab605"),
        ("rouche --graph complete(12) --circle-points 64 --format csv", 0,
         "e2f570d331f89b98a750ab05323af8a2fdd2a8f87e5c2282e9f3547e773c973c"),
        ("rouche --graph gnp(10,0.7) --seed 1 --circle-points 32 --format csv", 0,
         "480799a7bc0706682e6a82c35d7a951bacfae86131be88c166812ec0eaf3bfa9"),
        # taken before the circle evaluation stopped computing Q(|y|)
        ("rouche --graph complete(120) --circle-points 256", 0,
         "2842441665099fae8047f25fb85bd208c53bacc2e56735a743b1fab672ae7d0e"),
        ("poisson --graph complete(12) --k-max 3", 0,
         "52bca718ce88d930461248db33f9bcffae16b30f68fb4a4e3a7739718c870daa"),
        ("poisson --graph complete(12) --k-max 3 --format csv", 0,
         "68eb52c149af5af7a7f557529b43857edf2c04a1bd196d187865f0b1aa35152e"),
        ("poisson --graph cycle(9) --k-max 2 --format csv", 0,
         "614ae606cdeabffd65f0f95169662203102d26d5cf85bf8522e9d39962b01193"),
        ("verify --graph complete(6)", 0,
         "fef52eb866a8d7552f20d0c2415230c9580313517742e501eba7102266d29d9d"),
        ("verify --graph complete(6) --format csv", 0,
         "5a5cb08c7d1f8b2e6ee749fbde168c2355409f74edbfdc79f1c7cc9a5d2e4ddc"),
        ("verify --graph gnp(8,0.1) --seed 1", 1,
         "83032b735ffca10547760a8092e606841608e747e0a29cddf182c62b3fe2bab7"),
        # a disconnected host prints an empty table; before the shared
        # renderer it printed the JSON document in CSV mode
        ("verify --graph gnp(8,0.1) --seed 1 --format csv", 1,
         "f758954e3ea0caad612a7df9a9fee97b5cba47b3a34ced320799d2e1c3482ade"),
        ("tree-check --graph random_tree(9) --seed 5", 0,
         "806332f074b5023c283d23fe4a39954c26b196af1ccf94ba2de98f2e58f66f1b"),
        ("tree-check --graph random_tree(9) --seed 5 --format csv", 0,
         "449d381ab8cf7f5f2b875ae825c913d7133d067b04b0027ebf8e1d1210106f4c"),
        ("experiment --graph complete(6) --samples 300 --seed 2 --b-grid 0.3,0.5", 0,
         "5f2deb2a4cc3c77009d3c6cc1074a44b71ba8f8c3cb0adb89b38a74b6fd20e07"),
        ("experiment --graph complete(6) --samples 300 --seed 2 --b-grid 0.3,0.5 --format csv", 0,
         "d9575169f9838ccf4a810b1b527c57a33bd3732fa7a73a3a76444dd4bde49696"),
        ("sweep --family complete --n-list 5,7 --command counts", 0,
         "d591598763f45964de66666609007d8369a4a45c8aeedd495e3de6e334e7045b"),
        ("sweep --family complete --n-list 5,7 --command beta --samples 200 --seed 3", 0,
         "4487177470f0f2de0463f16fe41230e4c4cf9a754db1c10c72a1487c2e020a52"),
        ("sweep --family complete --n-list 5,7 --command roots", 0,
         "7b241748fd735ce0f730640dbc8e260f83c95cd306cea19333461493c67437af"),
        ("sweep --family complete --n-list 5,7 --command rouche --circle-points 32", 0,
         "d7d90ec477b88d7c5b486dcde5e97d3baf9a15abf13ebc74c54884010fbaa0f8"),
        ("sweep --family complete --n-list 5,7 --command poisson --k-max 5", 0,
         "4c7281fa47b149ce2e68f02cfef24410077ee469b9aebbf20bb05b3dd2f8e85d"),
        ("sweep --family gnp --p 0.6 --n-list 5,7 --seed 2 --command counts", 0,
         "9c98248b8ba73f8ebf7a032838b59255de25adc8715502183708b48a0ad99e0d"),
        ("sweep --family cycle --n-list 5,7 --command beta --samples 200 --seed 3", 0,
         "2c863f2f47b40eb82881245fb789f400f6686bb7ac9a6feb0ed8fb59d4b509a1"),
        ("sweep --family gnp --p 0.6 --n-list 6,8 --seed 1 --command roots", 0,
         "6136b3c85f2841c0c3bdd2f03a62dccb8602ae50e8b806e55d18e4a2bf4f87a8"),
        ("sweep --family cycle --n-list 5,7 --command rouche --circle-points 32", 0,
         "a4b6068bdccb2bdf0be794be03385616be5d572128e3331a705d7ad659085e68"),
        ("sweep --family cycle --n-list 5,7 --command poisson --k-max 5", 0,
         "9a1315b4e8f37c7c026eae25233f62eeb312fbed653aadf000a36c9aca99d770"),
        # n = 1 pads the deviations past k = 0 with nan
        ("sweep --family path --n-list 1,3 --command poisson", 0,
         "2ab7778b4c654b2ecfd391004067219585c3012c110b7d6e00d0f0f7414619fc"),
        # taken while each report wrote its own JSON dict, before the CLI's
        # one serializer: one-vertex hosts and a two-vertex sampling run
        # cover every report type and every serializer rule in small documents
        ("roots --graph complete(1)", 0,
         "ae9415d4f0b44fff1f3a86ff213b75a80e0e289766071f2537ad356ce05cb3bf"),
        ("verify --graph path(1)", 0,
         "a9f1934fc87bfec27f832f2f0c55924851282189e663e1d29b2d48f7140199c0"),
        ("tree-check --graph path(1)", 0,
         "e5fb87a019ecc91597a585be7c43e35bd37b10ac9b6e62f97df7b8d2b9d0d022"),
        ("experiment --graph path(2) --samples 5", 0,
         "8fea96ef65d8b1802bbebe83f136da5b43e3fc01c8bb6e5226e013908d3e2bee"),
        # taken while the certification evaluated every root afresh and the
        # Rouche circle evaluated every point: K_40 has roots that stop on
        # their step size (evaluated afresh still), and the two Rouche lines
        # have N = 2 (mod 4) and odd N, where axis points are evaluated
        # (re-pinned when the polish stopped at 192 bits where inclusion
        # disks prove the roots, instead of climbing to 267 and 558 bits:
        # the printed roots, Vieta strings, max_modulus and clusters agree;
        # precision_bits, iterations, residuals and the Vieta error moved)
        ("roots --graph complete(40)", 0,
         "454b3abd446d204e94a7b7a2855f7266085391e8bae66b94480dcc3cbe65ae8f"),
        ("roots --graph complete(80)", 0,
         "ce429954916b60252ae7e320406eca6e2c3783e11f5374fd79eef429ab904f33"),
        ("rouche --graph complete(120) --circle-points 6", 0,
         "ef5784f7451c2ac7f54b4f9eae3667f4f6134be33138cd06f360b49fe2cb10f1"),
        ("rouche --graph complete(120) --circle-points 7", 0,
         "2f8ce313af46ccff43aa4d90d319781718c340d7e8f5791bbab36d983a02b482"),
    ],
)
def test_command_golden_bytes(capsys, argv, status, digest):
    # hashes taken while each command rendered its own JSON and CSV and the
    # CLI routed complete hosts to the closed form in four places
    # (the JSON roots and tree-check documents, the two roots CSV tables and
    # the two roots sweeps were re-pinned when the polish moved to a
    # precision ladder: iterations and rounding-noise digits changed; the
    # first four were re-pinned again when the residuals moved to the
    # integer evaluator: only the noise-level residuals changed; the three
    # roots documents were re-pinned again when the double-precision start
    # left numpy: only digits below 2^-work_bits in the roots' components
    # (and in the cluster centres taken from them) and the residuals changed;
    # the seven documents with roots re-pinned again when the polish moved to
    # fixed-point iterates: the printed digits agree, the residuals and Vieta
    # errors stay at the rounding level, a component at rounding noise prints
    # as 0.0, and the iterations of K_80 and cycle(8) moved from 667 and 19
    # to 668 and 17; the ten documents with roots or Vieta fields re-pinned
    # again when the polish corrected one root per conjugate pair: the
    # printed digits agree, a mirror's residual is its leader's, K_80's real
    # root prints im 0.0, the iterations about halved (K_80 668 to 364),
    # vieta_product and vieta_target print as 25-digit strings, and the CSV
    # modulus carries the root's own digits; K_80 re-pinned again when the
    # polish took the Aberth step Q/(Q' - Q R) in one integer division: the
    # printed roots agree, and only residuals at the rounding level and the
    # Vieta error moved)
    code, out, _ = invoke(capsys, *argv.split())
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "csv" not in argv and not argv.startswith("sweep"):
        _strict_json(out)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--help", "45b6c68c767f805267f0b62e20543b23655c7983c2aba4f35c900f14074799e3"),
        # re-pinned when --family took its choices from the family names
        ("sweep --help", "349474107bf1ba9873668d9c4a8838216824be079dc7cab609357cc3ae2f5fef"),
    ],
)
def test_help_golden_bytes(monkeypatch, capsys, argv, digest):
    # the CSV column lists in the help are generated from the command tables
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run(argv.split())
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_help_names_every_family(monkeypatch, capsys):
    # the graph-source epilog lists the families by hand; each row of the
    # family table must appear there as name(args), with the row's argument names
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        run(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    for name, family in FAMILIES.items():
        form = f"{name}({','.join(family.args)})"
        assert f" {form}" in out, form


def test_complete_family_routes_through_closed_form(capsys):
    # complete -graph requests use the closed form, so the enumeration cap
    # does not apply to them
    status, out, _ = invoke(capsys, "counts", "--graph", "complete(30)")
    assert status == 0
    doc = json.loads(out)
    assert doc["result"]["counts"][-1] == str(30**28)


def test_invalid_family_exit_code(capsys):
    status, _, _ = invoke(capsys, "counts", "--graph", "torus(5)")
    assert status == 1


def test_byte_identical_reruns(capsys):
    args = ["beta", "--graph", "complete(8)", "--samples", "500", "--seed", "3"]
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_thread_count_does_not_change_bytes(capsys):
    base = ["experiment", "--graph", "complete(7)", "--samples", "400", "--seed", "11"]
    _, serial, _ = invoke(capsys, *base, "--threads", "1")
    _, parallel, _ = invoke(capsys, *base, "--threads", "3")
    assert serial == parallel


def test_console_entry_point():
    # the installed script must behave like the in-process runner
    # the child finds the package where this process imported it from, so the
    # test also runs from a checkout without an install
    package_root = str(Path(subtree_poly_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subtree_poly_lab.cli", "counts", "--graph", "complete(4)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["counts"] == ["4", "6", "12", "16"]


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(subparser):
    return [a for a in subparser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


def test_numeric_flags_parse_with_the_library_checks():
    # a flag that takes a number is parsed by the check of its parameter in
    # `params`, never by a bare int/float or a private rule of the CLI
    for command, subparser in _subcommands(cli._build_parser()).items():
        for action in _flags(subparser):
            numeric_default = isinstance(action.default, (int, float)) and not isinstance(action.default, bool)
            if action.type is not None or numeric_default:
                check = getattr(action.type, "func", None)
                assert getattr(check, "__module__", None) == params.__name__, (command, action.option_strings)


# per check: values in range, and values just outside it, small enough that
# every command line finishes in milliseconds on the hosts below
_BOUNDED_VALUES = {
    params.seed: (["0", "7", str(2**64 - 1)], [str(2**64)]),
    params.samples: (["1", "200"], ["0"]),
    params.threads: (["1"], ["0"]),
    params.cap: (["0", "3", "62", "100"], []),
    params.tree_cap: (["3", "1000000"], []),
    params.circle_points: (["1", "16", "4096"], ["0", "4097"]),
    params.k_max: (["0", "1", "3"], []),
    params.precision_bits: (["106", "512"], ["105"]),
    params.finite: (["0", "1e-9", "0.5"], ["1e400"]),
    params.rouche_C: (["6.5", "7", "12"], ["6"]),
    params.probability: (["0", "0.5", "1"], ["1.5"]),
    params.b_grid: (["0.3", "0.2,0.5", "0.3,,1e-3"], ["0", ","]),
}
_MALFORMED = ["", "x", "nan", "inf", "-inf", "-1", "1.5"]
# per text flag: usual values, and malformed ones
_TEXT_VALUES = {
    "graph": (["complete(4)", "complete(1)", "path(3)", "cycle(4)", "gnp(5,0.5)", "gnp(4,0.0)",
               "random_tree(5)", "complete_minus_perfect_matching(4)"],
              ["cycle(2)", "gnp(5,nan)", "complete(x)", ""]),
    "family": (["complete", "cycle", "path", "gnp", "random_tree"], ["torus"]),
    "n_list": (["", "3", "2,4", "5"], ["4,a", "0"]),
}


def _flag_arg(action, edge_lists, broken, needed):
    """`--flag=value`, or None for an absent flag; a broken flag takes a bad value."""
    if action.choices:
        usual, unusual = list(action.choices), ["xml"]
    elif action.type is not None:
        usual, outside = _BOUNDED_VALUES[action.type.func]
        unusual = outside + _MALFORMED
    elif action.dest == "edge_list":
        usual, unusual = edge_lists[:2], edge_lists[2:]
    else:
        usual, unusual = _TEXT_VALUES[action.dest]
    flag = action.option_strings[-1]
    arg = st.sampled_from(unusual if broken else usual).map(lambda v: f"{flag}={v}")
    return arg if broken or needed or action.required else st.none() | arg


@pytest.fixture(scope="module")
def fuzz_edge_lists(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "split.txt").write_text("4 2\n0 1\n2 3\n")  # disconnected
    (root / "square.txt").write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    return [str(root / "split.txt"), str(root / "square.txt"), str(root / "missing.txt"), str(root)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_grammar_fuzz(fuzz_edge_lists, data):
    # argv is drawn from the parser's own subcommands and flags, so a new
    # flag is fuzzed without editing this test
    commands = _subcommands(cli._build_parser())
    command = data.draw(st.sampled_from(sorted(commands)))
    parser = commands[command]
    flags = _flags(parser)
    # most lines break no flag or one, some break two; of a group of
    # exclusive flags one appears, and a broken one appears beside it
    broken = data.draw(st.sets(st.sampled_from(flags), max_size=2))
    chosen = [data.draw(st.sampled_from(g._group_actions)) for g in parser._mutually_exclusive_groups]
    excluded = {a for g in parser._mutually_exclusive_groups for a in g._group_actions} - set(chosen)
    present = [data.draw(_flag_arg(a, fuzz_edge_lists, a in broken, a in chosen))
               for a in flags if a in broken or a not in excluded]
    argv = [command] + [arg for arg in present if arg is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)  # an exception here is a traceback in the CLI
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2, 3), (argv, err)
    if status in (1, 2) and out:
        # the documented exception: verify flags a disconnected host
        assert (command, status) == ("verify", 1) and "disconnected" in err, argv
    if out.startswith("# subtree-poly-lab"):
        _strict_json(out.splitlines()[0].split(" spec=", 1)[1])
    elif out:
        _strict_json(out)
