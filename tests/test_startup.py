"""What a CLI process loads: each command pays only for the code it runs."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import subtree_poly_lab
from subtree_poly_lab.counting import SMALL_HOST_VERTICES

# hashlib loads OpenSSL, a few ms per process; only `counts` hashes its host
HEAVY = ("numpy", "mpmath", "concurrent.futures", "hashlib")

# the cost of building records as dataclasses: `dataclasses` imports
# `inspect`, about 10 ms per process
RECORD_BUILDERS = ("dataclasses", "inspect")

# the Wilson sampler: only the sampling commands compile it
SAMPLER = "subtree_poly_lab.sampling"

# runs the CLI as `python -m` would, then reports which HEAVY,
# RECORD_BUILDERS and SAMPLER modules it loaded
_PROBE = """
import json, runpy, sys
sys.argv = ["subtree-poly-lab", *sys.argv[1:]]
try:
    runpy.run_module("subtree_poly_lab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, [m for m in {heavy!r} if m in sys.modules]]))
""".format(heavy=HEAVY + RECORD_BUILDERS + (SAMPLER,))


def _loaded(*argv):
    # the child finds the package where this process imported it from
    package_root = str(Path(subtree_poly_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status in (0, None), proc.stderr
    return set(loaded)


@pytest.fixture(scope="module")
def edge_list(tmp_path_factory):
    # K_5 minus a perfect matching of two edges: not a tree, not a closed form
    path = tmp_path_factory.mktemp("graphs") / "host.txt"
    path.write_text("5 8\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 4\n3 4\n")
    return str(path)


@pytest.fixture(scope="module")
def dense_edge_list(tmp_path_factory):
    # K_8 minus the perfect matching {2i, 2i + 1}, relabelled, like the benchmark's verify host
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for u in range(8) for v in range(u + 1, 8) if not (u % 2 == 0 and v == u + 1)
    )
    path = tmp_path_factory.mktemp("graphs") / "dense.txt"
    path.write_text(f"8 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


@pytest.mark.parametrize("argv", [("--version",), ("--help",)])
def test_version_and_help_load_nothing_heavy(argv):
    assert _loaded(*argv) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--graph", "complete(12)"),
        ("rouche", "--graph", "complete(12)"),
        ("poisson", "--graph", "complete(12)"),
        ("sweep", "--family", "complete", "--n-list", "5,7", "--command", "poisson"),
        ("tree-check", "--graph", "path(9)"),
        ("counts", "--graph", "path(7)"),  # the tree route
        # spanning-tree enumeration and exact weights need no numpy
        ("verify", "--graph", "complete(8)"),
        ("verify", "--graph", "path(9)"),
        # hosts of at most SMALL_HOST_VERTICES vertices are enumerated
        # on Python integers
        ("verify", "--edge-list", "{edge_list}"),
        ("counts", "--edge-list", "{edge_list}"),
        ("poisson", "--graph", "cycle(9)"),
        ("verify", "--edge-list", "{dense_edge_list}"),
    ],
)
def test_closed_form_and_tree_hosts_run_without_numpy(argv, edge_list, dense_edge_list):
    # nor the sampler: verify compiles only the exact tree walk
    loaded = _loaded(*(a.format(edge_list=edge_list, dense_edge_list=dense_edge_list) for a in argv))
    assert not loaded & {"numpy", SAMPLER}


# numpy imports inspect itself, so commands that load numpy are out of scope;
# --version and --help are checked above, where they load no probed module
@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--graph", "complete(12)"),
        ("rouche", "--graph", "complete(12)"),
        ("poisson", "--graph", "complete(12)"),
        ("tree-check", "--graph", "path(9)"),
        ("verify", "--edge-list", "{edge_list}"),
    ],
)
def test_records_load_no_dataclasses(argv, edge_list):
    loaded = _loaded(*(a.format(edge_list=edge_list) for a in argv))
    assert not loaded & set(RECORD_BUILDERS)


@pytest.mark.parametrize(
    "argv", [("roots", "--graph", "complete(12)"), ("rouche", "--graph", "complete(12)")]
)
def test_root_commands_load_no_hashlib(argv):
    assert "hashlib" not in _loaded(*argv)


def test_experiment_loads_the_sampler():
    assert SAMPLER in _loaded("experiment", "--graph", "complete(6)", "--samples", "50", "--threads", "1")


def test_hosts_above_the_small_bound_count_with_numpy(tmp_path):
    # an 11-cycle with one chord: one vertex above SMALL_HOST_VERTICES, not a tree
    n = SMALL_HOST_VERTICES + 1
    edges = sorted([(v, v + 1) for v in range(n - 1)] + [(0, n - 1), (0, n // 2)])
    path = tmp_path / "large.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert "numpy" in _loaded("counts", "--edge-list", str(path))


# the root commands round and print their roots from the integers of the
# polish, on Python integers alone
@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--graph", "complete(40)"),
        ("roots", "--graph", "complete(10)", "--format", "csv"),
        ("rouche", "--graph", "complete(120)"),
        ("tree-check", "--graph", "random_tree(9)", "--seed", "5"),
        ("sweep", "--family", "complete", "--n-list", "2,8", "--command", "roots"),
    ],
)
def test_root_commands_load_no_mpmath(argv):
    assert "mpmath" not in _loaded(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--edge-list", "{edge_list}"),
        # the deviations are exact rationals read off the counts
        ("poisson", "--graph", "complete(12)"),
        ("sweep", "--family", "complete", "--n-list", "5,7", "--command", "poisson"),
        ("verify", "--edge-list", "{edge_list}"),
        ("experiment", "--graph", "complete(6)", "--samples", "50", "--threads", "1"),
    ],
)
def test_counting_and_sampling_load_no_root_code_or_pool(argv, edge_list):
    loaded = _loaded(*(a.format(edge_list=edge_list) for a in argv))
    assert not loaded & {"mpmath", "concurrent.futures"}


# string annotations on a NamedTuple field (what `from __future__ import
# annotations` makes of every annotation) are each compiled into a
# typing.ForwardRef when the class is built, on every import
_FORWARD_REFS = """
import sys, typing
built = []
init = typing.ForwardRef.__init__
def counted(self, *args, **kwargs):
    built.append(args[0])
    init(self, *args, **kwargs)
typing.ForwardRef.__init__ = counted
import subtree_poly_lab.cli, subtree_poly_lab.polyroots, subtree_poly_lab.sampling
import subtree_poly_lab.spanning
print(len(built))
"""


def test_importing_the_commands_compiles_no_forward_references():
    package_root = str(Path(subtree_poly_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FORWARD_REFS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


# the names the package exported when it imported every module eagerly
_EXPORTED = """
SubtreeCountVector brute_force_subtree_count check_ratio_inequalities
complete_graph_counts enumerate_connected_subsets spanning_tree_count subtree_counts
CapacityError CertificationError EdgeListParseError SubtreeLabError ValidationError
DegreeProfile FamilySpec Graph degree_profile from_edge_list generate
generate_connected is_connected parse_family
RootAnalysis build_polynomial find_roots poisson_deviation
rouche_margin tree_root_check RandomStream stream
BetaEstimate SpanningTree WeightSample enumerate_spanning_trees
estimate_beta exact_beta leaf_weight verify_weight_identity
weight_experiment wilson_sample __version__
""".split()


def test_package_names_resolve_on_first_access():
    for name in _EXPORTED:
        assert getattr(subtree_poly_lab, name) is not None
        assert name in dir(subtree_poly_lab)
    assert set(subtree_poly_lab.__all__) == set(_EXPORTED) - {"__version__"}
    from subtree_poly_lab import cli, exact_beta, find_roots  # noqa: F401

    with pytest.raises(AttributeError):
        subtree_poly_lab.no_such_name


# the dependencies in pyproject.toml; mpmath (the tests' reference),
# scipy, sympy or networkx may be installed beside them, but the package
# must not need them
DEPENDENCIES = {"numpy"}


def test_package_imports_only_the_standard_library_and_its_dependencies():
    package = Path(subtree_poly_lab.__file__).resolve().parent
    imported = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay inside
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert {"numpy", "math"} <= imported.keys()
    foreign = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names and name not in DEPENDENCIES}
    assert not foreign


def test_numpy_is_imported_at_module_level_by_its_kernels_only():
    # the modules that run numpy import it at their top; every other module
    # stays free of it, so a command that does not run them never loads it
    package = Path(subtree_poly_lab.__file__).resolve().parent
    importers = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                assert node in tree.body, f"{path.name}:{node.lineno} imports numpy below module level"
                importers.add(path.stem)
    assert importers == {"rng", "subsets", "sampling"}


def test_readme_python_example_holds():
    # the README's library example runs as written, and its commented
    # claim about beta on K_12 is exact
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["beta"] == Fraction(11, 12) ** 9
    assert len(namespace["roots"].roots) == 12
