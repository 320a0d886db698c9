"""Workload inputs and operation lists, made from the benchmark seed.

The benchmark owns its input generator, so a change to the lab's own
generators cannot change what is measured. The G(n, p) draw repeats the
lab's documented scheme (one Philox stream keyed by the seed, one uniform
per vertex pair in lexicographic order), so ``gnp(16,0.5)`` at seed 1 is
the ROADMAP baseline host with 62,561 connected subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("count-dense", "sample-dense", "roots-dense", "identity-small")

GNP_N = 16
GNP_P = 0.5
CMPM_COUNT_N = 16
CMPM_IDENTITY_N = 8
SAMPLE_N = 15
SAMPLES = 20_000
ROOTS_NS = (40, 60, 80)
ROUCHE_N = 120
# CLI defaults, spelled out so the in-process replay reads them from argv
B_GRID = "0.2,0.3,0.4,0.5"
EPSILON = "0.05"
PRECISION_BITS = "192"
ROUCHE_C = "7.0"
CIRCLE_POINTS = "256"


@dataclass(frozen=True)
class Host:
    """A generated host graph, written as an edge list the CLI reads."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    path: str  # relative to the checkout root, so stdout bytes repeat

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"] + [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Inputs:
    seed: int
    gnp: Host
    cmpm_count: Host
    cmpm_identity: Host


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the independent check of its stdout document."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], None]


def gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    words = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1))).integers(
        0, 2**64, size=n * (n - 1) // 2, dtype=np.uint64
    )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [pair for pair, w in zip(pairs, words.tolist()) if (w >> 11) * 2.0**-53 < p]


def relabelled_cmpm_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """K_n minus the perfect matching {2i, 2i+1}, under a random relabelling."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = (
        (perm[u], perm[v])
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % 2 == 0 and v == u + 1)
    )
    return sorted((min(e), max(e)) for e in edges)


def make_inputs(seed: int, out_dir: Path, root: Path) -> Inputs:
    """Generate every host for `seed` and write its edge list under `out_dir`."""
    rng = random.Random(seed)
    input_dir = out_dir / "inputs" / f"seed{seed}"
    input_dir.mkdir(parents=True, exist_ok=True)

    def host(name: str, n: int, edges) -> Host:
        path = input_dir / f"{name}.txt"
        made = Host(name, n, tuple(edges), str(path.relative_to(root)))
        path.write_text(made.text(), encoding="utf-8")
        return made

    return Inputs(
        seed=seed,
        gnp=host(f"gnp{GNP_N}", GNP_N, gnp_edges(GNP_N, GNP_P, seed)),
        cmpm_count=host(f"cmpm{CMPM_COUNT_N}", CMPM_COUNT_N,
                        relabelled_cmpm_edges(CMPM_COUNT_N, rng)),
        cmpm_identity=host(f"cmpm{CMPM_IDENTITY_N}", CMPM_IDENTITY_N,
                           relabelled_cmpm_edges(CMPM_IDENTITY_N, rng)),
    )


def operations(workload: str, inputs: Inputs) -> list[Op]:
    """The workload's CLI operations, in the order one pass runs them."""
    if workload == "count-dense":
        g, c = inputs.gnp, inputs.cmpm_count
        return [
            Op(f"counts {g.name}", ("counts", "--edge-list", g.path),
               lambda doc: checks.counts_generic(doc, g.n, g.edges)),
            Op(f"counts {c.name}", ("counts", "--edge-list", c.path),
               lambda doc: checks.counts_cmpm(doc, c.n)),
        ]
    if workload == "sample-dense":
        return [
            Op(
                f"experiment K{SAMPLE_N}",
                ("experiment", "--graph", f"complete({SAMPLE_N})", "--samples", str(SAMPLES),
                 "--b-grid", B_GRID, "--epsilon", EPSILON, "--seed", str(inputs.seed)),
                lambda doc: checks.experiment_complete(doc, SAMPLE_N, SAMPLES),
            )
        ]
    if workload == "roots-dense":
        ops = [
            Op(
                f"roots K{n}",
                ("roots", "--graph", f"complete({n})", "--precision-bits", PRECISION_BITS),
                lambda doc, n=n: checks.roots_complete(doc, n),
            )
            for n in ROOTS_NS
        ]
        ops.append(
            Op(
                f"rouche K{ROUCHE_N}",
                ("rouche", "--graph", f"complete({ROUCHE_N})", "--C", ROUCHE_C,
                 "--circle-points", CIRCLE_POINTS, "--precision-bits", PRECISION_BITS),
                lambda doc: checks.rouche_complete(doc, ROUCHE_N),
            )
        )
        return ops
    if workload == "identity-small":
        h = inputs.cmpm_identity
        return [
            Op(
                f"verify {h.name}",
                ("verify", "--edge-list", h.path),
                lambda doc: checks.verify_doc(doc, h.n, h.edges),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")
