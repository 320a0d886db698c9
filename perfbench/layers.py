"""The traced run: the lab's public calls made in-process, under spans.

Spans sit only around public calls made from this file, one layer per
module of the lab (graphs, counting, spanning, rng, polyroots). Every
operation of every workload is replayed along the route the CLI takes,
under an ``op`` span whose children are the layer calls; ``detail`` spans
then split the kernels further on the same inputs (subset enumeration
against determinants, stream setup against walks, tree enumeration
against leaf weights). Spans stay in memory and are written out with the
result document.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from subtree_poly_lab import (
    CertificationError,
    build_polynomial,
    check_ratio_inequalities,
    complete_graph_counts,
    degree_profile,
    enumerate_connected_subsets,
    enumerate_spanning_trees,
    estimate_beta,
    find_roots,
    from_edge_list,
    generate,
    is_connected,
    leaf_weight,
    rouche_margin,
    spanning_tree_count,
    stream,
    subtree_counts,
    verify_weight_identity,
    weight_experiment,
    wilson_sample,
)
from subtree_poly_lab.counting import subset_spanning_tree_count
from subtree_poly_lab.rng import DOMAIN_SAMPLE, RandomStream

import workloads

STREAM_BATCH = 1000


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"
    op: str  # operation id shared by the spans of one operation
    parent: int | None
    start: float
    end: float = 0.0
    busy: float | None = None  # summed time of calls interleaved with others
    calls: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start if self.busy is None else self.busy


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, op: str, start: float) -> Span:
        span = Span(len(self.spans), name, op, self._stack[-1] if self._stack else None, start)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: str):
        span = self._open(name, op, time.perf_counter())
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, op: str, start: float, busy: float, calls: int) -> Span:
        """A child span for `calls` calls interleaved with other work since `start`."""
        span = self._open(name, op, start)
        span.end = time.perf_counter()
        span.busy = busy
        span.calls = calls
        return span

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span less the part its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        layers: dict[str, float] = {}
        for span in self.spans:
            layer = span.name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + span.duration - child_time[span.id]
        return layers

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


class CountingStream(RandomStream):
    """A RandomStream that counts walk steps (randint calls) and raw draws."""

    __slots__ = ("steps", "draws")

    def __init__(self, generator):
        super().__init__(generator)
        self.steps = 0
        self.draws = 0

    def next_u64(self) -> int:
        self.draws += 1
        return RandomStream.next_u64(self)

    def randint(self, n: int) -> int:
        self.steps += 1
        return RandomStream.randint(self, n)


def _options(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _load(tr: Tracer, op: str, opts: dict):
    if "--edge-list" in opts:
        with tr.span("graphs.from_edge_list", op):
            return from_edge_list(Path(opts["--edge-list"]).read_text(encoding="utf-8"))
    with tr.span("graphs.generate", op):
        return generate(opts["--graph"], int(opts.get("--seed", 0)))


def replay(tr: Tracer, op: workloads.Op):
    """Run `op` in-process along the CLI's route; return the library result."""
    command, opts = op.argv[0], _options(op.argv)
    with tr.span(f"op.{command}", op.label):
        g = _load(tr, op.label, opts)
        if command == "counts":
            with tr.span("counting.subtree_counts", op.label):
                return subtree_counts(g)
        if command == "experiment":
            grid = [float(b) for b in opts["--b-grid"].split(",")]
            with tr.span("spanning.weight_experiment", op.label):
                return weight_experiment(g, int(opts["--samples"]), int(opts["--seed"]), grid,
                                         float(opts["--epsilon"]), threads=1)
        if command in ("roots", "rouche"):
            with tr.span("counting.complete_graph_counts", op.label):
                counts = complete_graph_counts(g.n)  # the CLI routes complete(n) here
        if command == "roots":
            with tr.span("polyroots.find_roots", op.label):
                try:
                    return find_roots(build_polynomial(counts),
                                      precision_bits=int(opts["--precision-bits"]))
                except CertificationError as err:
                    return err
        if command == "rouche":
            with tr.span("graphs.degree_profile", op.label):
                alpha = degree_profile(g).alpha
            with tr.span("polyroots.rouche_margin", op.label):
                return rouche_margin(counts, alpha, C=float(opts["--C"]),
                                     circle_points=int(opts["--circle-points"]),
                                     precision_bits=int(opts["--precision-bits"]))
        if command == "verify":
            with tr.span("graphs.is_connected", op.label):
                is_connected(g)
            with tr.span("counting.subtree_counts", op.label):
                counts = subtree_counts(g)
            with tr.span("graphs.degree_profile", op.label):
                profile = degree_profile(g)
            with tr.span("spanning.verify_weight_identity", op.label):
                identity = verify_weight_identity(g)
            with tr.span("counting.check_ratio_inequalities", op.label):
                check_ratio_inequalities(counts, profile.alpha, profile.min_degree)
            with tr.span("counting.spanning_tree_count", op.label):
                spanning_tree_count(g)
                spanning_tree_count(g)  # the CLI computes it twice
            return identity
    raise ValueError(f"no replay for command {command!r}")


def _detail_counting(tr: Tracer, host: workloads.Host, expected) -> dict:
    op = f"detail counts {host.name}"
    g = from_edge_list(host.text())
    with tr.span("bench.detail", op):
        with tr.span("counting.enumerate_connected_subsets", op) as enum:
            subsets = [w for k in range(2, g.n + 1) for w in enumerate_connected_subsets(g, k)]
        with tr.span("counting.subset_spanning_tree_count", op) as det:
            counts = [g.n] + [0] * (g.n - 1)
            for w in subsets:
                counts[len(w) - 1] += subset_spanning_tree_count(g, list(w))
    if tuple(counts) != expected.counts:
        raise AssertionError(f"{host.name}: per-subset determinants do not sum to subtree_counts")
    return {
        "subsets": len(subsets),  # sizes 2..n, as the ROADMAP baseline counts them
        "enumerate_s": enum.duration,
        "determinant_s": det.duration,
        # computed, not measured: Bareiss on a (k-1)x(k-1) minor costs about (k-1)^3/3 steps
        "bareiss_ops": sum((len(w) - 1) ** 3 for w in subsets) / 3,
    }


def _detail_sampling(tr: Tracer, seed: int, experiment_s: float) -> dict:
    op = "detail sampling"
    n, samples = workloads.SAMPLE_N, workloads.SAMPLES
    g = generate(f"complete({n})")
    grid = [float(b) for b in workloads.B_GRID.split(",")]
    out = {}
    with tr.span("bench.detail", op):
        with tr.span("spanning.estimate_beta", op) as span:
            estimate_beta(g, samples, seed)
        out["estimate_s"] = span.duration
        workers = min(2, len(os.sched_getaffinity(0)))
        with tr.span(f"spanning.weight_experiment[threads={workers}]", op) as span:
            weight_experiment(g, samples, seed, grid, float(workloads.EPSILON), threads=workers)
        out["pool_workers"] = workers
        out["pool_speedup"] = experiment_s / span.duration
        with tr.span("bench.walk_pass", op):
            start, setup, walk = time.perf_counter(), 0.0, 0.0
            for lo in range(0, samples, STREAM_BATCH):
                t0 = time.perf_counter()
                batch = [stream(seed, i, domain=DOMAIN_SAMPLE)
                         for i in range(lo, min(lo + STREAM_BATCH, samples))]
                t1 = time.perf_counter()
                for rs in batch:
                    wilson_sample(g, rs)
                setup += t1 - t0
                walk += time.perf_counter() - t1
            out["stream_setup_s"] = tr.record("rng.stream", op, start, setup, samples).duration
            out["walk_s"] = tr.record("spanning.wilson_sample", op, start, walk, samples).duration
    # counted separately, so that counting does not slow the timed walks
    steps = draws = 0
    for i in range(samples):
        # the lab offers no public hook for a stream subclass: reuse the generator it keyed
        rs = CountingStream(stream(seed, i, domain=DOMAIN_SAMPLE)._gen)
        wilson_sample(g, rs)
        steps += rs.steps
        draws += rs.draws
    out.update(walk_steps=steps, draws=draws, accept_ratio=steps / draws)
    return out


def _detail_identity(tr: Tracer, host: workloads.Host) -> dict:
    op = f"detail verify {host.name}"
    g = from_edge_list(host.text())
    with tr.span("bench.detail", op):
        start, enum_s, weight_s, trees = time.perf_counter(), 0.0, 0.0, 0
        weight_sum = Fraction(0)
        it = enumerate_spanning_trees(g)
        while True:
            t0 = time.perf_counter()
            tree = next(it, None)
            t1 = time.perf_counter()
            enum_s += t1 - t0
            if tree is None:
                break
            weight_sum += leaf_weight(tree, g).weight
            weight_s += time.perf_counter() - t1
            trees += 1
        tr.record("spanning.enumerate_spanning_trees", op, start, enum_s, trees)
        tr.record("spanning.leaf_weight", op, start, weight_s, trees)
    return {"trees": trees, "enumerate_trees_s": enum_s, "leaf_weight_s": weight_s,
            "weight_sum": weight_sum}


def _span_cost(samples: int = 2000) -> float:
    """Seconds one span adds, timed on empty spans."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("bench.empty", "calibration"):
            pass
    return (time.perf_counter() - start) / samples


def traced_run(inputs: workloads.Inputs) -> tuple[Tracer, dict, dict]:
    """Replay every workload's operations and the kernel details.

    Returns the tracer, the per-layer metrics other than cli.*, and the
    per-operation in-process seconds keyed by operation label.
    """
    tr = Tracer()
    results = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, inputs):
            results[op.label] = replay(tr, op)
    op_seconds = {s.op: s.duration for s in tr.spans if s.name.startswith("op.")}

    def total(name: str) -> float:
        return sum(s.duration for s in tr.spans if s.name == name)

    m: dict[str, float] = {}
    count_hosts = (inputs.gnp, inputs.cmpm_count)
    details = [_detail_counting(tr, h, results[f"counts {h.name}"]) for h in count_hosts]
    m["counting.subtree_counts_s"] = total("counting.subtree_counts")
    m["counting.enumerate_s"] = sum(d["enumerate_s"] for d in details)
    m["counting.subsets"] = sum(d["subsets"] for d in details)
    m["counting.determinant_s"] = sum(d["determinant_s"] for d in details)
    m["counting.bareiss_ops"] = sum(d["bareiss_ops"] for d in details)
    m["counting.closed_form_s"] = total("counting.complete_graph_counts")

    experiment_s = total("spanning.weight_experiment")
    sampling = _detail_sampling(tr, inputs.seed, experiment_s)
    m["spanning.experiment_s"] = experiment_s
    m["spanning.estimate_s"] = sampling["estimate_s"]
    m["spanning.walk_s"] = sampling["walk_s"]
    m["spanning.walk_steps"] = sampling["walk_steps"]
    m["spanning.pool_speedup"] = sampling["pool_speedup"]

    identity = _detail_identity(tr, inputs.cmpm_identity)
    verified = results[f"verify {inputs.cmpm_identity.name}"]
    if identity["weight_sum"] != verified.weight_sum or identity["trees"] != verified.tree_count:
        raise AssertionError("tree enumeration detail disagrees with verify_weight_identity")
    m["spanning.enumerate_trees_s"] = identity["enumerate_trees_s"]
    m["spanning.trees"] = identity["trees"]
    m["spanning.leaf_weight_s"] = identity["leaf_weight_s"]
    m["spanning.identity_s"] = total("spanning.verify_weight_identity")

    m["rng.stream_setup_s"] = sampling["stream_setup_s"]
    m["rng.draws"] = sampling["draws"]
    m["rng.accept_ratio"] = sampling["accept_ratio"]

    certified, residuals, iterations, roots_found, work_bits = 0, [], 0, 0, 0
    for n in workloads.ROOTS_NS:
        label = f"roots K{n}"
        m[f"polyroots.find_roots_s.n{n}"] = next(
            s.duration for s in tr.spans if s.op == label and s.name == "polyroots.find_roots")
        result = results[label]
        residuals.extend(result.residuals)
        if isinstance(result, CertificationError):
            continue  # the error carries no iteration count
        certified += 1
        m[f"polyroots.iterations.n{n}"] = result.iterations
        iterations += result.iterations
        roots_found += n - 1
        work_bits = max(work_bits, result.precision_bits)
    m["polyroots.iterations_per_root"] = iterations / roots_found
    m["polyroots.work_bits"] = work_bits
    m["polyroots.certified"] = certified
    m["polyroots.max_residual"] = max(residuals)
    m["polyroots.rouche_s"] = total("polyroots.rouche_margin")

    m["graphs.load_s"] = total("graphs.from_edge_list") + total("graphs.generate")

    extra = {
        "per_host_subsets": {h.name: d["subsets"] for h, d in zip(count_hosts, details)},
        "pool_workers": sampling["pool_workers"],
        "span_cost_s": _span_cost(),
        "op_seconds": op_seconds,
    }
    return tr, m, extra
