"""Benchmark for subtree-poly-lab: CLI workloads end to end, layers in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count-dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Every operation is a fresh ``python -m subtree_poly_lab.cli`` process on the
checkout's own ``src/``, the way a batch script runs the lab. Runs are a
closed loop of one client: an operation starts when the previous one ends.

``--trace 0`` measures set-up time, then repeats passes over the workload's
operation list until ``--seconds`` is spent (at least two, so every output
is repeated and its stdout hash compared), and reports the end-to-end
metrics of BENCHMARK.json. It runs on one CPU and rescales its times to a
reference CPU speed (see REFERENCE_S).

``--trace 1`` runs one checked pass, then replays every workload's
operations in-process under spans (see layers.py) and reports the
per-layer metrics.

Every operation's stdout is checked against an independent reference
(checks.py). An operation fails when it exits nonzero, fails its check, or
repeats with other stdout bytes. A refusal the lab documents, exit 3 with
"certification failure" on stderr and nothing on stdout, counts as failed
but not as a wrong answer; any other failure makes ``correct`` false.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, every process,
spans) goes to perfbench-out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_SAMPLES = 5
MIN_PASSES = 2  # the second pass repeats every operation for the hash check
DEADLINE_S = 170.0  # a run must end within 180 s; hung processes are killed first
# The host's CPU speed drifts by up to a third over seconds to minutes, and
# CPU time drifts with wall time, so end-to-end times are rescaled to a
# reference speed: seconds * REFERENCE_S / (mean time of a fixed pure-Python
# loop run before, between and after the processes timed, on the same CPU).
# REFERENCE_S is the loop's time at the fast end of the drift on the
# development host, a 2-vCPU Xeon VM, so figures there read close to
# measured seconds.
REFERENCE_LOOPS = 1_800_000
REFERENCE_S = 0.21


@dataclass
class OpRun:
    label: str
    argv: list[str]
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    sha256: str
    status: str  # ok | refused | wrong | error | nondeterministic
    message: str = ""
    reference_s: float = 0.0  # mean of the reference loop timed before and after

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def incorrect(self) -> bool:
        return self.status not in ("ok", "refused")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBTREE_POLY_LAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv, deadline: float):
    """Run one CLI process; return (exit code, wall, cpu, maxrss MB, stdout, stderr)."""
    out_path, err_path = OUT / "stdout.tmp", OUT / "stderr.tmp"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "subtree_poly_lab.cli", *argv],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        out_path.read_bytes(),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_op(op, deadline: float) -> OpRun:
    code, wall, cpu, rss, stdout, stderr = run_cli(op.argv, deadline)
    status, message = "ok", ""
    if code == 0:
        try:
            op.check(json.loads(stdout))
        except (checks.CheckError, ValueError, KeyError, TypeError) as err:
            status, message = "wrong", f"{type(err).__name__}: {err}"
    elif code == 3 and not stdout and stderr.startswith("certification failure:"):
        status, message = "refused", stderr.strip().splitlines()[-1]
    else:
        tail = stderr.strip().splitlines()[-1:] or [""]
        status, message = "error", f"exit {code}: {tail[0]}"
    return OpRun(op.label, list(op.argv), code, wall, cpu, rss, len(stdout),
                 hashlib.sha256(stdout).hexdigest(), status, message)


def time_reference_loop() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


def run_pass(ops, deadline: float) -> list[OpRun]:
    """Run each operation once, between timings of the reference loop."""
    runs = []
    before = time_reference_loop()
    for op in ops:
        run = run_op(op, deadline)
        after = time_reference_loop()
        run.reference_s = (before + after) / 2
        runs.append(run)
        before = after
    return runs


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(wall, reference) of CLI processes that import the package and exit.

    One unrecorded run first, so the bytecode cache is warm as it is for a
    user's second command.
    """
    samples = []
    before = 0.0
    for i in range(SETUP_SAMPLES + 1):
        code, wall, *_ = run_cli(["--version"], deadline)
        if code != 0:
            raise RuntimeError(f"subtree_poly_lab.cli --version exited {code}")
        after = time_reference_loop()
        if i:
            samples.append((wall, (before + after) / 2))
        before = after
    return samples


def mark_repeats(passes: list[list[OpRun]]) -> int:
    """Fail every repeat whose stdout hash differs from the first pass."""
    mismatches = 0
    for later in passes[1:]:
        for first, again in zip(passes[0], later):
            if again.sha256 != first.sha256:
                again.status = "nondeterministic"
                again.message = f"stdout sha256 {again.sha256[:12]} != {first.sha256[:12]}"
                mismatches += 1
    return mismatches


def environment() -> dict:
    import mpmath
    import numpy
    import subtree_poly_lab

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "subtree_poly_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "lab_version": subtree_poly_lab.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "platform": platform.platform(),
    }


def metric_block(names: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def measure_end_to_end(ops, seconds: float, deadline: float, spec: dict) -> dict:
    cpus = os.sched_getaffinity(0)
    # the reference loop and the processes it rescales share one CPU; the
    # two vCPUs of the development host run at anti-correlated speeds
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setup = measure_setup(deadline)
        passes: list[list[OpRun]] = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(ops, deadline))
            per_pass = (time.monotonic() - start) / len(passes)
            if len(passes) >= MIN_PASSES and time.monotonic() - start + per_pass > seconds:
                break
            if time.monotonic() + per_pass > deadline:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    mismatches = mark_repeats(passes)
    runs = [r for p in passes for r in p]
    failed = sum(r.failed for r in runs)
    walls = [sum(r.wall_s for r in p) for p in passes]
    # one speed per pass, from the mean of the reference timings around its operations
    scaled_walls = [w * REFERENCE_S * len(p) / sum(r.reference_s for r in p)
                    for w, p in zip(walls, passes)]
    rss = [max(r.rss_mb for r in p) for p in passes]
    values = {
        "setup_s": statistics.median(wall * REFERENCE_S / ref for wall, ref in setup),
        "wall_s": statistics.median(scaled_walls),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": 1 - failed / len(runs),
    }
    lines = [
        f"setup_s      {values['setup_s']:.4f} s   at reference speed; median of {len(setup)} "
        f"`--version` processes, {statistics.median(w for w, _ in setup):.4f} s measured",
        f"wall_s       {values['wall_s']:.4f} s   at reference speed; median of {len(walls)} passes "
        f"of {len(ops)} operations, {statistics.median(walls):.4f} s measured; no tail "
        "percentile (needs 10 samples beyond it)",
        f"reference    median {statistics.median(r.reference_s for r in runs):.4f} s next to "
        f"operations, {REFERENCE_S} s at reference speed",
        f"peak_rss_mb  {values['peak_rss_mb']:.2f} MB  median over passes of the largest ru_maxrss",
        f"fail_ratio   {failed / len(runs):.4f}     {failed} of {len(runs)} operations failed "
        f"(ok_ratio {values['ok_ratio']:.4f})",
        f"determinism  {len(runs) - len(ops)} repeats, {mismatches} stdout hash mismatches",
    ]
    lines += [f"check  pass {i + 1}  {r.label:18s} {r.status:8s} exit {r.exit_code}  "
              f"{r.wall_s:7.3f} s  {r.message}" for i, p in enumerate(passes) for r in p]
    return {
        "lines": lines,
        "correct": not any(r.incorrect for r in runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metric_block(spec["end_to_end"], values),
        "record": {"setup_samples_s": setup, "pass_walls_s": walls,
                   "pass_scaled_walls_s": scaled_walls, "pass_peak_rss_mb": rss,
                   "passes": [[asdict(r) for r in p] for p in passes]},
    }


def measure_layers(workload: str, ops, inputs, deadline: float, spec: dict) -> dict:
    import layers

    setup = statistics.median(wall for wall, _ in measure_setup(deadline))
    cli_pass = run_pass(ops, deadline)
    tracer, values, extra = layers.traced_run(inputs)
    in_process = sum(extra["op_seconds"][r.label] for r in cli_pass)
    wall = sum(r.wall_s for r in cli_pass)
    values["cli.overhead_s"] = sum(
        r.wall_s - setup - extra["op_seconds"][r.label] for r in cli_pass)
    values["cli.cpu_s"] = sum(r.cpu_s for r in cli_pass)
    values["cli.stdout_bytes"] = sum(r.stdout_bytes for r in cli_pass)
    labels = {r.label for r in cli_pass}
    spans_in_ops = sum(1 for s in tracer.spans if s.op in labels)
    self_times = tracer.self_times()
    lines = [f"{name:34s} {values[name]:.6g} {unit}" for name, unit in
             ((m["name"], m["unit"]) for m in spec["per_layer"])]
    lines += [f"self time  {layer:10s} {t:.4f} s" for layer, t in sorted(self_times.items())]
    lines += [
        f"tracing    {workload} operations traced in-process {in_process:.4f} s "
        f"against untraced CLI wall {wall:.4f} s ({len(ops)} processes, setup_s {setup:.4f} s); "
        f"{spans_in_ops} spans at {extra['span_cost_s'] * 1e6:.2f} us each",
        f"note       polyroots.iterations.n80 is not reported: CertificationError carries "
        f"no iteration count",
        f"note       subsets per count-dense host: {extra['per_host_subsets']}",
        f"note       spanning.pool_speedup uses {extra['pool_workers']} worker(s)",
        f"note       bareiss_ops is computed as sum over subsets of (|W|-1)^3/3, not measured",
    ]
    lines += [f"check      {r.label:18s} {r.status:8s} exit {r.exit_code}  {r.message}"
              for r in cli_pass]
    failed = sum(r.failed for r in cli_pass)
    return {
        "lines": lines,
        "correct": not any(r.incorrect for r in cli_pass),
        "attempted": len(cli_pass),
        "failed": failed,
        "metrics": metric_block(spec["per_layer"], values),
        "record": {"setup_s": setup, "cli_pass": [asdict(r) for r in cli_pass],
                   "layer_self_s": self_times,
                   "tracing": {"traced_s": in_process, "untraced_wall_s": wall,
                               "spans": spans_in_ops, "span_cost_s": extra["span_cost_s"]},
                   "op_seconds": extra["op_seconds"], "spans": tracer.to_json()},
    }


def run_workload(workload: str, args, spec: dict, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    inputs = workloads.make_inputs(args.seed, OUT, ROOT)
    ops = workloads.operations(workload, inputs)
    if args.trace:
        result = measure_layers(workload, ops, inputs, deadline, spec)
    else:
        result = measure_end_to_end(ops, args.seconds, deadline, spec)
    record_path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
              **result["record"]}
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"== {workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for line in result["lines"]:
        print(line)
    print(f"record {record_path.relative_to(ROOT)}", flush=True)
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through run_cli, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "subtree_poly_lab" / "cli.py").is_file():
        print(f"perfbench: no lab source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subtree_poly_lab

    if Path(subtree_poly_lab.__file__).resolve().parent != SRC / "subtree_poly_lab":
        print(f"perfbench: imported the lab from {subtree_poly_lab.__file__}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    env = environment()
    results = {name: run_workload(name, args, spec, env) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
