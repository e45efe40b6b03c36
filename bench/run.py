"""qhayd benchmark: time to verdict for checks, solvers and CLI commands.

    python3 bench/run.py --workload check --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the operations of a workload run back
to back.  A run sets the workload up several times (``setup_s`` is the
median), then runs passes over the operations in an order drawn from the
seed; further passes start only while they fit in ``--seconds``, and every
metric is the median over passes.  Every output is compared with
``expected.json``; an operation that gives another output, raises, or
passes its deadline counts as failed and is charged its deadline.

With ``--trace 1`` the run patches the public functions of every qhayd
module (see tracer.py), sets up once, runs one pass, and reports per-layer
self times and work counts; spans are written to
``.bench_work/trace-<workload>-<seed>.jsonl``.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when no operation failed, 1 when one did, 2 when the benchmark could not
start (for instance when the qhayd sources are missing).

``--record`` recomputes every operation's expected output from the current
sources and rewrites ``expected.json``; nothing else writes that file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

QHAYD_MODULES = ("fields", "linalg", "repcat", "qha", "ayd", "ayd_solve", "jsonio", "zoo", "cli",
                 "dsl.parser", "dsl.evaluator", "dsl.corpus")

END_TO_END = {  # metric -> unit; the JSON result of every workload
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_S = (  # self times, seconds
    "linalg.rref", "linalg.matmul", "linalg.kron", "linalg.add", "repcat.tensor",
    "repcat.hom_space", "qha.make_quasi_hopf", "qha.validate", "ayd.check_type_i",
    "ayd.check_type_ii", "ayd.quasi_comodule_condition_matrices", "ayd.stability_check",
    "ayd.lambda_from_tau", "ayd_solve.linear_space", "ayd_solve.enumerate", "dsl.parse",
    "dsl.eval", "jsonio.load", "jsonio.dump", "cli.main", "zoo.build_entry",
)
PER_LAYER_COUNTS = (
    "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_nnz", "linalg.rref_max_cells",
    "linalg.matmul_calls", "linalg.matmul_mults", "linalg.kron_calls", "linalg.kron_cells",
    "linalg.add_calls", "fields.fp_mul_calls", "fields.fp_add_calls", "repcat.tensor_calls",
    "repcat.hom_space_calls", "repcat.module_maps", "qha.mul_vec_calls", "ayd.tau_builds",
    "ayd_solve.candidates_tried", "ayd_solve.candidates_passed", "dsl.eval_calls",
    "jsonio.dump_bytes", "cli.main_calls", "cli.exit_0", "cli.exit_1", "cli.exit_2",
)

# The per-layer metrics of the JSON result: every count, and the self times
# that are nonzero on every workload (the others print as `layer` lines).
PER_LAYER_REPORTED = (
    "linalg.rref_s", "linalg.matmul_s", "linalg.kron_s", "linalg.add_s", "repcat.tensor_s",
    "qha.make_quasi_hopf_s", "ayd.lambda_from_tau_s", "zoo.build_entry_s",
    *PER_LAYER_COUNTS, "linalg.rref_per_solve", "ayd_solve.pass_ratio",
)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation that ran past its deadline.

    A BaseException, so that no handler in the library can swallow it.
    """


def run_with_deadline(fn, seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_qhayd():
    """Import the package from ``src``; returns (namespace, modules by name, seconds).

    The package is imported ``SETUP_REPEATS`` times, dropping it from
    ``sys.modules`` in between; the time is the median.
    """
    sys.path.insert(0, str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "qhayd" or m.startswith("qhayd.")]:
            del sys.modules[name]
        start = perf_counter()
        mods = {name: importlib.import_module(f"qhayd.{name}") for name in QHAYD_MODULES}
        times.append(perf_counter() - start)
    q = SimpleNamespace(**{name.replace("dsl.", ""): mod for name, mod in mods.items()})
    return q, mods, statistics.median(times)


def run_op(op, expected: dict) -> dict:
    """Run one operation under its deadline and check its output.

    The heap is collected first, so that an operation's time does not depend
    on what ran before it in the seeded order.
    """
    gc.collect()
    start = perf_counter()
    try:
        result = run_with_deadline(op.call, op.deadline)
    except DeadlineExceeded:
        return {"id": op.id, "group": op.group, "status": "deadline", "seconds": op.deadline}
    except Exception as exc:  # a library error is a failed operation, not a crashed run
        return {"id": op.id, "group": op.group, "status": "error", "seconds": op.deadline,
                "detail": f"{type(exc).__name__}: {exc}"}
    seconds = perf_counter() - start
    got = wl.reduce_output(op.canon(result))
    want = expected.get(op.id)
    if got != want:
        return {"id": op.id, "group": op.group, "status": "mismatch", "seconds": op.deadline,
                "detail": f"got {got[:200]}, expected {str(want)[:200]}", "output": got}
    return {"id": op.id, "group": op.group, "status": "ok", "seconds": seconds, "output": got}


def run_pass(ops, expected, rng) -> list:
    order = list(ops)
    rng.shuffle(order)
    return [run_op(op, expected) for op in order]


def quantile(values, q: float) -> float:
    """Inclusive quantile q in (0, 1) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def pass_metrics(results: list) -> dict:
    """End-to-end metrics of one pass, plus the time summed per operation group."""
    out = {"run_s": sum(r["seconds"] for r in results),
           "op_p50_ms": 1000 * statistics.median(r["seconds"] for r in results)}
    for group in sorted({r["group"] for r in results} - {"cli"}):
        out[f"{group}_s"] = sum(r["seconds"] for r in results if r["group"] == group)
    cli = [1000 * r["seconds"] for r in results if r["group"] == "cli"]
    if cli:
        out["cli_p50_ms"] = statistics.median(cli)
        out["cli_p90_ms"] = quantile(cli, 0.9)
        out["cli_samples"] = len(cli)
    return out


def setup_once(workload, q, record, workdir):
    start = perf_counter()
    inputs = wl.SETUP[workload](q, record, workdir)
    return inputs, perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    q, mods, import_s = import_qhayd()
    record = json.loads(EXPECTED.read_text())
    expected = record["ops"]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, mods)
    # Kept between runs: deleting files is slow on some disks, overwriting is not.
    workdir = WORK_ROOT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            inputs, s = setup_once(workload, q, record, workdir)
            setups.append(import_s + s)
        rng = random.Random(seed)
        ops = wl.OPS[workload](q, inputs, rng)
        # CLI commands name their documents relative to the work directory.
        os.chdir(workdir)
        passes = []
        begin = perf_counter()
        while True:
            pass_start = perf_counter()
            passes.append(run_pass(ops, expected, rng))
            elapsed = perf_counter() - begin
            if trace or elapsed + (perf_counter() - pass_start) > seconds:
                break
    finally:
        os.chdir(cwd)
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [r for p in passes for r in p]
    out = {"metrics": metrics, "results": results, "passes": len(passes)}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        trace_path = WORK_ROOT / f"trace-{workload}-{seed}.jsonl"
        tracer.write_spans(trace_path)
        out["trace_path"] = trace_path
    return out


def layer_metrics(tracer) -> dict:
    counts = tracer.all_counts()
    selfs = tracer.self_times()
    out = {f"{name}_s": selfs.get(name, 0.0) for name in PER_LAYER_S}
    for name in PER_LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    entries = counts.get("linalg.solve_entries", 0)
    out["linalg.rref_per_solve"] = out["linalg.rref_calls"] / entries if entries else 0.0
    tried = out["ayd_solve.candidates_tried"]
    out["ayd_solve.pass_ratio"] = out["ayd_solve.candidates_passed"] / tried if tried else 0.0
    return out


def outputs_digest(results) -> str:
    """One digest over every operation's canonical output, in a fixed order."""
    lines = sorted(f"{r['id']}\t{r.get('output', r['status'])}" for r in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_solve", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class _EveryPick(random.Random):
    """A generator whose samples take the whole population: records every pool point."""

    def sample(self, population, k):
        return list(population)


def record_expected():
    """Recompute every expected output; the only writer of expected.json."""
    q, _, _ = import_qhayd()
    record = {"pool": wl.make_pool(q, random.Random), "ops": {}}
    workdir = WORK_ROOT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        for workload in wl.WORKLOADS:
            inputs, _ = setup_once(workload, q, record, workdir)
            all_ops = {op.id: op for op in wl.OPS[workload](q, inputs, _EveryPick())}
            os.chdir(workdir)
            for op_id, op in sorted(all_ops.items()):
                start = perf_counter()
                record["ops"][op_id] = wl.reduce_output(op.canon(op.call()))
                print(f"recorded {perf_counter() - start:9.3f} s  {op_id}", file=sys.stderr)
            os.chdir(cwd)
    finally:
        os.chdir(cwd)
    EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="recompute expected.json from the current sources")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qhayd").is_dir():
        print(f"error: no qhayd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    if not EXPECTED.is_file():
        print(f"error: {EXPECTED} is missing; run with --record", file=sys.stderr)
        return 2
    if args.workload is None:
        p.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = out["results"]
    failed = [r for r in results if r["status"] != "ok"]
    for r in failed:
        print(f"FAILED {r['status']}: {r['id']} {r.get('detail', '')}", file=sys.stderr)
    m = out["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  passes {out['passes']}  "
          f"operations {len(results)}  failed {len(failed)}  "
          f"fail_frac {len(failed) / len(results):.4f}")
    units = {"cli_samples": "count", "peak_rss_mb": "MB"}
    for name, value in sorted(m.items()):
        print(f"  {name:32s} {value:14.6f} {units.get(name, 'ms' if name.endswith('_ms') else 's')}")
    print("outputs sha256", outputs_digest(results))
    if args.trace:
        print(f"spans written to {out['trace_path']}")
        for name, value in out["layers"].items():
            print(f"layer {name:44s} {value!r:>24} {layer_unit(name)}")
        metrics = {name: {"value": out["layers"][name], "unit": layer_unit(name)}
                   for name in PER_LAYER_REPORTED}
    else:
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = not any(r["status"] in ("mismatch", "error") for r in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
