"""utp benchmark: run one workload for one seed and print every metric by name.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; ``src/utp`` must be present.

``--trace 0`` measures the three fresh-interpreter imports of ``setup_s``,
then runs as many cycles of the workload as take about ``--seconds``
with tracing off, and prints the end-to-end metrics at the nominal host
speed of ``hostspeed``.  ``--trace 1`` warms up, runs one cycle untraced
and the same cycle traced (their wall-time ratio is
``tracing_overhead_ratio``), then the per-layer probes of ``layers``,
and prints the per-layer metrics.  Either way every output is checked
against ``oracle``, a summary goes to stdout, and the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The full record (environment, per-kind counts, tail percentile,
accuracy baseline, failures, span self times) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>/result.json``, and the
spans of a traced run to ``spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import hostspeed
import inputs
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MODULES = ("linalg", "operators", "testers", "uncertainty", "saturation", "gamesim", "cli")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy (None if not found)."""
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment() -> dict:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "utp").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "src_utp_sha256": sources.hexdigest(),
    }


def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    return SimpleNamespace(**{m: importlib.import_module(f"utp.{m}") for m in MODULES})


def measure_setup(ctx, host) -> list[tuple[float, float]]:
    """(start, wall seconds) of fresh interpreters importing utp.cli, after one untimed
    import; each import is followed by a process reference sample."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        wall, _, code, _, stderr = workloads.run_python(ctx, ["-c", "import utp.cli"])
        if code != 0:
            raise RuntimeError(f"import utp.cli failed with exit {code}: {stderr[-500:]}")
        if i:
            samples.append((start, wall))
            host.sample("process")
    return samples


def timed_run(workload: str, ctx, rng, files, seconds: float):
    host = hostspeed.HostSpeed(lambda args: workloads.run_python(ctx, args))
    setup = measure_setup(ctx, host)
    outcomes, _ = workloads.run_cycles(
        lambda cycle: workloads.build_cycle(workload, rng, files, cycle), ctx, spans.NULL,
        workloads.cycles_for(workload, seconds), host)
    path = workloads.TIMING_PATH[workload]
    metrics, details = workloads.end_to_end(outcomes, setup, path, host.factor)
    raw, _ = workloads.end_to_end(outcomes, setup, path, lambda p, t: 1.0)
    details.update(host_speed=host.record(),
                   raw_metrics={k: v for k, (v, _) in raw.items()})
    return outcomes, metrics, details, []


def traced_run(workload: str, ctx, rng, files, seed: int):
    ops = workloads.build_cycle(workload, rng, files, 0)
    workloads.run_python(ctx, ["-c", "import utp.cli"])  # warm the file cache, untimed
    plain, plain_wall = workloads.run_cycles(lambda cycle: ops, ctx, spans.NULL, 1)
    op_tracer = spans.Tracer()
    traced, traced_wall = workloads.run_cycles(lambda cycle: ops, ctx, op_tracer, 1)
    probe_tracer = spans.Tracer()
    values, failures = layers.Probes(ctx, probe_tracer, np.random.default_rng([seed, 2]),
                                     files).run()
    outcomes = plain + traced
    failed = sum(o.error is not None for o in outcomes)
    values.update(ops_attempted=len(outcomes), ops_failed=failed,
                  failed_ratio=failed / len(outcomes),
                  tracing_overhead_ratio=traced_wall / plain_wall)
    metrics = {name: (values.get(name), unit) for name, unit, _ in layers.PER_LAYER}
    self_time = {name: {"n": len(t), "total_s": sum(t), "median_s": median(t)}
                 for name, t in op_tracer.self_times().items()}
    spans_path = ctx.out / "spans.json"
    spans_path.write_text(json.dumps({"ops": op_tracer.records(),
                                      "probes": probe_tracer.records()}))
    details = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "op_span_self_time": self_time, "spans": str(spans_path.relative_to(ROOT))}
    return outcomes, metrics, details, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "utp" / "cli.py").is_file():
        print(f"error: no utp sources under {ROOT / 'src'}; run inside a utp checkout",
              file=sys.stderr)
        return 2

    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, UTP_LOG="quiet")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # started before the library is loaded, while this process is small
    ctx = workloads.Context(ROOT, out, env, workloads.Launcher(ROOT, out, env))
    try:
        files = inputs.InputFiles(out / "inputs", ROOT)
        rng = np.random.default_rng(args.seed)
        warm_up_errors = []
        if args.trace or args.workload == "saturation":
            ctx.lib = load_library()
            warm_up_errors = workloads.warm_up(ctx, np.random.default_rng([args.seed, 1]))
        if args.trace:
            outcomes, metrics, details, failures = traced_run(args.workload, ctx, rng, files,
                                                              args.seed)
        else:
            outcomes, metrics, details, failures = timed_run(args.workload, ctx, rng, files,
                                                             args.seconds)
    finally:
        ctx.launcher.close()
    failures = warm_up_errors + [o.error for o in outcomes if o.error is not None] + failures
    failed = sum(o.error is not None for o in outcomes)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in config["workloads"] if w["name"] == args.workload)
    result = {
        "workload": {"name": args.workload, "why": why, **workloads.WORKLOADS[args.workload]},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "accuracy_baseline": workloads.accuracy_baseline(outcomes),
        "failures": failures,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1, default=str))
    shutil.rmtree(out / "inputs", ignore_errors=True)
    for name in ("child-stdout.txt", "child-stderr.txt"):
        (out / name).unlink(missing_ok=True)

    print(f"environment: {json.dumps(result['environment'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {'-' if value is None else format(value, '.6g'):>14} {unit}")
    print(f"accuracy baseline: {json.dumps(result['accuracy_baseline'])}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures and all(v is not None for v, _ in metrics.values()),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
