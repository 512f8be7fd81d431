"""The three workloads: what each op runs, how it is timed and how it is checked.

An op is either a fresh ``python -m utp.cli`` process (timed from spawn
to reap, peak RSS from ``os.wait4``), an in-process call into a library
module, or an in-process ``utp.cli.run`` with stdout captured (both timed
around that call only).  Every op's output is checked against
``oracle``; a nonzero exit, a wrong value or an unsound claim fails the
op.

Each workload repeats a cycle of ops, built afresh from the seeded
generator and shuffled.  A run has a fixed number of cycles, as many as
take about ``--seconds`` at the nominal cycle time of the workload, so
every run does the same amount of work and its order statistics rank the
same number of samples.

Every end-to-end metric is defined on every workload: where a workload's
own jobs do not include an op family, the cycle carries a small op of
that family, so the metric is measured there on a path the workload's
main layer does not touch.  A workload times each family on one path
(``TIMING_PATH``); CLI processes on another path only feed
``cli_p50_s``, ``cli_tail_s`` and the RSS metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

import inputs
import oracle
import spans
from oracle import close, expect

CLI_KINDS = ("bound", "entropy", "distinguish", "povm-bound", "mes-bound", "game", "search",
             "muub-check", "sweep")
SEARCH_DIMS = (2, 3, 4, 6, 8)
CERTIFY_BUDGET = 500  # per cross pair; the library default is 5000
SMALL_SEARCH = ("--budget", "400", "--restarts", "4")

# load shape of each workload; the reason for each is its "why" in BENCHMARK.json
WORKLOADS = {
    "cli-cold": {"loop": "closed", "clients": 1, "path": "fresh python -m utp.cli process per op"},
    "max-size": {"loop": "closed", "clients": 1, "path": "fresh python -m utp.cli process per op"},
    "saturation": {"loop": "closed", "clients": 1,
                   "path": "in-process library calls after import and one warm-up call"},
}
# the path whose ops give each workload's per-family times and ratios
TIMING_PATH = {"cli-cold": "cli", "max-size": "cli", "saturation": "lib"}
# nominal seconds per cycle, reference samples included; a run has
# max(1, round(seconds / CYCLE_SECONDS)) cycles
CYCLE_SECONDS = {"cli-cold": 10.0, "max-size": 30.0, "saturation": 7.5}


@dataclass
class Context:
    root: Path
    out: Path
    env: dict
    launcher: "Launcher | None" = None  # starts every child process
    lib: object = None  # namespace of utp modules, loaded for in-process ops


@dataclass
class Op:
    kind: str  # what runs: a CLI subcommand, or "search" / "certify" in process
    family: str  # which end-to-end metrics it feeds
    argv: list[str] | None = None  # CLI arguments after `python -m utp.cli`
    check: Callable[[str], dict] | None = None  # CLI stdout -> facts, raises on a mismatch
    call: Callable | None = None  # in process: call(lib, tracer, op_id) -> (seconds, facts)
    in_process: bool = False  # run argv through utp.cli.run in this process

    @property
    def path(self) -> str:
        return "cli" if self.argv is not None and not self.in_process else "lib"


@dataclass
class Outcome:
    kind: str
    family: str
    path: str
    cycle: int
    start: float = math.nan  # perf_counter() when the op started
    seconds: float = math.nan
    rss_mb: float = math.nan
    facts: dict = field(default_factory=dict)
    error: str | None = None


# --- running processes ------------------------------------------------------

LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Launcher:
    """A small stdlib-only process that starts, times and reaps every child.

    Linux gives an exec'd child the peak RSS of the process it was forked
    from, so children forked from the benchmark itself, which holds
    numpy and the oracle's arrays, would report the benchmark's own peak.
    Children of this launcher start from its ~10 MB instead.
    """

    def __init__(self, root: Path, out: Path, env: dict) -> None:
        self.out = out
        self.proc = subprocess.Popen([sys.executable, "-I", "-c", LAUNCHER], cwd=root, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """(wall s, peak RSS MB, exit code, stdout, stderr) of one child."""
        stdout, stderr = self.out / "child-stdout.txt", self.out / "child-stderr.txt"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout),
                                          "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        wall, maxrss_kb, code = json.loads(reply)
        return (wall, maxrss_kb / 1024.0, code, stdout.read_text(errors="replace"),
                stderr.read_text(errors="replace"))

    def close(self) -> None:
        """End the launcher; on a hang, kill it and its child together."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()


def run_python(ctx: Context, args: list[str]):
    """(wall s, peak RSS MB, exit code, stdout, stderr) of one fresh interpreter."""
    return ctx.launcher.run([sys.executable, *args])


def run_cli_in_process(lib, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, stdout) of ``utp.cli.run(argv)`` in this process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = perf_counter()
        code = lib.cli.run(argv)
        seconds = perf_counter() - start
    return seconds, code, buffer.getvalue()


def execute(op: Op, ctx: Context, tracer, cycle: int, op_id: int) -> Outcome:
    """Run one op and check its output; any failure is recorded, never raised."""
    out = Outcome(op.kind, op.family, op.path, cycle, perf_counter())
    with tracer.span(f"op.{op.kind}", op_id):
        try:
            if op.argv is None:
                out.seconds, out.facts = op.call(ctx.lib, tracer, op_id)
                return out
            if op.in_process:
                with tracer.span("cli.run", op_id):
                    out.seconds, code, stdout = run_cli_in_process(ctx.lib, op.argv)
                stderr = ""
            else:
                with tracer.span("cli.process", op_id):
                    out.seconds, out.rss_mb, code, stdout, stderr = run_python(
                        ctx, ["-m", "utp.cli", *op.argv])
            expect(code == 0, f"exit {code}: {stderr.strip()[-300:]}")
            with tracer.span("oracle.check", op_id):
                out.facts = op.check(stdout)
        except Exception:  # the op fails; the run goes on and reports it
            out.error = f"{op.kind} {op.argv or ''}: {traceback.format_exc(limit=3)[-800:]}"
    return out


# --- CLI ops ----------------------------------------------------------------

def _pair(rng, files, d):
    vs, v = inputs.choose_operator(rng, files, d)
    ws, w = inputs.choose_operator(rng, files, d)
    return ["--v", vs, "--w", ws, "--dim", str(d)], v, w


def _haar_pair(rng, files, d):
    v, w = inputs.haar(rng, d), inputs.haar(rng, d)
    return ["--v", files.operator(v), "--w", files.operator(w), "--dim", str(d)], v, w


def _check_argmax(data: dict, table_at: Callable[[int, int], float], top: float) -> None:
    i, j = data["argmax"]
    close(f"overlap at argmax {i},{j}", table_at(i, j), top)


def bound_op(rng, files, d: int) -> Op:
    args, v, w = _pair(rng, files, d)
    ms, x = inputs.choose_measurement(rng, files, d)
    table = oracle.projective_overlaps(x, v, w)

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        close("bound_bits", data["bound_bits"], oracle.projective_bound(x, v, w))
        _check_argmax(data, lambda i, j: table[i, j], table.max())
        return {}

    return Op("bound", "bound", ["bound", *args, "--measurement", ms], check)


def entropy_op(rng, files, d: int) -> Op:
    args, v, w = _pair(rng, files, d)
    ms, x = inputs.choose_measurement(rng, files, d)
    spec, psi = inputs.choose_input(rng, x)
    hv, hw = oracle.pair_entropy_bits(x, v, w, psi)

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        close("h_v_bits", data["h_v_bits"], hv)
        close("h_w_bits", data["h_w_bits"], hw)
        close("pair_uncertainty_bits", data["pair_uncertainty_bits"], hv + hw)
        return {}

    argv = ["entropy", *args, "--measurement", ms, "--input", spec]
    return Op("entropy", "entropy", argv, check)


def distinguish_op(rng, files, d: int) -> Op:
    args, v, w = _pair(rng, files, d)
    distance = oracle.hull_distance(v, w)

    def check(stdout: str) -> dict:
        got = json.loads(stdout)["distinguishable"]
        if distance < 1e-12 or distance > 1e-7:  # clear of the 1e-9 decision tolerance
            expect(got == (distance < 1e-12),
                   f"distinguishable={got}, hull distance {distance:.3e}")
        return {}

    return Op("distinguish", "distinguish", ["distinguish", *args], check)


def povm_op(rng, files, d: int, haar_measurement: bool) -> Op:
    """POVM bound: a Haar projective basis (max-size) or 2d rank-1 elements (cli-cold)."""
    if haar_measurement:
        args, v, w = _haar_pair(rng, files, d)
        vectors = inputs.haar(rng, d)
        spec = files.projective(vectors)
    else:
        args, v, w = _pair(rng, files, d)
        vectors = inputs.random_rank1_povm(rng, d, 2 * d)
        spec = files.povm(vectors)
    table = oracle.povm_rank1_overlaps(vectors, v, w)

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        close("bound_bits", data["bound_bits"], oracle.povm_rank1_bound(vectors, v, w))
        _check_argmax(data, lambda i, j: table[i, j], table.max())
        return {}

    return Op("povm-bound", "povm-bound", ["povm-bound", *args, "--measurement", spec], check)


def mes_op(rng, files, d: int, haar_operators: bool) -> Op:
    args, v, w = (_haar_pair if haar_operators else _pair)(rng, files, d)
    value, table = oracle.mes_bound(v, w)

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        close("bound_bits", data["bound_bits"], value)
        _check_argmax(data, lambda i, j: oracle.mes_overlap_at(table, i, j), table.max())
        return {}

    return Op("mes-bound", "mes-bound", ["mes-bound", *args, "--measurement", "bell"], check)


def game_op(rng, files, d: int, trials: int, haar_operators: bool = False) -> Op:
    """Guessing game.  Haar operators give full-support outcome distributions, so the
    sampling cost does not hinge on whether the seed drew a deterministic outcome."""
    args, v, w = (_haar_pair if haar_operators else _pair)(rng, files, d)
    ms, x = inputs.choose_measurement(rng, files, d)
    spec, psi = inputs.choose_input(rng, x)
    seed = int(rng.integers(2**31))
    bias = float(rng.uniform(0.2, 0.8))
    pv, pw = oracle.outcome_probs(x, v, psi), oracle.outcome_probs(x, w, psi)

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        counts_v, counts_w = oracle.replay_game(pv, pw, trials, seed, bias)
        expect(data["counts_v"] == counts_v.tolist(), "counts_v differ from the Philox replay")
        expect(data["counts_w"] == counts_w.tolist(), "counts_w differ from the Philox replay")
        expect(data["seed"] == seed, f"seed {data['seed']} != {seed}")
        close("analytic_bits", data["analytic_bits"],
              oracle.entropy_bits(pv) + oracle.entropy_bits(pw))
        close("empirical_bits", data["empirical_bits"],
              oracle.frequency_entropy_bits(counts_v) + oracle.frequency_entropy_bits(counts_w))
        return {}

    argv = ["game", *args, "--measurement", ms, "--input", spec, "--trials", str(trials),
            "--seed", str(seed), "--bias", repr(bias)]
    return Op("game", "game", argv, check)


def search_facts(d: int, x, v, w, psi, achieved: float, bound: float, construction: float) -> dict:
    """Check a search result against the oracle; return its gap to the construction."""
    hv, hw = oracle.pair_entropy_bits(x, v, w, psi)
    close("achieved", achieved, hv + hw)
    close("bound", bound, oracle.projective_bound(x, v, w))
    close("construction", construction, math.log2(d))
    expect(achieved >= bound - oracle.BOUND_TOL, f"achieved {achieved} undercuts bound {bound}")
    gap = achieved - construction
    return {"d": d, "gap_bits": gap, "saturated": gap < oracle.SATURATED_GAP}


def search_cli_op(rng, files, d: int = 2) -> Op:
    x, v, w = inputs.saturable_instance(rng, d)
    seed = int(rng.integers(2**31))
    argv = ["search", "--v", files.operator(v), "--w", files.operator(w), "--dim", str(d),
            "--measurement", files.projective(x), *SMALL_SEARCH, "--seed", str(seed)]

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        psi = np.array(data["input_re"]) + 1j * np.array(data["input_im"])
        close("gap_bits", data["gap_bits"], data["achieved_bits"] - data["bound_bits"])
        # the construction value of this family is log2 d by design
        return search_facts(d, x, v, w, psi, data["achieved_bits"], data["bound_bits"],
                            math.log2(d))

    return Op("search", "search", argv, check)


def muub_cli_op(rng) -> Op:
    """muub-check on the qubit bases {I, Y} and {Omega-, Omega+}, order and sides seeded."""
    specs = [["identity", "pauli-y"], ["omega-minus", "omega-plus"]]
    for s in specs:
        if rng.integers(2):
            s.reverse()
    if rng.integers(2):
        specs.reverse()
    b1, b2 = ([oracle.named_operator(n, 2) for n in s] for s in specs)
    muub, _ = oracle.muub_reference(b1, b2)
    seed = int(rng.integers(2**31))

    def check(stdout: str) -> dict:
        data = json.loads(stdout)
        expect(muub or not data["certified"], "certified a pair that is not MUUB")
        if muub:
            close("kappa", data["kappa"], 2.0)
        else:
            expect(data["kappa"] is None, f"kappa {data['kappa']} for a non-MUUB pair")
        return {"certified": bool(data["certified"]), "muub": muub}

    argv = ["muub-check", "--basis1", ",".join(specs[0]), "--basis2", ",".join(specs[1]),
            "--seed", str(seed)]
    return Op("muub-check", "certify", argv, check)


def sweep_op(rng, grid: int) -> Op:
    pair = ("i-sigmay", "i-omega")[int(rng.integers(2))]

    def check(stdout: str) -> dict:
        oracle.check_sweep_csv(stdout, pair, grid)
        return {}

    return Op("sweep", "sweep", ["sweep", "--pair", pair, "--grid", str(grid)], check)


def cli_cold_op(kind: str, rng, files, size: int | None = None) -> Op:
    """The small op of one subcommand, as a README user runs it.

    ``size`` 0, 1 or 2 fixes d = 2, 3 or 4, the game's trials and the sweep grid
    to the low, middle or high end of their ranges; None draws them from ``rng``.
    """
    d = int(rng.integers(2, 5)) if size is None else 2 + size
    if kind == "bound":
        return bound_op(rng, files, d)
    if kind == "entropy":
        return entropy_op(rng, files, d)
    if kind == "distinguish":
        return distinguish_op(rng, files, d)
    if kind == "povm-bound":
        return povm_op(rng, files, d, haar_measurement=False)
    if kind == "mes-bound":
        return mes_op(rng, files, d, haar_operators=False)
    if kind == "game":
        trials = int(rng.integers(1000, 10001)) if size is None else (1000, 5000, 10000)[size]
        return game_op(rng, files, d, trials)
    if kind == "search":
        return search_cli_op(rng, files)
    if kind == "muub-check":
        return muub_cli_op(rng)
    if kind == "sweep":
        return sweep_op(rng, int(rng.integers(11, 22)) if size is None else (11, 16, 21)[size])
    raise ValueError(kind)


# --- in-process ops -----------------------------------------------------------

def search_lib_op(rng, d: int) -> Op:
    """Criterion-10 instance: row construction, then the default-budget search."""
    x, v, w = inputs.saturable_instance(rng, d)
    seed = int(rng.integers(2**31))

    def call(lib, tracer, op_id):
        sat = lib.saturation
        m = lib.testers.ProjectiveMeasurement.from_matrix(x)
        vo, wo = lib.operators.UnitaryOperator(v), lib.operators.UnitaryOperator(w)
        with tracer.span("saturation.saturating_tester_by_construction", op_id):
            built = sat.saturating_tester_by_construction(m, vo, wo)
        start = perf_counter()
        with tracer.span("saturation.search_min_uncertainty", op_id):
            report = sat.search_min_uncertainty(m, vo, wo, seed=seed)
        seconds = perf_counter() - start
        with tracer.span("oracle.check", op_id):
            expect(built is not None, f"row construction found no column at d={d}")
            facts = search_facts(d, x, v, w, report.tester.input.amplitudes,
                                 report.achieved.value, report.bound.value, built.achieved.value)
        return seconds, facts

    return Op("search", "search", call=call)


def certify_lib_op(name: str, b1: list, b2: list, seed: int) -> Op:
    def call(lib, tracer, op_id):
        ops = lib.operators
        basis1 = ops.UnitaryBasis(tuple(ops.UnitaryOperator(m) for m in b1))
        basis2 = ops.UnitaryBasis(tuple(ops.UnitaryOperator(m) for m in b2))
        start = perf_counter()
        with tracer.span("saturation.muub_certify_by_saturation", op_id):
            cert = lib.saturation.muub_certify_by_saturation(
                basis1, basis2, budget=CERTIFY_BUDGET, seed=seed)
        seconds = perf_counter() - start
        with tracer.span("oracle.check", op_id):
            facts = certification_facts(name, b1, b2, cert)
        return seconds, facts

    return Op("certify", "certify", call=call)


def certification_facts(name: str, b1: list, b2: list, cert) -> dict:
    muub, moduli = oracle.muub_reference(b1, b2)
    expect(muub or not cert.certified, f"{name}: certified a pair that is not MUUB")
    dev = float(np.abs(np.asarray(cert.trace_moduli) - moduli).max())
    expect(dev <= oracle.BOUND_TOL, f"{name}: |Tr(W V^dag)| off by {dev:.3e}")
    found = [r for row in cert.reports for r in row if r is not None]
    for r in found:
        expect(r.achieved.value >= r.bound.value - oracle.BOUND_TOL,
               f"{name}: achieved {r.achieved.value} undercuts bound {r.bound.value}")
    return {"instance": name, "certified": bool(cert.certified), "muub": muub,
            "pairs_found": len(found), "pairs": len(b1) * len(b2)}


def warm_up(ctx: Context, rng) -> list[str]:
    """One search and one certification before timing, outside the clock; their errors."""
    b1, b2 = inputs.certification_instances()["qubit"]
    ops = [search_lib_op(rng, 2), certify_lib_op("qubit", b1, b2, 0)]
    return [o.error for o in (execute(op, ctx, spans.NULL, -1, -1) for op in ops) if o.error]


# --- cycles -------------------------------------------------------------------

def build_cycle(workload: str, rng, files, cycle: int) -> list[Op]:
    if workload == "cli-cold":
        ops = [cli_cold_op(kind, rng, files) for kind in CLI_KINDS]
    elif workload == "max-size":
        # one cycle is about 30 s; the ~1-2 s jobs repeat so each has several samples
        ops = [sweep_op(rng, 1001), mes_op(rng, files, 32, haar_operators=True)]
        ops += [game_op(rng, files, 2, 10**7, haar_operators=True) for _ in range(2)]
        ops += [povm_op(rng, files, 32, haar_measurement=True) for _ in range(4)]
        for _ in range(3):
            ops += [cli_cold_op("search", rng, files), cli_cold_op("muub-check", rng, files)]
    elif workload == "saturation":
        ops = [search_lib_op(rng, d) for d in SEARCH_DIMS]
        # the instances are fixed, and so is each cycle's search seed: every run certifies
        # the same way, so a certification time moves only with the code and the host
        for name, (b1, b2) in inputs.certification_instances().items():
            ops.append(certify_lib_op(name, b1, b2, cycle))
        # each small subcommand twice at each of its three sizes, so a run's mix of
        # sizes does not hang on the draw
        for kind in ("sweep", "game", "mes-bound", "povm-bound"):
            for size in (0, 1, 2) * 2:
                op = cli_cold_op(kind, rng, files, size)
                op.in_process = True
                ops.append(op)
        # fresh processes for cli_p50_s, cli_tail_s and the RSS metrics
        ops += [cli_cold_op(k, rng, files) for k in ("sweep", "game", "search")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def run_cycles(ops_for_cycle: Callable[[int], list[Op]], ctx: Context, tracer,
               cycles: int, host=None) -> tuple[list[Outcome], float]:
    """Run ``cycles`` cycles; returns the outcomes and the wall time.  ``host``, if
    given, takes its reference samples between the ops."""
    outcomes: list[Outcome] = []
    start = perf_counter()
    for cycle in range(cycles):
        for op in ops_for_cycle(cycle):
            if host is not None:
                host.before_op(op.path)
            outcomes.append(execute(op, ctx, tracer, cycle, len(outcomes)))
    return outcomes, perf_counter() - start


# --- end-to-end metrics ---------------------------------------------------------

def tail(values: list[float]) -> tuple[float | None, float | None, int]:
    """(value, percentile, n): the highest order statistic with at least 10 samples above it."""
    s = sorted(values)
    n = len(s)
    if not n:
        return None, None, 0
    k = n - 11 if n >= 11 else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def _median(values) -> float | None:
    """Median, or None when no op of the family succeeded (the run is then incorrect)."""
    values = list(values)
    return median(values) if values else None


def end_to_end(outcomes: list[Outcome], setup: list[tuple[float, float]], timing_path: str,
               scale: Callable[[str, float], float]) -> tuple[dict, dict]:
    """(metrics as {name: (value, unit)}, details) for one timed run, over successful ops.

    Family times and ratios come from the ops on ``timing_path``; RSS, cli_p50_s and
    cli_tail_s from every fresh CLI process.  Each time is multiplied by
    ``scale(path, start)``: "cli" for fresh processes, set-up imports included, "lib"
    in process.  ``setup`` holds the (start, seconds) of each set-up import.
    """
    ok = [o for o in outcomes if o.error is None]

    def scaled(o: Outcome) -> float:
        return o.seconds * scale(o.path, o.start)

    def family(name: str, path: str = timing_path) -> list[Outcome]:
        return [o for o in ok if o.family == name and o.path == path]

    def seconds(name: str):
        return _median(scaled(o) for o in family(name))

    def rss(name: str):
        return _median(o.rss_mb for o in family(name, "cli"))

    def ratio(hits: list[bool]):
        return sum(hits) / len(hits) if hits else None

    cli_times = [scaled(o) for o in ok if o.path == "cli"]
    tail_value, tail_pct, tail_n = tail(cli_times)
    per_cycle: dict[int, float] = {}
    for o in family("certify"):
        per_cycle[o.cycle] = per_cycle.get(o.cycle, 0.0) + scaled(o)
    metrics = {
        "setup_s": (median(s * scale("cli", t) for t, s in setup), "s"),
        "cli_p50_s": (_median(cli_times), "s"),
        "cli_tail_s": (tail_value, "s"),
        "sweep_s": (seconds("sweep"), "s"),
        "sweep_rss_mb": (rss("sweep"), "MB"),
        "game_s": (seconds("game"), "s"),
        "game_rss_mb": (rss("game"), "MB"),
        "mes_bound_s": (seconds("mes-bound"), "s"),
        "povm_bound_s": (seconds("povm-bound"), "s"),
        "search_p50_s": (seconds("search"), "s"),
        "search_saturated_ratio": (
            ratio([o.facts["saturated"] for o in family("search")]), "ratio"),
        "certify_total_s": (_median(per_cycle.values()), "s"),
        "certify_found_ratio": (
            ratio([o.facts["certified"] for o in family("certify") if o.facts["muub"]]), "ratio"),
    }
    counts: dict[str, int] = {}
    for o in outcomes:
        counts[o.kind] = counts.get(o.kind, 0) + 1
    details = {
        "cli_tail": {"percentile": tail_pct, "samples": tail_n},
        "ops_per_kind": counts,
        "cycles": len({o.cycle for o in outcomes}),
        "setup_samples": setup,
        "ops": [[o.kind, o.family, o.path, o.cycle, o.start, o.seconds, o.rss_mb]
                for o in outcomes],
        "failed_ratio": (len(outcomes) - len(ok)) / len(outcomes),
    }
    return metrics, details


def accuracy_baseline(outcomes: list[Outcome]) -> dict:
    """Search gaps per dimension and certification outcomes per instance, as measured."""
    gaps: dict[str, list[float]] = {}
    certs: dict[str, dict] = {}
    for o in outcomes:
        if o.error is None and o.family == "search":
            gaps.setdefault(f"d{o.facts['d']}", []).append(o.facts["gap_bits"])
        if o.error is None and o.kind == "certify":
            c = certs.setdefault(o.facts["instance"], {"muub": o.facts["muub"], "runs": 0,
                                                      "certified": 0, "pairs_found": []})
            c["runs"] += 1
            c["certified"] += o.facts["certified"]
            c["pairs_found"].append(f"{o.facts['pairs_found']}/{o.facts['pairs']}")
    search = {d: {"n": len(g), "min": min(g), "median": median(g), "max": max(g),
                  "saturated": sum(x < oracle.SATURATED_GAP for x in g)}
              for d, g in sorted(gaps.items())}
    return {"search_gap_bits": search, "certification": certs}
