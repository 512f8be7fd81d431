"""Per-layer probes for the traced run.

Each probe times calls into one module's public functions, inside a
span named after the metric it yields; the metric is the median self
time of those spans.  Probes whose outputs have a reference are checked
against ``oracle`` too.  Which end-to-end metric each one should move
is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
import tracemalloc
from statistics import median

import inputs
import oracle
import workloads
from oracle import close, expect


# (name, unit, better) of every per-layer metric, in the order they are printed
PER_LAYER = (
    [(f"import.{k}_s", "s", "lower")
     for k in ("total", "numpy", "scipy_linalg", "scipy_optimize", "utp_self")]
    + [(f"cli.run_s.{k}", "s", "lower") for k in workloads.CLI_KINDS]
    + [("saturation.su2_overlap_surface_s", "s", "lower"),
       ("saturation.sweep_to_csv_s", "s", "lower")]
    + [(f"saturation.search_min_uncertainty_s.d{d}", "s", "lower") for d in workloads.SEARCH_DIMS]
    + [(f"saturation.search_gap_bits.d{d}", "bits", "lower") for d in workloads.SEARCH_DIMS]
    + [(f"saturation.muub_certify_by_saturation_s.{n}", "s", "lower")
       for n in inputs.certification_instances()]
    + [(f"testers.bell_basis_s.d{d}", "s", "lower") for d in (8, 16, 32)]
    + [(f"uncertainty.{f}_s.d32", "s", "lower")
       for f in ("mes_bound", "povm_bound", "projective_bound")]
    + [(f"linalg.{f}_s.d32", "s", "lower") for f in ("eig_unitary", "psd_sqrt", "operator_norm")]
    + [("linalg.psd_sqrt_calls.povm_bound_d32", "count", "lower"),
       ("linalg.operator_norm_calls.povm_bound_d32", "count", "lower")]
    + [("operators.UnitaryOperator_s.d32", "s", "lower"),
       ("operators.clock_shift_pair_s.d32", "s", "lower")]
    + [("gamesim.run_game_s.1e7", "s", "lower"), ("gamesim.traced_peak_mb.1e7", "MB", "lower"),
       ("gamesim.run_game_s.1e4", "s", "lower")]
    + [("ops_attempted", "count", "higher"), ("ops_failed", "count", "lower"),
       ("failed_ratio", "ratio", "lower"), ("tracing_overhead_ratio", "ratio", "lower")]
)

IMPORT_ENTRIES = {"total": "utp.cli", "numpy": "numpy", "scipy_linalg": "scipy.linalg",
                  "scipy_optimize": "scipy.optimize"}


def import_times(ctx, tracer, repeats: int = 3) -> dict[str, float]:
    """Seconds from ``python -X importtime -c "import utp.cli"``, median of ``repeats``.

    total is the cumulative time of utp.cli, the three libraries their
    cumulative time where first imported (0 if never imported), and
    utp_self the summed self time of utp's own modules.
    """
    samples: dict[str, list[float]] = {f"import.{k}_s": [] for k in
                                        (*IMPORT_ENTRIES, "utp_self")}
    for _ in range(repeats):
        with tracer.span("cli.importtime"):
            _, _, code, _, stderr = workloads.run_python(
                ctx, ["-X", "importtime", "-c", "import utp.cli"])
        expect(code == 0, f"import utp.cli failed: {stderr[-300:]}")
        own, cumulative = 0.0, {}
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            cumulative.setdefault(name, int(fields[1]) / 1e6)
            if name == "utp" or name.startswith("utp."):
                own += int(fields[0]) / 1e6
        for key, entry in IMPORT_ENTRIES.items():
            samples[f"import.{key}_s"].append(cumulative.get(entry, 0.0))
        samples["import.utp_self_s"].append(own)
    return {k: median(v) for k, v in samples.items()}


class Probes:
    """One pass of every probe; ``values`` collects the measured metrics."""

    def __init__(self, ctx, tracer, rng, files) -> None:
        self.ctx, self.lib, self.tracer, self.rng, self.files = ctx, ctx.lib, tracer, rng, files
        self.values: dict[str, float] = {}
        self.failures: list[str] = []

    def run(self) -> tuple[dict[str, float], list[str]]:
        """(per-layer values except the op counts, failures); a probe that raises is a failure."""
        for probe in (self.imports, self.cli, self.sweep, self.search, self.certify, self.d32,
                      self.game):
            try:
                probe()
            except Exception:  # the program failed under this probe; record it and go on
                self.failures.append(f"probe {probe.__name__}: {traceback.format_exc(limit=4)}")
        times = self.tracer.self_times()
        for name, _, _ in PER_LAYER:
            if name not in self.values and name in times:
                self.values[name] = median(times[name])
        return self.values, self.failures

    def timed(self, name: str, fn, repeats: int = 1, warm: bool = False):
        """Result of ``fn`` called ``repeats`` times, each in a span called ``name``."""
        if warm:
            fn()
        result = None
        for _ in range(repeats):
            with self.tracer.span(name):
                result = fn()
        return result

    def checked(self, label: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # a wrong or malformed output fails the run
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def imports(self) -> None:
        self.values.update(import_times(self.ctx, self.tracer))

    def cli(self) -> None:
        """In-process utp.cli.run of each subcommand, warmed, stdout captured."""
        for kind in workloads.CLI_KINDS:
            op = workloads.cli_cold_op(kind, self.rng, self.files)

            def run_cli(argv=op.argv) -> tuple[int, str]:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = self.lib.cli.run(argv)
                return code, buffer.getvalue()

            code, stdout = self.timed(f"cli.run_s.{kind}", run_cli, repeats=3, warm=True)
            self.checked(f"cli.run {kind}",
                         lambda: (expect(code == 0, f"exit {code}"), op.check(stdout)))

    def sweep(self) -> None:
        """The overlap surface and its CSV rendering at grid 1001."""
        sat = self.lib.saturation
        pair = ("i-sigmay", "i-omega")[int(self.rng.integers(2))]
        records = self.timed("saturation.su2_overlap_surface_s",
                             lambda: sat.su2_overlap_surface(pair, 1001))
        text = self.timed("saturation.sweep_to_csv_s", lambda: sat.sweep_to_csv(records))
        del records
        self.checked("sweep_to_csv", lambda: oracle.check_sweep_csv(text, pair, 1001))

    def search(self) -> None:
        """One criterion-10 instance per dimension: construction, then the default search."""
        lib = self.lib
        for d in workloads.SEARCH_DIMS:
            x, v, w = inputs.saturable_instance(self.rng, d)
            m = lib.testers.ProjectiveMeasurement.from_matrix(x)
            vo, wo = lib.operators.UnitaryOperator(v), lib.operators.UnitaryOperator(w)
            built = lib.saturation.saturating_tester_by_construction(m, vo, wo)
            seed = int(self.rng.integers(2**31))
            report = self.timed(f"saturation.search_min_uncertainty_s.d{d}",
                                lambda: lib.saturation.search_min_uncertainty(m, vo, wo, seed=seed))
            # the construction reaches log2 d on this family; search_facts checks that it did
            self.values[f"saturation.search_gap_bits.d{d}"] = report.achieved.value - math.log2(d)
            self.checked(f"search d={d}", lambda: workloads.search_facts(
                d, x, v, w, report.tester.input.amplitudes, report.achieved.value,
                report.bound.value, built.achieved.value))

    def certify(self) -> None:
        ops = self.lib.operators
        for name, (b1, b2) in inputs.certification_instances().items():
            basis1 = ops.UnitaryBasis(tuple(ops.UnitaryOperator(u) for u in b1))
            basis2 = ops.UnitaryBasis(tuple(ops.UnitaryOperator(u) for u in b2))
            seed = int(self.rng.integers(2**31))
            cert = self.timed(f"saturation.muub_certify_by_saturation_s.{name}",
                              lambda: self.lib.saturation.muub_certify_by_saturation(
                                  basis1, basis2, budget=workloads.CERTIFY_BUDGET, seed=seed))
            self.checked(f"certify {name}",
                         lambda: workloads.certification_facts(name, b1, b2, cert))

    def d32(self) -> None:
        """testers, uncertainty, linalg and operators at d = 32."""
        lib, timed, checked = self.lib, self.timed, self.checked
        ops, unc, la = lib.operators, lib.uncertainty, lib.linalg
        bell = {d: timed(f"testers.bell_basis_s.d{d}", lambda: lib.testers.bell_basis(d))
                for d in (8, 16, 32)}
        v, w, x = (inputs.haar(self.rng, 32) for _ in range(3))
        vo, wo = ops.UnitaryOperator(v), ops.UnitaryOperator(w)
        mes = timed("uncertainty.mes_bound_s.d32", lambda: unc.mes_bound(bell[32], vo, wo), 3)
        checked("mes_bound", lambda: close("mes_bound", mes.value, oracle.mes_bound(v, w)[0]))
        m = lib.testers.ProjectiveMeasurement.from_matrix(x)
        povm = lib.testers.povm_from_projective(m)
        pb = timed("uncertainty.povm_bound_s.d32", lambda: unc.povm_bound(povm, vo, wo), 3)
        checked("povm_bound",
                lambda: close("povm_bound", pb.value, oracle.povm_rank1_bound(x, v, w)))
        n = len(povm.elements)
        self.values["linalg.psd_sqrt_calls.povm_bound_d32"] = 2 * n  # computed: element x side
        self.values["linalg.operator_norm_calls.povm_bound_d32"] = n * n  # computed: pairs
        proj = timed("uncertainty.projective_bound_s.d32",
                     lambda: unc.projective_bound(m, vo, wo), repeats=20, warm=True)
        checked("projective_bound",
                lambda: close("projective_bound", proj.value, oracle.projective_bound(x, v, w)))
        g = self.rng.standard_normal((32, 32)) + 1j * self.rng.standard_normal((32, 32))
        psd = g @ g.conj().T / 32
        timed("linalg.eig_unitary_s.d32", lambda: la.eig_unitary(v), repeats=20, warm=True)
        timed("linalg.psd_sqrt_s.d32", lambda: la.psd_sqrt(psd), repeats=20, warm=True)
        timed("linalg.operator_norm_s.d32", lambda: la.operator_norm(g), repeats=20, warm=True)
        timed("operators.UnitaryOperator_s.d32", lambda: ops.UnitaryOperator(v),
              repeats=20, warm=True)
        timed("operators.clock_shift_pair_s.d32", lambda: ops.clock_shift_pair(32),
              repeats=20, warm=True)

    def game(self) -> None:
        """1e7 trials timed once and again under tracemalloc; 1e4 trials warmed."""
        lib = self.lib
        for trials, name, repeats in ((10**7, "gamesim.run_game_s.1e7", 1),
                                      (10**4, "gamesim.run_game_s.1e4", 20)):
            x, v, w = (inputs.haar(self.rng, 2) for _ in range(3))
            psi = x[:, 0].copy()
            cfg = lib.gamesim.GameConfig(
                tester=lib.testers.Tester.projective(
                    lib.testers.PureState(psi), lib.testers.ProjectiveMeasurement.from_matrix(x)),
                v=lib.operators.UnitaryOperator(v), w=lib.operators.UnitaryOperator(w),
                trials=trials, seed=int(self.rng.integers(2**31)), operator_bias=0.5)
            transcript = self.timed(name, lambda: lib.gamesim.run_game(cfg), repeats,
                                    warm=repeats > 1)
            counts_v, counts_w = oracle.replay_game(
                oracle.outcome_probs(x, v, psi), oracle.outcome_probs(x, w, psi), trials,
                cfg.seed, 0.5)
            self.checked(name, lambda: expect(
                transcript.counts_v.tolist() == counts_v.tolist()
                and transcript.counts_w.tolist() == counts_w.tolist(), "counts differ from replay"))
            if trials == 10**7:
                del transcript
                tracemalloc.start()
                try:
                    lib.gamesim.run_game(cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self.values["gamesim.traced_peak_mb.1e7"] = peak / 2**20
