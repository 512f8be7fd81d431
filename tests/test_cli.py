import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from utp import cli, operators, saturation
from utp.linalg import ConvergenceError, InvariantError
from utp.operators import array_to_literal, haar_matrix
from utp.saturation import su2_overlap_surface, sweep_to_csv, sweep_to_json
from utp.testers import ProjectiveMeasurement


def test_bound_golden(run_cli):
    code, out, _ = run_cli(["bound", "--v", "identity", "--w", "pauli-x", "--measurement", "computational"])
    assert code == 0
    assert json.loads(out) == {"bound_bits": 0.0, "argmax": [0, 1]}


def test_distinguish_golden(run_cli):
    code, out, _ = run_cli(["distinguish", "--v", "pauli-x", "--w", "pauli-z"])
    assert code == 0
    assert json.loads(out) == {"distinguishable": True}


def test_distinguish_json_pair_at_the_validation_edge(run_cli, tmp_path):
    # (1 + 4.9e-10) X and Z each pass the 1e-9 unitarity check; their product does not
    paths = []
    for name, m in (("v", [[0, 1], [1, 0]]), ("w", [[1, 0], [0, -1]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(array_to_literal((1 + 4.9e-10) * np.array(m, dtype=complex))))
        paths.append(str(path))
    for extra in ([], ["--tol", "1e-6"]):
        code, out, _ = run_cli(["distinguish", "--v", paths[0], "--w", paths[1], *extra])
        assert code == 0
        assert json.loads(out) == {"distinguishable": True}


def test_entropy_and_game_accept_a_json_pair_at_the_validation_edge(run_cli, tmp_path):
    # an outcome probability of (1 + 4.9e-10)^2 is within the operators' unitarity error
    paths = []
    for name, m in (("v", [[0, 1], [1, 0]]), ("w", [[1, 0], [0, -1]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(array_to_literal((1 + 4.9e-10) * np.array(m, dtype=complex))))
        paths.append(str(path))
    pair = ["--v", paths[0], "--w", paths[1], "--measurement", "computational", "--input", "e:0"]
    code, out, err = run_cli(["entropy", *pair])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"pair_uncertainty_bits": 0.0, "h_v_bits": 0.0, "h_w_bits": 0.0}
    code, out, err = run_cli(["game", *pair, "--trials", "1000"])
    assert (code, err) == (0, "")
    assert json.loads(out)["guess_success_rate"] == 1.0


def test_muub_check_json_bases_at_the_validation_edge(run_cli, tmp_path):
    # each file passes the 1e-9 unitarity check, with error 1.39e-9; W V† is off by about twice
    # that, and certification once refused it with exit 2
    edge = np.diag([1 + 4.9e-10, 1 - 4.9e-10])
    specs = []
    for names in (("i", "pauli-y"), ("omega-minus", "omega-plus")):
        paths = []
        for name in names:
            path = tmp_path / f"{name}.json"
            matrix = cli.resolve_operator(name, None).matrix @ edge
            path.write_text(json.dumps(array_to_literal(matrix)))
            paths.append(str(path))
        specs.append(",".join(paths))
    code, out, err = run_cli(["muub-check", "--basis1", specs[0], "--basis2", specs[1]])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["kappa"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("d, eps", [(3, 4e-10), (3, 8e-10), (8, 2e-10), (8, 4e-10),
                                    (16, 1e-10)])
def test_muub_check_never_certifies_what_is_muub_refuses(run_cli, tmp_path, d, eps):
    # chirp bases with one side turned by exp(i eps H): each |Tr(W V†)| is within tol of
    # sqrt(d), but is_muub refuses them, so certified true with kappa null must not appear
    rng = np.random.default_rng(0)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lam, vecs = np.linalg.eigh((g + g.conj().T) / 2)
    turn = (vecs * np.exp(1j * eps * lam)) @ vecs.conj().T
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    chirp = np.diag(np.exp(1j * np.pi * np.arange(d) ** 2 * (d + 1) / d))
    specs = []
    for side, left, right in (("v", np.eye(d), turn), ("w", chirp, np.eye(d))):
        paths = []
        for k in range(d):
            path = tmp_path / f"{side}{k}.json"
            matrix = left @ np.linalg.matrix_power(clock, k) @ right
            path.write_text(json.dumps(array_to_literal(matrix)))
            paths.append(str(path))
        specs.append(",".join(paths))
    code, out, err = run_cli(["muub-check", "--basis1", specs[0], "--basis2", specs[1],
                              "--budget", "500"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"certified": False, "kappa": None}


def test_distinguish_negative(run_cli):
    code, out, _ = run_cli(["distinguish", "--v", "identity", "--w", "omega-minus"])
    assert code == 0
    assert json.loads(out) == {"distinguishable": False}


def test_muub_check_golden(run_cli):
    code, out, _ = run_cli(
        ["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["kappa"] == pytest.approx(2.0, abs=1e-9)


def test_muub_check_not_unbiased(run_cli):
    code, out, _ = run_cli(["muub-check", "--basis1", "i,pauli-y", "--basis2", "i,pauli-y"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is False
    assert payload["kappa"] is None


@pytest.mark.parametrize("argv, result", [
    (["--dim", "1"], (0, '{"certified": true, "kappa": 1.0}\n', "")),
    ([], (2, "", "error: basis size 1 is neither d=2 nor d^2=4\n")),
], ids=["d1", "d2"])
def test_muub_check_takes_a_one_operator_basis(run_cli, argv, result):
    # a d = 1 basis has one element; the basis itself refuses a size that is neither d nor d^2
    assert run_cli(["muub-check", "--basis1", "identity", "--basis2", "identity"] + argv) == result


def test_entropy_equator(run_cli):
    code, out, _ = run_cli(
        ["entropy", "--v", "identity", "--w", "omega-minus",
         "--measurement", "su2:pi/4,0", "--input", "chi:0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_uncertainty_bits"] == pytest.approx(1.0, abs=1e-9)
    assert payload["h_v_bits"] == pytest.approx(0.0, abs=1e-12)
    assert payload["h_w_bits"] == pytest.approx(1.0, abs=1e-9)


def test_entropy_natural_base(run_cli):
    code, out, _ = run_cli(
        ["entropy", "--v", "identity", "--w", "omega-minus",
         "--measurement", "su2:pi/4,0", "--input", "chi:0", "--log-base", "e"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_uncertainty_nats"] == pytest.approx(np.log(2), abs=1e-9)


def test_sweep_csv_default(run_cli):
    code, out, _ = run_cli(["sweep", "--pair", "i-omega", "--grid", "11"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,phi,max_overlap,diag_overlap,bound_bits"
    assert len(lines) == 1 + 121
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert values[:, 2].min() == pytest.approx(0.5, abs=1e-9)


def test_sweep_json_output(run_cli):
    code, out, _ = run_cli(["sweep", "--pair", "i-sigmay", "--grid", "3", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 9
    assert payload["records"][0]["max_overlap"] == pytest.approx(1.0)


def _reference_sweep_output(surface, output: str) -> str:
    """The per-row rendering that the block-wise one must match byte for byte."""
    rows = list(zip(*(c.tolist() for c in surface.columns())))
    if output == "json":
        return json.dumps(
            {
                "records": [
                    {
                        "theta": theta,
                        "phi": phi,
                        "max_overlap": max_overlap,
                        "diag_overlap": diag_overlap,
                        "bound_bits": bound_bits,
                    }
                    for theta, phi, max_overlap, diag_overlap, bound_bits in rows
                ]
            }
        ) + "\n"
    lines = ["theta,phi,max_overlap,diag_overlap,bound_bits"]
    for theta, phi, max_overlap, diag_overlap, bound_bits in rows:
        lines.append(
            f"{theta:.12g},{phi:.12g},{max_overlap:.12g},"
            f"{diag_overlap:.12g},{bound_bits:.12g}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_output_matches_per_record_rendering(run_cli, pair, output):
    code, out, _ = run_cli(["sweep", "--pair", pair, "--grid", "51", "--output", output])
    assert code == 0
    assert out == _reference_sweep_output(su2_overlap_surface(pair, 51), output)


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_blocks_across_theta_rows_match_one_shot(run_cli, monkeypatch, pair, output):
    # 7-row text blocks straddle the 13-point theta rows; 169 rows make 25 blocks
    surface = su2_overlap_surface(pair, 13)
    render = {"csv": sweep_to_csv, "json": sweep_to_json}[output]
    monkeypatch.setattr(saturation, "RENDER_BLOCK_ROWS", len(surface))
    one_shot = render(surface)
    monkeypatch.setattr(saturation, "RENDER_BLOCK_ROWS", 7)
    code, out, _ = run_cli(["sweep", "--pair", pair, "--grid", "13", "--output", output])
    assert code == 0
    assert out == one_shot == render(surface) == _reference_sweep_output(surface, output)


class _WriteCounter:
    """A stdout that keeps only how many writes it saw and how many characters."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)


@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_streams_stdout_in_bounded_memory(monkeypatch, output):
    # the traced peak is the three computed columns plus a kernel block and a text block;
    # rendering the whole text at once needs ~26 MB (CSV) to ~43 MB (JSON) beyond them here
    grid, allowance = 301, 12e6
    sink = _WriteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.run(["sweep", "--pair", "i-omega", "--grid", str(grid), "--output", output])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.writes > 1 and sink.chars > 70 * grid * grid
    assert peak < 3 * 8 * grid * grid + allowance


def test_sweep_failing_late_block_writes_nothing(run_cli, monkeypatch):
    closed_form = saturation._closed_form_overlaps

    def off_in_last_rows(pair, theta, phi):
        diag, off = closed_form(pair, theta, phi)
        return diag + 1e-9 * (theta > 3.0), off

    monkeypatch.setattr(saturation, "SWEEP_BLOCK_POINTS", 1000)
    monkeypatch.setattr(saturation, "_closed_form_overlaps", off_in_last_rows)
    code, out, err = run_cli(["sweep", "--pair", "i-omega", "--grid", "301"])
    assert code == 1
    assert out == ""
    assert "numerical failure: closed-form/matrix overlap mismatch" in err


def test_sweep_into_a_pipe_closed_early_exits_quietly():
    # the reader takes the header and closes, so a later block meets a broken pipe
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.Popen(
        [sys.executable, "-m", "utp.cli", "sweep", "--pair", "i-omega", "--grid", "301"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert child.stdout.readline() == b"theta,phi,max_overlap,diag_overlap,bound_bits\n"
    child.stdout.close()
    assert child.wait(timeout=120) == 0
    assert child.stderr.read() == b""
    child.stderr.close()


def test_sweep_info_log_reports_deviation(run_cli, monkeypatch):
    monkeypatch.setenv("UTP_LOG", "info")
    code, out, err = run_cli(["sweep", "--pair", "i-sigmay", "--grid", "21"])
    assert code == 0
    deviation = float(err.split("closed-form deviation ")[1].split()[0])
    assert 0.0 <= deviation <= 1e-12


def test_search_reproducible_bytes(run_cli):
    argv = ["search", "--v", "identity", "--w", "omega-minus",
            "--measurement", "su2:pi/4,0", "--budget", "800", "--seed", "5"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["achieved_bits"] == pytest.approx(1.0, abs=1e-3)
    assert payload["trivial"] is False


SEARCH_ARGV = ["search", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/5,0.3"]
MUUB_ARGV = ["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus"]


@pytest.mark.parametrize("argv, stdout", [
    (MUUB_ARGV, '{"certified": true, "kappa": 1.9999999999999996}\n'),
    (["muub-check", "--basis1", "omega-minus,omega-plus", "--basis2", "pauli-z,pauli-x"],
     '{"certified": false, "kappa": null}\n'),
], ids=["certified", "not-muub"])
def test_muub_check_forms_one_hs_table_between_its_bases(run_cli, monkeypatch, argv, stdout):
    # the verdict, the printed kappa and the trace table all read one |Tr(W V†)| table; the
    # bases' own orthogonality checks compare each stack with itself
    cross = []
    moduli = operators.hs_moduli
    monkeypatch.setattr(operators, "hs_moduli",
                        lambda p, q: cross.append(p is not q) or moduli(p, q))
    assert run_cli(argv) == (0, stdout, "")
    assert sum(cross) == 1


@pytest.mark.parametrize("argv", [SEARCH_ARGV, MUUB_ARGV], ids=["search", "muub-check"])
@pytest.mark.parametrize("flag, value", [("--budget", "0"), ("--budget", "-5"),
                                         ("--restarts", "0"), ("--restarts", "-2")])
def test_empty_budget_or_restarts_exit_2(run_cli, argv, flag, value):
    code, out, err = run_cli(argv + [flag, value])
    assert code == 2 and out == ""
    assert flag[2:] in err


@pytest.mark.parametrize("argv", [SEARCH_ARGV, MUUB_ARGV], ids=["search", "muub-check"])
def test_negative_seed_exits_2(run_cli, argv):
    # muub-check once certified these bases with exit 0, since no pair searches; search
    # failed inside numpy with a message that did not name the seed
    code, out, err = run_cli(argv + ["--seed", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


DISTINGUISH_ARGV = ["distinguish", "--v", "identity", "--w", "pauli-x"]


@pytest.mark.parametrize("argv", [
    DISTINGUISH_ARGV,
    MUUB_ARGV,
    ["distinguish", "--v", "identity", "--w", "identity"],
    # every cross trace is 0, and identical bases pair W V† = I
    ["muub-check", "--basis1", "i,pauli-z", "--basis2", "pauli-x,pauli-y"],
    ["muub-check", "--basis1", "i,pauli-y", "--basis2", "i,pauli-y"],
], ids=["distinguish", "muub-check", "distinguish-same", "muub-check-far", "muub-check-same"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1", "2"])
def test_bad_tol_exits_2(run_cli, argv, value):
    # each of these once printed a wrong yes/no with exit 0: a tol of 1, as large as the
    # distance a unit-circle point can have from 0, called a pair distinguishable with itself;
    # a tol of 2 certified qubit bases whose flat overlaps are 1/2 and whose cross traces are 0
    code, out, err = run_cli(argv + ["--tol", value])
    assert code == 2 and out == ""
    scale = "1" if argv[0] == "distinguish" else "0.5"
    assert err == f"error: tol must be a number in [0, {scale}), got {float(value)}\n"


@pytest.mark.parametrize("argv", [
    ["bound", "--v", "identity", "--w", "identity", "--dim", "0", "--measurement", "computational"],
    ["entropy", "--v", "identity", "--w", "identity", "--dim", "0", "--measurement",
     "computational", "--input", "e:0"],
    ["povm-bound", "--v", "identity", "--w", "identity", "--dim", "0", "--measurement",
     "computational"],
    ["mes-bound", "--v", "identity", "--w", "identity", "--dim", "0"],
    ["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus", "--dim", "0"],
    ["distinguish", "--v", "identity", "--w", "clock", "--dim", "-1"],
    SEARCH_ARGV + ["--dim", "-3"],
], ids=["bound", "entropy", "povm-bound", "mes-bound", "muub-check", "distinguish", "search"])
def test_dim_below_one_exits_2(run_cli, argv):
    # these once failed inside numpy: "zero-size array to reduction operation maximum which
    # has no identity" at --dim 0, "negative dimensions are not allowed" below it
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: --dim must be >= 1, got {argv[argv.index('--dim') + 1]}\n"


def test_search_info_log_accounts_for_each_search(run_cli, monkeypatch, tmp_path):
    monkeypatch.delenv("UTP_LOG", raising=False)
    _, quiet, err = run_cli(SEARCH_ARGV + ["--budget", "60"])
    assert err == ""
    monkeypatch.setenv("UTP_LOG", "info")
    code, out, err = run_cli(SEARCH_ARGV + ["--budget", "60"])
    assert code == 0 and out == quiet  # stdout bytes do not depend on the log level
    (line,) = err.splitlines()
    used = re.fullmatch(
        r"INFO input search: numerical-search, (\d+) evaluations from 20 starts, converged False",
        line,
    )
    assert used and int(used.group(1)) <= 60
    # chirp-free qubit bases: each of the four pairs logs its flat-basis construction, and
    # the certification logs its count of each method
    code, _, err = run_cli(MUUB_ARGV)
    *lines, summary = err.splitlines()
    assert code == 0 and len(lines) == 4
    assert all(line.endswith("row-construction, 0 evaluations from 0 starts, converged True")
               for line in lines)
    assert summary == ("INFO MUUB certification: row-construction 4, zadoff-chu-order 0, "
                       "spectral-transport 0, numerical-search 0, not-found 0; "
                       "0 spectrum classes searched")
    # chirp d = 5 from JSON files: each of the 25 pairs is ordered as a Zadoff-Chu sequence
    clock = np.diag(np.exp(2j * np.pi * np.arange(5) / 5))
    chirp = np.diag(np.exp(1j * np.pi * np.arange(5) ** 2 * 6 / 5))
    specs = []
    for side, factor in (("v", np.eye(5)), ("w", chirp)):
        paths = []
        for k in range(5):
            path = tmp_path / f"{side}{k}.json"
            path.write_text(json.dumps(array_to_literal(factor @ np.linalg.matrix_power(clock, k))))
            paths.append(str(path))
        specs.append(",".join(paths))
    code, out, err = run_cli(["muub-check", "--dim", "5", "--basis1", specs[0],
                              "--basis2", specs[1], "--budget", "500"])
    *lines, summary = err.splitlines()
    assert code == 0 and json.loads(out)["certified"] is True
    assert len(lines) == 25
    assert all(line == "INFO flat-basis search: zadoff-chu-order, 0 evaluations from 0 starts, "
               "converged True" for line in lines)
    assert summary == ("INFO MUUB certification: row-construction 0, zadoff-chu-order 25, "
                       "spectral-transport 0, numerical-search 0, not-found 0; "
                       "0 spectrum classes searched")


def test_game_reproducible_bytes(run_cli):
    argv = ["game", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0",
            "--input", "chi:0", "--trials", "5000", "--seed", "21"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert sum(payload["counts_v"]) + sum(payload["counts_w"]) == 5000


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_game_seed_outside_the_philox_key_range_exits_2(run_cli, seed):
    # -1 once failed only inside run_game, with numpy's message on the Philox key
    code, out, err = run_cli(["game", "--v", "identity", "--w", "pauli-x", "--measurement",
                              "computational", "--input", "e:0", "--trials", "10", "--seed", seed])
    assert code == 2 and out == ""
    assert err == "error: seed must be an integer in [0, 2**128)\n"


def test_game_csv_output(run_cli):
    code, out, _ = run_cli(
        ["game", "--v", "identity", "--w", "pauli-x", "--measurement", "computational",
         "--input", "e:0", "--trials", "100", "--seed", "1", "--output", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "outcome,count_v,count_w"
    assert len(lines) == 3


def test_povm_bound_matches_projective(run_cli):
    code1, out1, _ = run_cli(
        ["bound", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0"]
    )
    code2, out2, _ = run_cli(
        ["povm-bound", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0"]
    )
    assert code1 == code2 == 0
    assert json.loads(out1)["bound_bits"] == pytest.approx(
        json.loads(out2)["bound_bits"], abs=1e-9
    )


def test_povm_bound_from_json_file(run_cli, tmp_path):
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"elements": [array_to_literal(np.eye(2) / 2)] * 2}))
    code, out, _ = run_cli(
        ["povm-bound", "--v", "identity", "--w", "pauli-x", "--measurement", str(path)]
    )
    assert code == 0
    assert json.loads(out)["bound_bits"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("command", ["entropy", "game"])
@pytest.mark.parametrize("amplitudes", [[1.0, 0.0], [0.6, 0.8j]])
def test_input_file_within_norm_tolerance_acts_as_normalised(
    run_cli, tmp_path, command, amplitudes
):
    # a norm 9e-10 above 1 passes the 1e-9 state check, but unrescaled its outcome
    # probabilities would exceed 1, or sum to 1 + 1.8e-9, past OutcomeDistribution's limits
    exact = np.array(amplitudes) / np.linalg.norm(amplitudes)
    outputs = []
    for name, amps in [("off.json", exact * (1 + 9e-10)), ("exact.json", exact)]:
        path = tmp_path / name
        path.write_text(json.dumps(array_to_literal(amps)))
        argv = [command, "--v", "identity", "--w", "pauli-x", "--measurement", "computational",
                "--input", str(path)]
        code, out, err = run_cli(argv + (["--trials", "1000"] if command == "game" else []))
        assert code == 0, err
        outputs.append(json.loads(out))
    off, exact_out = outputs
    assert off.keys() == exact_out.keys()
    for key, value in off.items():
        if isinstance(value, float):
            assert value == pytest.approx(exact_out[key], abs=1e-12), key
        else:
            assert value == exact_out[key], key


def test_mes_bound_bell(run_cli):
    code, out, _ = run_cli(
        ["mes-bound", "--v", "identity", "--w", "omega-minus", "--measurement", "bell"]
    )
    assert code == 0
    assert json.loads(out)["bound_bits"] == pytest.approx(1.0, abs=1e-9)


def test_mes_bound_dim3(run_cli):
    code, out, _ = run_cli(
        ["mes-bound", "--v", "clock", "--w", "shift", "--dim", "3", "--measurement", "bell"]
    )
    assert code == 0
    assert json.loads(out)["bound_bits"] >= 0.0


@pytest.mark.parametrize("dim, argmax", [(3, [0, 7]), (32, [0, 993])])
def test_mes_bound_tie_and_near_one_rules(run_cli, dim, argmax):
    # each Weyl-basis overlap occurs d^2 times exactly, so the first row-major pair
    # within 1e-12 of the maximum is reported; a maximum overlap that rounds to
    # just below 1 still prints a bound of exactly 0
    code, out, _ = run_cli(["mes-bound", "--v", "clock", "--w", "shift", "--dim", str(dim)])
    assert code == 0
    assert out == json.dumps({"bound_bits": 0.0, "argmax": argmax}) + "\n"


def test_operator_from_json_file(run_cli, tmp_path):
    path = tmp_path / "hadamard.json"
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    path.write_text(json.dumps(array_to_literal(h)))
    code, out, _ = run_cli(
        ["bound", "--v", "identity", "--w", str(path), "--measurement", "computational"]
    )
    assert code == 0
    assert json.loads(out)["bound_bits"] == pytest.approx(1.0, abs=1e-9)


# --- errors ------------------------------------------------------------------

def test_unknown_operator_exits_2(run_cli):
    code, out, err = run_cli(["bound", "--v", "nope", "--w", "pauli-x", "--measurement", "computational"])
    assert code == 2
    assert out == ""
    assert "unknown operator name" in err
    assert "\n" in err and err.count("\n") == 1  # one-line message


def test_malformed_json_exits_2(run_cli, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["bound", "--v", str(path), "--w", "pauli-x", "--measurement", "computational"])
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize(
    "command, flag, literal",
    [
        ("povm-bound", "--measurement", {"elements": 5}),
        ("bound", "--measurement", {"states": 5}),
        ("bound", "--measurement", {"states": None}),
        ("bound", "--measurement", [1, 2]),
        ("mes-bound", "--measurement", {"local_dim": 2, "states": 5}),
        ("mes-bound", "--measurement", {"local_dim": None, "states": []}),
        ("entropy", "--input", {"dim": 2, "re": "x", "im": 0}),
        # dim 0 once gave "expected a matrix, got ndim=1" and "state is not normalized"
        ("povm-bound", "--measurement", {"elements": [{"dim": 0, "re": [], "im": []}]}),
        ("entropy", "--input", {"dim": 0, "re": [], "im": []}),
        # each of these once loaded: im or re broadcast, dim cast by int(), or 10^400 an
        # OverflowError that exited 1
        ("bound", "--v", {"dim": 2, "re": [[0, 1], [1, 0]], "im": 0}),
        ("bound", "--v", {"dim": 2, "re": [0, 0], "im": [[1, 0], [0, 1]]}),
        ("bound", "--v", {"dim": 2.7, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}),
        ("bound", "--v", {"dim": "2", "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}),
        ("bound", "--v", {"dim": True, "re": [[1]], "im": [[0]]}),
        ("bound", "--v", {"dim": 2, "re": [[10 ** 400, 0], [0, 1]], "im": [[0, 0], [0, 0]]}),
        ("entropy", "--input", {"dim": 2, "re": [1, 0], "im": 0}),
    ],
)
def test_malformed_literal_file_exits_2(run_cli, tmp_path, command, flag, literal):
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(literal))
    options = {"--v": "identity", "--w": "identity", "--measurement": "computational", flag: str(path)}
    code, out, err = run_cli([command, *(part for option in options.items() for part in option)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag, text", [
    ("bound", "--v", '{"dim": 2, "re": [[1e400, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'),
    ("bound", "--v", '{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, NaN], [0, 0]]}'),
    ("entropy", "--input", '{"dim": 2, "re": [Infinity, 0], "im": [0, 0]}'),
])
def test_non_finite_literal_exits_2_as_malformed(run_cli, tmp_path, command, flag, text):
    # json.load reads each as a non-finite float; these once passed the literal checks and
    # exited 2 with "matrix (or vector) entries must be finite (no NaN/Inf)"
    path = tmp_path / "literal.json"
    path.write_text(text)
    options = {"--v": "identity", "--w": "identity", "--measurement": "computational", flag: str(path)}
    code, out, err = run_cli([command, *(part for option in options.items() for part in option)])
    assert code == 2 and out == ""
    what = "vector" if flag == "--input" else "matrix"
    assert err == f"error: malformed {what} literal: entries must be finite\n"


@pytest.mark.parametrize("rows, invariant", [
    (np.eye(4), "MES basis element is not maximally entangled"),  # separable
    (np.array([[1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2),
     "MES basis is not orthonormal"),
])
def test_invalid_mes_file_exits_2(run_cli, tmp_path, rows, invariant):
    path = tmp_path / "mes.json"
    path.write_text(json.dumps({"local_dim": 2, "states": [array_to_literal(r) for r in rows]}))
    code, out, err = run_cli(["mes-bound", "--v", "identity", "--w", "identity",
                              "--measurement", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {invariant}") and err.count("\n") == 1


def test_non_unitary_json_exits_2(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]}))
    code, _, err = run_cli(["bound", "--v", str(path), "--w", "pauli-x", "--measurement", "computational"])
    assert code == 2
    assert "not unitary" in err


def test_dimension_mismatch_exits_2(run_cli, tmp_path):
    code, _, err = run_cli(["bound", "--v", "pauli-x", "--w", "clock", "--dim", "3",
                            "--measurement", "computational"])
    assert code == 2
    assert "qubit operator" in err
    # a --dim that contradicts an operator file once had no effect, with exit 0
    rng = np.random.default_rng(3)
    paths = []
    for k in (1, 2):
        path = tmp_path / f"h3_{k}.json"
        path.write_text(json.dumps(array_to_literal(haar_matrix(3, rng))))
        paths.append(str(path))
    pair = ["--v", *paths[:1], "--w", *paths[1:]]
    for argv in (
        ["mes-bound", *pair, "--dim", "7"],
        ["bound", *pair, "--dim", "5", "--measurement", "computational"],
        ["distinguish", *pair, "--dim", "2"],
        ["muub-check", "--basis1", "clock,shift", "--basis2", ",".join(paths), "--dim", "2"],
    ):
        code, out, err = run_cli(argv)
        dim = argv[argv.index("--dim") + 1]
        assert (code, out) == (2, "")
        assert err == f"error: --dim {dim} contradicts the 3-dimensional operator in {paths[0]}\n"
    # a consistent --dim changes nothing
    assert run_cli(["mes-bound", *pair, "--dim", "3"]) == run_cli(["mes-bound", *pair])


def test_bad_angle_exits_2(run_cli):
    code, _, err = run_cli(["bound", "--v", "identity", "--w", "pauli-x",
                            "--measurement", "su2:frog,0"])
    assert code == 2
    assert "angle" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--pair", "i-omega", "--grid", "3"],
        ["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus"],
        ["distinguish", "--v", "pauli-x", "--w", "pauli-z"],
        ["game", "--v", "identity", "--w", "pauli-x", "--measurement", "computational",
         "--input", "e:0", "--trials", "10"],
    ],
)
def test_log_base_refused_where_ignored(run_cli, argv):
    code, out, err = run_cli([*argv, "--log-base", "e"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --log-base e" in err


def test_unknown_subcommand_exits_2(run_cli):
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_numerical_failure_exits_1(run_cli, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("iteration stalled")

    # inside the bound: the parser, built once per process, holds the bound function itself
    monkeypatch.setattr(ProjectiveMeasurement, "overlaps", boom)
    code, out, err = run_cli(["bound", "--v", "identity", "--w", "pauli-x",
                              "--measurement", "computational"])
    assert code == 1
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("error, code, prefix", [
    (np.linalg.LinAlgError, 1, "numerical failure"),  # a ValueError, yet not a usage error
    (ValueError, 2, "error"),
])
def test_exit_code_follows_the_error_type(run_cli, monkeypatch, error, code, prefix):
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(ProjectiveMeasurement, "overlaps", boom)
    argv = ["bound", "--v", "identity", "--w", "pauli-x", "--measurement", "computational"]
    assert run_cli(argv) == (code, "", f"{prefix}: boom\n")
    # the rest of the ArithmeticError family is no numerical failure of the package: a bug
    monkeypatch.setattr(ProjectiveMeasurement, "overlaps", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_cli(argv)


def test_sweep_bound_bits_off_by_1e9_exit_1(run_cli, monkeypatch):
    # computed columns that break the sweep invariant are a numerical failure, not usage
    surface_arrays = saturation._surface_arrays

    def off(pair, theta, phi):
        max_overlap, diag_overlap, bound_bits, deviation = surface_arrays(pair, theta, phi)
        return max_overlap, diag_overlap, bound_bits + 1e-9, deviation

    monkeypatch.setattr(saturation, "_surface_arrays", off)
    code, out, err = run_cli(["sweep", "--pair", "i-omega", "--grid", "5"])
    assert code == 1
    assert out == ""
    assert "numerical failure" in err and "bound_bits is not -log2(max_overlap)" in err
    with pytest.raises(InvariantError, match="bound_bits is not"):  # one sample is checked too
        saturation.su2_overlap_point("i-omega", 0.3, 0.4)


def test_sweep_grid_too_large_to_allocate_exits_2(run_cli, monkeypatch):
    # a grid whose columns cannot be allocated is a flag value that cannot take effect; the
    # allocation is made to fail here, since under overcommit a real one may not fail at once
    empty = np.empty

    def refuse_the_columns(shape, *args, **kwargs):
        if np.prod(shape) >= 10**12:
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_the_columns)
    code, out, err = run_cli(["sweep", "--pair", "i-omega", "--grid", "1000000"])
    assert (code, out) == (2, "")
    assert err == ("error: grid 1000000 is too large: its three columns of 1000000000000 points "
                   "do not fit in memory\n")


def test_search_result_below_its_bound_exits_1(run_cli, monkeypatch):
    # a computed achieved value that undercuts the bound is a numerical failure, not usage
    # every report's entropies come from one stacked call: each side 0.25 low, 0.5 in all
    entropies = saturation.entropies
    monkeypatch.setattr(saturation, "entropies", lambda p, base: entropies(p, base) - 0.25)
    code, out, err = run_cli(SEARCH_ARGV + ["--budget", "60"])
    assert code == 1
    assert out == ""
    assert "numerical failure" in err and "undercuts the bound" in err


def test_outcome_probabilities_off_by_a_tenth_exit_1(run_cli, monkeypatch):
    # a library invariant, not user input: probabilities summing to 1.1 are a numerical failure
    probabilities = ProjectiveMeasurement.probabilities
    monkeypatch.setattr(ProjectiveMeasurement, "probabilities",
                        lambda self, psi, u: 1.1 * probabilities(self, psi, u))
    code, out, err = run_cli(["entropy", "--v", "identity", "--w", "pauli-z",
                              "--measurement", "su2:pi/4,0", "--input", "e:0"])
    assert code == 1
    assert out == ""
    assert "numerical failure" in err and "sum to 1.1" in err


def test_parse_angle():
    assert cli.parse_angle("pi") == pytest.approx(np.pi)
    assert cli.parse_angle("pi/4") == pytest.approx(np.pi / 4)
    assert cli.parse_angle("-pi/2") == pytest.approx(-np.pi / 2)
    assert cli.parse_angle("2*pi/3") == pytest.approx(2 * np.pi / 3)
    assert cli.parse_angle("3pi") == pytest.approx(3 * np.pi)
    assert cli.parse_angle("0.25") == 0.25
    for text in ("four", "pi/0", ".pi"):  # pi/0 once exited 1 as a float division by zero
        with pytest.raises(cli.UsageError, match=f"cannot parse angle '{re.escape(text)}'"):
            cli.parse_angle(text)


def test_log_env_controls_stderr(run_cli, monkeypatch):
    monkeypatch.setenv("UTP_LOG", "info")
    code, out, err = run_cli(["sweep", "--pair", "i-omega", "--grid", "3"])
    assert code == 0
    assert "sweep i-omega over 9 points" in err
    assert out.startswith("theta,phi")  # results stay on stdout only


def test_log_quiet_by_default(run_cli, monkeypatch):
    monkeypatch.delenv("UTP_LOG", raising=False)
    code, out, err = run_cli(["sweep", "--pair", "i-omega", "--grid", "3"])
    assert code == 0
    assert err == ""


# --- one parser and one set of named operators per process ------------------------

def test_shared_parser_recovers_from_errors_and_help(run_cli):
    cli.build_parser.cache_clear()  # the first call below builds the parser
    code, out, err = run_cli(["bound", "--v", "identity"])
    assert (code, out) == (2, "") and "required" in err
    code, out, _ = run_cli(["--help"])
    assert code == 0 and out.startswith("usage: utp")
    code, out, _ = run_cli(["mes-bound", "--help"])
    assert code == 0 and out.startswith("usage: utp mes-bound")
    assert run_cli(["frobnicate"])[:2] == (2, "")
    code, out, err = run_cli(["bound", "--v", "identity", "--w", "pauli-x",
                              "--measurement", "computational"])
    assert (code, out, err) == (0, '{"bound_bits": 0.0, "argmax": [0, 1]}\n', "")


def test_log_env_is_read_on_every_call(run_cli, monkeypatch):
    argv = ["sweep", "--pair", "i-omega", "--grid", "3"]
    monkeypatch.delenv("UTP_LOG", raising=False)
    assert run_cli(argv)[2] == ""
    monkeypatch.setenv("UTP_LOG", "info")
    assert "sweep i-omega over 9 points" in run_cli(argv)[2]
    monkeypatch.setenv("UTP_LOG", "quiet")
    assert run_cli(argv)[2] == ""


def test_named_operators_are_shared_and_read_only(tmp_path):
    clock = cli.resolve_operator("clock", 3)
    assert cli.resolve_operator("CLOCK", 3) is clock
    assert cli.resolve_operator("pauli-y", 2) is cli.resolve_operator("Pauli-Y", 2)
    assert cli.resolve_operator("clock", 5) is not clock
    with pytest.raises(ValueError, match="read-only"):
        clock.matrix[0, 0] = 0.0
    with pytest.raises(AttributeError):
        clock.matrix = np.eye(3)
    # a file is read again on every call: its contents may change in between
    path = tmp_path / "u.json"
    path.write_text(json.dumps(array_to_literal(np.eye(2))))
    first = cli.resolve_operator(str(path), 2)
    path.write_text(json.dumps(array_to_literal(np.array([[0.0, 1.0], [1.0, 0.0]]))))
    assert np.array_equal(cli.resolve_operator(str(path), 2).matrix, [[0, 1], [1, 0]])
    assert np.array_equal(first.matrix, np.eye(2))
