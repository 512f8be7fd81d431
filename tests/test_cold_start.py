"""What a fresh `utp` process imports: numpy only, for every subcommand.

One child interpreter runs the subcommands in order through ``cli.run`` and
reports, after each one, its stdout and the ``scipy``, ``concurrent.futures``
and ``multiprocessing`` modules loaded so far; none may be loaded.  The
second game has more than ``4 * GAME_CHUNK`` trials, so it draws on plain
threads where the process may run on more than one CPU.  The certification
outputs are pinned to the bytes the Schur eigenbasis from ``scipy.linalg``
produced, so the numpy eigenbasis changes no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from utp import cli

ROOT = Path(__file__).resolve().parent.parent

NUMPY_ONLY = [
    ["bound", "--v", "identity", "--w", "pauli-y", "--measurement", "su2:pi/4,0"],
    ["entropy", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0",
     "--input", "chi:0"],
    ["distinguish", "--v", "clock", "--w", "shift", "--dim", "3"],
    ["povm-bound", "--v", "clock", "--w", "shift", "--dim", "3", "--measurement", "computational"],
    ["mes-bound", "--v", "clock", "--w", "shift", "--dim", "3"],
    ["game", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0",
     "--input", "chi:0", "--trials", "1000", "--seed", "1"],
    ["game", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/4,0",
     "--input", "chi:0", "--trials", "300001", "--seed", "1"],
    ["sweep", "--pair", "i-omega", "--grid", "5"],
]

# (argv, stdout, achieved_bits of the Nelder-Mead search this replaced on the same input,
# achieved_bits of the halving line search that interpolating backtracking replaced): the
# gradient searches run on numpy alone and must do no worse than either
SEARCHES = [
    (["search", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/5,0.3",
      "--budget", "300", "--restarts", "3", "--seed", "2"],
     '{"achieved_bits": 0.9943914987464947, "bound_bits": 0.890314882109364, '
     '"gap_bits": 0.10407661663713064, "trivial": false, "method": "numerical-search", '
     '"input_re": [0.1735468313202721, -0.468938565695617], '
     '"input_im": [-0.5526186989543074, 0.6667763436926052]}\n', 0.9943914987465556,
     0.9943914987464941),
    (["search", "--v", "clock", "--w", "shift", "--dim", "3", "--measurement", "computational",
      "--budget", "400", "--restarts", "4", "--seed", "7"],
     '{"achieved_bits": 0.0, "bound_bits": 0.0, "gap_bits": 0.0, "trivial": false, '
     '"method": "numerical-search", '
     '"input_re": [-8.616857547951945e-12, 0.30569987880666016, 7.351056257069767e-10], '
     '"input_im": [-7.383941672625002e-10, -0.9521279242295089, 7.843916365213468e-11]}\n',
     2.436281459276131e-08, 0.0),
]

# (argv, stdout) of muub-check, run last: both need an eigenbasis and still load no scipy
CERTIFICATIONS = [
    # the Fourier construction certifies every cross pair
    (["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus"],
     '{"certified": true, "kappa": 1.9999999999999996}\n'),
    # every cross pair is Hermitian, so no Fourier candidate is flat and the gradient search
    # runs; the |Tr(W V+)| check still refuses the pair
    (["muub-check", "--basis1", "omega-minus,omega-plus", "--basis2", "pauli-z,pauli-x",
      "--budget", "300", "--restarts", "3", "--seed", "4"],
     '{"certified": false, "kappa": null}\n'),
]

CHILD = """
import contextlib, io, json, sys

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing") or m == "concurrent.futures")

from utp import cli

steps = [[None, "", unwanted_modules()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    steps.append([code, out.getvalue(), unwanted_modules()])
print(json.dumps(steps))
"""


def _run_in_order(argvs):
    """[(exit code, stdout, unwanted modules loaded)] of one fresh process: import, each argv."""
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_no_subcommand_loads_scipy():
    argvs = NUMPY_ONLY + [argv for argv, *_ in SEARCHES] + [argv for argv, _ in CERTIFICATIONS]
    imported, *rest = _run_in_order(argvs)
    assert imported[2] == []
    for argv, (code, out, unwanted) in zip(argvs, rest):
        assert code == 0 and out, argv[0]
        assert unwanted == [], f"{argv[0]} loaded {unwanted[:3]}"

    searched = rest[len(NUMPY_ONLY) : len(NUMPY_ONLY) + len(SEARCHES)]
    for (argv, golden, nelder_mead_bits, halving_bits), (_, out, _) in zip(SEARCHES, searched):
        assert out == golden, argv
        assert json.loads(out)["achieved_bits"] <= nelder_mead_bits + 1e-12, argv
        assert json.loads(out)["achieved_bits"] <= halving_bits + 1e-12, argv

    certified = rest[len(NUMPY_ONLY) + len(SEARCHES) :]
    for (argv, golden), (_, out, _) in zip(CERTIFICATIONS, certified):
        assert out == golden, argv


def test_csv_tables_are_built_on_first_render_not_at_import():
    child = (
        "import utp.cli\n"
        "from utp import csvformat, saturation\n"
        "print(csvformat._tables.cache_info().currsize)\n"
        "saturation.sweep_to_csv(saturation.su2_overlap_surface('i-omega', 2))\n"
        "print(csvformat._tables.cache_info().currsize)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "1"]


def test_parser_is_built_once_per_process_and_not_at_import(monkeypatch):
    """20 in-process calls over all nine subcommands construct the top-level parser once."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    calls = NUMPY_ONLY + [argv for argv, *_ in SEARCHES] + [argv for argv, _ in CERTIFICATIONS]
    calls = (calls * 2)[:20]
    assert len(calls) == 20 and len({argv[0] for argv in calls}) == 9
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for argv in calls:
        assert cli.run(argv) == 0, argv
    assert built.count("utp") == 1 and len(built) == 10  # the top level and nine subcommands

    child = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import utp.cli\n"
        "print(len(built))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]
