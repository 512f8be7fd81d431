"""What a fresh `utp` process imports: numpy only, unless a search runs.

One child interpreter runs the subcommands in order through ``cli.run`` and
reports, after each one, its stdout and the ``scipy`` modules loaded so far.
The search and certification outputs are pinned to bytes produced by the
eagerly importing code, so loading scipy later changes no result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    ["sweep", "--pair", "i-omega", "--grid", "5"],
]

# (argv, stdout, the scipy subpackage it loads), run in this order after NUMPY_ONLY
SEARCH_BACKED = [
    # the Fourier construction certifies every cross pair: Schur, no optimiser
    (["muub-check", "--basis1", "i,pauli-y", "--basis2", "omega-minus,omega-plus"],
     '{"certified": true, "kappa": 1.9999999999999996}\n', "scipy.linalg"),
    # every cross pair is Hermitian, so no Fourier candidate is flat and the expm search runs
    (["muub-check", "--basis1", "omega-minus,omega-plus", "--basis2", "pauli-z,pauli-x",
      "--budget", "300", "--restarts", "3", "--seed", "4"],
     '{"certified": false, "kappa": null}\n', "scipy.optimize"),
    (["search", "--v", "identity", "--w", "omega-minus", "--measurement", "su2:pi/5,0.3",
      "--budget", "300", "--restarts", "3", "--seed", "2"],
     '{"achieved_bits": 0.9943914987465556, "bound_bits": 0.890314882109364, '
     '"gap_bits": 0.10407661663719159, "trivial": false, "method": "numerical-search", '
     '"input_re": [0.978193959851042, -0.14709796467187797], '
     '"input_im": [0.0, 0.1466245739987979]}\n', "scipy.optimize"),
    (["search", "--v", "clock", "--w", "shift", "--dim", "3", "--measurement", "computational",
      "--budget", "400", "--restarts", "4", "--seed", "7"],
     '{"achieved_bits": 2.436281459276131e-08, "bound_bits": 0.0, '
     '"gap_bits": 2.436281459276131e-08, "trivial": false, "method": "numerical-search", '
     '"input_re": [0.9999999998170562, 6.360633474366972e-06, -1.598491986118817e-05], '
     '"input_im": [0.0, 2.5576529022430256e-07, 8.357444381340366e-06]}\n', "scipy.optimize"),
]

CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from utp import cli

steps = [[None, "", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    steps.append([code, out.getvalue(), scipy_modules()])
print(json.dumps(steps))
"""


def _run_in_order(argvs):
    """[(exit code, stdout, scipy modules loaded)] of one fresh process: import, then each argv."""
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_only_searches_load_scipy():
    steps = _run_in_order(NUMPY_ONLY + [argv for argv, _, _ in SEARCH_BACKED])
    imported, *numpy_only = steps[: 1 + len(NUMPY_ONLY)]
    assert imported[2] == []
    for argv, (code, out, scipy) in zip(NUMPY_ONLY, numpy_only):
        assert code == 0 and out, argv[0]
        assert scipy == [], f"{argv[0]} loaded {scipy[:3]}"

    searched = steps[1 + len(NUMPY_ONLY) :]
    for (argv, golden, loads), (code, out, scipy) in zip(SEARCH_BACKED, searched):
        assert (code, out) == (0, golden), argv
        assert loads in scipy, argv
        if loads == "scipy.linalg":
            assert not [m for m in scipy if m.startswith("scipy.optimize")], argv
