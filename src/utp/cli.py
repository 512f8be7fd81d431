"""Command-line surface: reproducible, machine-readable analyses on stdout.

Every subcommand prints its result to stdout (JSON by default; CSV for
grids) and keeps diagnostics on stderr, controlled by the UTP_LOG
environment variable (quiet | info | debug).  Exit codes: 0 success,
2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys

import numpy as np

from .gamesim import GameConfig, run_game, transcript_to_json
from .linalg import ConvergenceError, InvariantError
from .operators import (
    UnitaryBasis,
    UnitaryOperator,
    clock_shift_pair,
    identity,
    is_perfectly_distinguishable,
    omega,
    pauli,
)
from .saturation import (
    muub_certify_by_saturation,
    search_min_uncertainty,
    su2_basis,
    su2_overlap_surface,
    sweep_csv_blocks,
    sweep_json_blocks,
)
from .testers import (
    MesMeasurement,
    Povm,
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_basis,
    computational_basis,
    outcome_distribution,
    povm_from_projective,
)
from .uncertainty import (
    mes_bound,
    povm_bound,
    projective_bound,
    shannon_entropy,
)

log = logging.getLogger("utp")

OPERATOR_NAMES = ("identity", "i", "pauli-x", "pauli-y", "pauli-z", "clock", "shift",
                  "omega-minus", "omega-plus")
DIM_HELP = "dimension of named operators (default 2); JSON operators must have it if given"


class UsageError(ValueError):
    """Bad command-line input."""


def parse_angle(text: str) -> float:
    """Radians from a numeric literal or a pi expression like ``pi/4`` or ``3*pi/2``."""
    t = text.strip().replace(" ", "").lower()
    m = re.fullmatch(r"([+-]?)(\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?", t)
    try:
        if m is None:
            return float(t)
        sign, coef, div = m.groups()
        return float(sign + (coef or "1")) * math.pi / float(div or "1")
    except (ValueError, ZeroDivisionError):  # "." alone, or a zero divisor
        raise UsageError(f"cannot parse angle {text!r}; use radians or a pi literal like pi/4")


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def resolve_operator(spec: str, dim: int | None) -> UnitaryOperator:
    """Named operator from the registry, or a matrix literal from a JSON file.

    A named operator is built at ``dim``, 2 when it is None.  A file keeps its own
    dimension, which must be ``dim`` when that is given.
    """
    if dim is not None and dim < 1:
        raise UsageError(f"--dim must be >= 1, got {dim}")
    name = spec.lower()
    if name in OPERATOR_NAMES:
        dim = 2 if dim is None else dim
        if dim != 2 and name.startswith(("pauli-", "omega-")):
            raise UsageError(f"{spec} is a qubit operator; got --dim {dim}")
        return _named_operator(name, dim)
    if os.path.exists(spec):
        op = UnitaryOperator.from_literal(_load_json_file(spec))
        if dim is not None and op.dim != dim:
            raise UsageError(f"--dim {dim} contradicts the {op.dim}-dimensional operator in {spec}")
        return op
    raise UsageError(
        f"unknown operator name {spec!r}; expected one of {', '.join(OPERATOR_NAMES)} "
        "or a JSON file path"
    )


@functools.lru_cache(maxsize=32)
def _named_operator(name: str, dim: int) -> UnitaryOperator:
    """A registry operator, built once per (name, dim): it is frozen and read-only."""
    if name in ("identity", "i"):
        return identity(dim)
    if name.startswith("pauli-"):
        return pauli(name[-1])
    if name.startswith("omega-"):
        return omega(-1 if name.endswith("minus") else +1)
    return clock_shift_pair(dim)[0 if name == "clock" else 1]


def resolve_projective(spec: str, dim: int) -> ProjectiveMeasurement:
    name = spec.lower()
    if name == "computational":
        return computational_basis(dim)
    if name.startswith("su2:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise UsageError("su2 measurement needs two angles, e.g. su2:pi/4,0")
        if dim != 2:
            raise UsageError(f"su2 measurement is qubit-only; got --dim {dim}")
        return su2_basis(parse_angle(parts[0]), parse_angle(parts[1]))
    if os.path.exists(spec):
        return ProjectiveMeasurement.from_literal(_load_json_file(spec))
    raise UsageError(
        f"unknown measurement {spec!r}; expected computational, su2:theta,phi, "
        "or a JSON file path"
    )


def resolve_povm(spec: str, dim: int) -> Povm:
    """A POVM file, or any projective measurement (named or a file) as its rank-1 POVM."""
    if os.path.exists(spec):
        data = _load_json_file(spec)
        if isinstance(data, dict) and "states" in data:
            return povm_from_projective(ProjectiveMeasurement.from_literal(data))
        return Povm.from_literal(data)
    return povm_from_projective(resolve_projective(spec, dim))


def resolve_mes(spec: str, dim: int) -> MesMeasurement:
    if spec.lower() == "bell":
        return bell_basis(dim)
    if os.path.exists(spec):
        return MesMeasurement.from_literal(_load_json_file(spec))
    raise UsageError(f"unknown MES measurement {spec!r}; expected bell or a JSON file path")


def resolve_input(spec: str, m: ProjectiveMeasurement) -> PureState:
    name = spec.lower()
    if name.startswith("chi:"):
        k = _parse_index(spec[4:], m.dim, "chi")
        return m.states[k]
    if name.startswith("e:"):
        k = _parse_index(spec[2:], m.dim, "e")
        amps = np.zeros(m.dim, dtype=complex)
        amps[k] = 1.0
        return PureState(amps)
    if os.path.exists(spec):
        return PureState.from_literal(_load_json_file(spec))
    raise UsageError(
        f"unknown input state {spec!r}; expected chi:K, e:K, or a JSON file path"
    )


def _parse_index(text: str, dim: int, label: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise UsageError(f"{label}:K needs an integer index, got {text!r}")
    if not (0 <= k < dim):
        raise UsageError(f"{label} index {k} out of range for dimension {dim}")
    return k


def _base(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


def _unit(args) -> str:
    return "bits" if args.log_base == "2" else "nats"


def _json_line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _operator_pair(args) -> tuple[UnitaryOperator, UnitaryOperator]:
    v = resolve_operator(args.v, args.dim)
    w = resolve_operator(args.w, args.dim)
    if v.dim != w.dim:
        raise UsageError(f"dimension mismatch: --v is {v.dim}-dimensional, --w is {w.dim}")
    return v, w


def cmd_bound(args) -> str:
    """``bound``, ``povm-bound`` and ``mes-bound``: each sets its resolver and bound function."""
    v, w = _operator_pair(args)
    b = args.bound(args.resolve(args.measurement, v.dim), v, w, _base(args))
    return _json_line({f"bound_{_unit(args)}": b.value, "argmax": list(b.argmax)})


def cmd_entropy(args) -> str:
    v, w = _operator_pair(args)
    m = resolve_projective(args.measurement, v.dim)
    t = Tester.projective(resolve_input(args.input, m), m)
    base = _base(args)
    hv, hw = [shannon_entropy(outcome_distribution(t, u), base).value for u in (v, w)]
    unit = _unit(args)
    return _json_line(
        {
            f"pair_uncertainty_{unit}": hv + hw,  # as pair_uncertainty sums them
            f"h_v_{unit}": hv,
            f"h_w_{unit}": hw,
        }
    )


def cmd_sweep(args):
    """The rendering as an iterator of text blocks, over a surface already computed and checked."""
    surface = su2_overlap_surface(args.pair, args.grid)
    log.info(
        "sweep %s over %d points, closed-form deviation %.3e",
        args.pair, len(surface), surface.max_deviation,
    )
    if args.output == "json":
        return sweep_json_blocks(surface)
    return sweep_csv_blocks(surface)


def cmd_search(args) -> str:
    v, w = _operator_pair(args)
    m = resolve_projective(args.measurement, v.dim)
    report = search_min_uncertainty(
        m, v, w, budget=args.budget, seed=args.seed, restarts=args.restarts, base=_base(args)
    )
    unit = _unit(args)
    amps = report.tester.input.amplitudes
    return _json_line(
        {
            f"achieved_{unit}": report.achieved.value,
            f"bound_{unit}": report.bound.value,
            f"gap_{unit}": report.gap,
            "trivial": report.trivial,
            "method": report.method,
            "input_re": amps.real.tolist(),
            "input_im": amps.imag.tolist(),
        }
    )


def _resolve_basis(spec: str, dim: int | None) -> UnitaryBasis:
    """The comma-separated operators of ``spec``; ``UnitaryBasis`` refuses a count not d or d²."""
    return UnitaryBasis(tuple(resolve_operator(name, dim) for name in spec.split(",") if name))


def cmd_muub_check(args) -> str:
    b1 = _resolve_basis(args.basis1, args.dim)
    b2 = _resolve_basis(args.basis2, args.dim)
    cert = muub_certify_by_saturation(
        b1, b2, tol=args.tol, budget=args.budget, restarts=args.restarts, seed=args.seed
    )
    return _json_line({"certified": cert.certified, "kappa": cert.kappa})


def cmd_distinguish(args) -> str:
    v, w = _operator_pair(args)
    return _json_line({"distinguishable": is_perfectly_distinguishable(v, w, args.tol)})


def cmd_game(args) -> str:
    v, w = _operator_pair(args)
    m = resolve_projective(args.measurement, v.dim)
    t = Tester.projective(resolve_input(args.input, m), m)
    cfg = GameConfig(
        tester=t, v=v, w=w, trials=args.trials, seed=args.seed, operator_bias=args.bias
    )
    transcript = run_game(cfg)
    if args.output == "csv":
        rows = enumerate(zip(transcript.counts_v.tolist(), transcript.counts_w.tolist()))
        return "outcome,count_v,count_w\n" + "".join(f"{k},{a},{b}\n" for k, (a, b) in rows)
    return transcript_to_json(transcript) + "\n"


def _add_common(p: argparse.ArgumentParser, *, log_base: bool = True) -> None:
    """--v, --w and --dim; --log-base only for subcommands that print entropies."""
    p.add_argument("--v", required=True, help="first operator (name or JSON path)")
    p.add_argument("--w", required=True, help="second operator (name or JSON path)")
    p.add_argument("--dim", type=int, help=DIM_HELP)
    if log_base:
        p.add_argument("--log-base", choices=("2", "e"), default="2")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="utp",
        description="Entropic uncertainty of unitary-operator pairs under quantum testers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="projective measurement-only entropic bound")
    _add_common(p)
    p.add_argument("--measurement", required=True)
    p.set_defaults(func=cmd_bound, resolve=resolve_projective, bound=projective_bound)

    p = sub.add_parser("entropy", help="pair uncertainty of a concrete tester")
    _add_common(p)
    p.add_argument("--measurement", required=True)
    p.add_argument("--input", required=True, help="input state: chi:K, e:K, or JSON path")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="overlap surface over the (theta, phi) grid")
    p.add_argument("--pair", required=True, choices=("i-sigmay", "i-omega"))
    p.add_argument("--grid", type=int, default=101, help="points per axis")
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search", help="minimize pair uncertainty over pure inputs")
    _add_common(p)
    p.add_argument("--measurement", required=True)
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("muub-check", help="mutual unbiasedness of two unitary bases")
    p.add_argument("--basis1", required=True, help="comma-separated operator names")
    p.add_argument("--basis2", required=True)
    p.add_argument("--dim", type=int, help=DIM_HELP)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_muub_check)

    p = sub.add_parser("distinguish", help="single-shot perfect distinguishability")
    _add_common(p, log_base=False)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("game", help="Monte Carlo guessing game")
    _add_common(p, log_base=False)
    p.add_argument("--measurement", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", type=float, default=0.5)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("povm-bound", help="POVM entropic bound")
    _add_common(p)
    p.add_argument("--measurement", required=True, help="projective name or POVM JSON path")
    p.set_defaults(func=cmd_bound, resolve=resolve_povm, bound=povm_bound)

    p = sub.add_parser("mes-bound", help="MES-measurement entropic bound")
    _add_common(p)
    p.add_argument("--measurement", default="bell", help="bell (default) or JSON path")
    p.set_defaults(func=cmd_bound, resolve=resolve_mes, bound=mes_bound)

    return parser


def _configure_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("UTP_LOG", "quiet").lower(), logging.WARNING
    )
    # rebuild the handler each invocation so it tracks the current stderr
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False


def run(argv) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code or 0)
    try:
        output = args.func(args)
        for block in [output] if isinstance(output, str) else output:
            sys.stdout.write(block)
    except (InvariantError, ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError included; a LinAlgError exits 1 above
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early, as `utp sweep | head` does; stdout goes to devnull so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
