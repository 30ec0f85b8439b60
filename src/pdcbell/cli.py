"""Command-line surface over the simulation library.

Commands map one-to-one onto library calls and only serialize their
results; no computation lives here.  Exit codes: 0 success (and feasible
for lhv-check), 2 malformed input, 3 infeasible (lhv-check only), 4
violated internal invariant.

Angles always carry an explicit ``deg`` or ``rad`` suffix; bare numbers are
rejected to prevent unit mistakes.  Each input is checked by the value it
builds (``PolarizerAngle``, ``ChshSettings.parse``, the JSON objects' closed
keys).  Relative ``--out`` paths resolve under ``$PDCBELL_OUT_DIR`` when that
variable is set.  A failed write, to ``--out`` or to stdout, exits 2.

Each command loads only the layers it runs: the state, table, CHSH and
angle-search layers are imported here, while ``lhv`` (only lhv-check needs
it) and ``montecarlo`` (only simulate and analyze) are imported on first
use.  ``lhv_feasible``, ``run_experiment`` and ``estimate_correlators`` are
the first-use wrappers, module-level names that a tracer can patch here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bell import ChshSettings, chsh_decomposition, optimize_angles
from .errors import InputError, PdcBellError
from .fock import StateVector, occupation_key
from .measurement import PolarizerAngle, joint_distribution
from .optics import PairAmplitude, attach_vacuum, build_experiment_state, split_by_locality

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4

OUT_DIR_ENV = "PDCBELL_OUT_DIR"


def lhv_feasible(*args, **kwargs):
    """lhv.lhv_feasible, imported on first use, so only lhv-check loads the lhv layer.
    A module-level name because ``perfbench/workloads.py::_patch_program`` reads
    ``vars(cli)["lhv_feasible"]``."""
    from .lhv import lhv_feasible as feasible

    return feasible(*args, **kwargs)


def run_experiment(*args, **kwargs):
    """montecarlo.run_experiment, imported on first use, so only simulate and analyze load
    the montecarlo layer.  A module-level name because
    ``perfbench/workloads.py::_patch_program`` reads ``vars(cli)["run_experiment"]``."""
    from .montecarlo import run_experiment as run

    return run(*args, **kwargs)


def estimate_correlators(*args, **kwargs):
    """montecarlo.estimate_correlators, imported on first use (see ``run_experiment``).
    A module-level name because ``perfbench/workloads.py::_patch_program`` reads
    ``vars(cli)["estimate_correlators"]``."""
    from .montecarlo import estimate_correlators as estimate

    return estimate(*args, **kwargs)


def parse_angle(text: str) -> PolarizerAngle:
    """An angle with a required deg/rad suffix."""
    text = text.strip().lower()
    for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
        if text.endswith(suffix):
            try:
                value = float(text[: -len(suffix)]) * factor
            except ValueError as exc:
                raise InputError(f"cannot parse angle {text!r}") from exc
            return PolarizerAngle(value)
    raise InputError(f"angle {text!r} needs an explicit 'deg' or 'rad' suffix")


def _checked_out(path: str | None, what: str = "") -> Path | None:
    """The resolved ``--out`` path, once it has opened for writing.

    Every command calls this after parsing its inputs and before its
    library call, so an unwritable path exits 2 before any work is done.
    The probe truncates nothing, and removes the file it had to create, so
    a command that fails later leaves no empty output behind.
    """
    if path is None:
        return None
    out = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not out.is_absolute():
        out = Path(base) / out
    existed = os.path.lexists(out)
    try:
        open(out, "ab").close()
    except OSError as exc:
        raise InputError(f"cannot write {what}{out}: {exc}") from exc
    if not existed:
        out.unlink()
    return out


def _emit(payload: dict | str, out: Path | None = None) -> None:
    """Write ``payload`` (a dict as JSON) to ``out`` or stdout; a failed write raises InputError.
    A failed stdout goes to the null device, so the flush at exit does not fail again."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    try:
        if out is None:
            print(text, flush=True)
        else:
            out.write_text(text + "\n")
    except OSError as exc:
        if out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InputError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _load_json(path: str) -> dict:
    """The JSON in ``path``; an unreadable file, bad bytes or too deep nesting raise InputError."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _prepared_state(p_pair: float) -> StateVector:
    """The experiment state with its vacuum term; at p_pair 1 that term has amplitude 0."""
    return attach_vacuum(build_experiment_state(), PairAmplitude.from_pair_probability(p_pair))


def cmd_state(args: argparse.Namespace) -> int:
    state = build_experiment_state()
    favorable, unfavorable = split_by_locality(state)
    lines = ["state at the detection stations (station 1 | station 2):"]
    for occ, amp in state.sorted_terms():
        lines.append(f"  {occupation_key(occ):<8} {amp.real:+.6f} {amp.imag:+.6f}j")
    lines.append(f"favorable weight:   {favorable.norm_squared():.6f}")
    lines.append(f"unfavorable weight: {unfavorable.norm_squared():.6f}")
    _emit("\n".join(lines))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    xi, eta = parse_angle(args.xi), parse_angle(args.eta)
    state = _prepared_state(args.p_pair)
    out = _checked_out(args.out)
    dist = joint_distribution(state, xi, eta)
    _emit(dist.to_json_dict(), out)
    return EXIT_OK


def cmd_chsh(args: argparse.Namespace) -> int:
    settings = ChshSettings.parse(args.settings.split(","), "--settings", parse_angle)
    state = _prepared_state(args.p_pair)
    out = _checked_out(args.out)
    result = chsh_decomposition(state, settings)
    _emit(result.to_json_dict(), out)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    state = _prepared_state(args.p_pair)
    out = _checked_out(args.out)
    settings, value = optimize_angles(state)
    _emit({"settings_rad": list(settings.as_radians()), "value": value}, out)
    return EXIT_OK


def cmd_lhv_check(args: argparse.Namespace) -> int:
    from .lhv import tables_from_json_dict, verdict_to_json_dict

    tables = tables_from_json_dict(_load_json(args.input))
    out = _checked_out(args.out)
    verdict = lhv_feasible(tables)
    _emit(verdict_to_json_dict(verdict), out)
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def cmd_simulate(args: argparse.Namespace) -> int:
    """Check the config (its own seed too), apply ``--seed``, check ``--out``, run and write."""
    from .montecarlo import RunConfig

    config = RunConfig.from_json_dict(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = _checked_out(args.out, "event log ")
    run_experiment(config).to_csv(out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    from .montecarlo import EventLog

    settings = args.settings
    if settings is not None:
        settings = ChshSettings.parse(settings.split(","), "--settings", parse_angle)
    out = _checked_out(args.out)
    report = estimate_correlators(EventLog.from_csv(args.input))
    payload = report.to_json_dict()
    if settings is not None:
        payload["settings_rad"] = list(settings.as_radians())
    _emit(payload, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcbell",
        description="Down-conversion Bell experiment: states, statistics, CHSH, "
        "local-model checks and counting runs.",
    )
    parser.add_argument("--version", action="version", version=f"pdcbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="print the prepared state and its block weights")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("table", help="joint outcome distribution for one setting pair")
    p.add_argument("--xi", required=True, help="station-1 analyzer angle, e.g. 22.5deg or 0.39rad")
    p.add_argument("--eta", required=True, help="station-2 analyzer angle")
    p.add_argument("--p-pair", type=float, default=1.0, dest="p_pair",
                   help="per-bin pair probability; below 1 adds the vacuum term")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chsh", help="CHSH value and block decomposition")
    p.add_argument("--settings", required=True,
                   help="xi,xi',eta,eta' with deg/rad suffixes, comma separated")
    p.add_argument("--p-pair", type=float, default=1.0, dest="p_pair")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("optimize", help="search the settings maximizing the CHSH value")
    p.add_argument("--p-pair", type=float, default=1.0, dest="p_pair")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("lhv-check", help="decide local-model feasibility of four tables")
    p.add_argument("--input", required=True, help="JSON file with the four tables")
    p.add_argument("--out", help="write the verdict JSON here instead of stdout")
    p.set_defaults(func=cmd_lhv_check)

    p = sub.add_parser("simulate", help="run the time-binned counting protocol")
    p.add_argument("--config", required=True, help="run configuration JSON file")
    p.add_argument("--out", required=True, help="event log CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate correlators and CHSH from an event log")
    p.add_argument("--input", required=True, help="event log CSV path")
    p.add_argument("--settings", help="optional xi,xi',eta,eta' echoed into the report")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PdcBellError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
