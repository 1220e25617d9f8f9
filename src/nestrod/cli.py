"""Command-line front end.

    nestrod solve two_tube_0 --placeholders --svg
    nestrod solve my_robot.scn --set tendon.0.tension_N=4
    nestrod sweep two_tube_90 --placeholders --axis tension:1 --to 5 --num 11
    nestrod preset            # list what ships with the package
    nestrod validate --scenarios
    nestrod export out/two_tube_0.json --csv

Exit codes: 0 success, 1 bad input or failed validation, 2 solver did not
converge (the failure report is still written).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import export as ex
from . import scenario as sc
from .errors import (NestrodError, NoConvergence, PlaceholderOptIn,
                     ValidationError)
from .oracles import run_validate
from .shooting import shoot

_PLACEHOLDER_HINT = "pass --placeholders to accept the documented stand-ins"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("NESTROD_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _plain_name(name) -> str:
    """``name`` if it is a plain file name, so every output named after it
    stays in the output directory; else :class:`ValidationError`."""
    if not isinstance(name, str) or name in ("", ".", "..") \
            or any(c in name for c in "/\\\0"):
        raise ValidationError(f"scenario name {name!r} is not a plain file "
                              "name, and outputs are named after it")
    return name


def _load(args) -> sc.Scenario:
    """The scenario of a file path or bundled preset name, its placeholders
    named. Each setting is an override; ``--strategy`` and ``--steps`` come
    after the ``--set`` ones, so they win over a ``--set`` of the same key."""
    overrides = list(args.set or [])
    if args.strategy:
        overrides.append(f"strategy={args.strategy}")
    if args.steps is not None:
        overrides.append(f"solver.steps_per_segment={args.steps}")
    source = args.source
    load = sc.load_scenario if source.endswith((".scn", ".json")) \
        or os.sep in source else sc.preset_scenario
    scn = load(source, args.placeholders, overrides)
    _plain_name(scn.name)
    for line in scn.placeholders:
        print(f"using placeholder: {line}")
    return scn


def _write_outputs(args, name: str, payload: dict) -> list[str]:
    out = _out_dir(args)
    written = [str(out / f"{name}.json")]
    ex.write_json(written[0], payload)
    if args.csv:
        written.append(str(out / f"{name}.csv"))
        ex.write_csv(written[-1], payload)
    if args.svg:
        written.append(str(out / f"{name}.svg"))
        ex.write_svg(written[-1], payload)
    return written


def _write_failure(args, stem: str, record: dict) -> int:
    """Write ``record`` to ``<stem>_failed.json``; a failed solve exits 2."""
    out = _out_dir(args) / f"{stem}_failed.json"
    ex.write_json(out, record)
    print(f"failure report: {out}", file=sys.stderr)
    return 2


def _cmd_solve(args) -> int:
    scn = _load(args)
    try:
        solution = shoot(scn.assembly, scn.options)
    except NoConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return _write_failure(args, scn.name, {
            "format": "nestrod-failure", "scenario": scn.name,
            "digest": scn.digest, "report": exc.report.as_dict()})
    payload = ex.solution_payload(solution)
    payload["scenario"] = scn.name
    payload["digest"] = scn.digest
    tip = solution.tip_position
    rep = solution.report
    print(f"{scn.name}: converged in {rep.iterations} iterations "
          f"({rep.continuation_steps} Newton solves), "
          f"residual {rep.scaled_residual:.3g} of tolerance")
    print(f"tip [m]: {tip[0]:.6f} {tip[1]:.6f} {tip[2]:.6f}")
    for path in _write_outputs(args, scn.name, payload):
        print(f"wrote {path}")
    return 0


def _sweep_values(args) -> list[float]:
    if args.num < 2:
        raise ValidationError("--num must be at least 2")
    lo, hi = args.start, args.stop
    return [lo + (hi - lo) * i / (args.num - 1) for i in range(args.num)]


def _cmd_sweep(args) -> int:
    kind, _, index = args.axis.partition(":")
    if kind not in ("tension", "twist") or not index.isdecimal():
        raise ValidationError(
            f"--axis takes tension:J or twist:I, got {args.axis!r}")
    index = int(index)

    scn = _load(args)
    # Each point is an override, and all are built first: bad input at any
    # point exits 1 before the first solve, as ``solve``.
    path = (f"tendon.{index}.tension_N" if kind == "tension"
            else f"tube.{index}.base_twist_deg")
    points = [(value, sc.build_scenario(scn.tree, args.placeholders,
                                        [f"{path}={value!r}"]))
              for value in _sweep_values(args)]
    rows, failed = [], []
    warm = None
    for value, point in points:
        try:
            solution = shoot(point.assembly, point.options, initial_guess=warm)
            warm = solution.guess
            tip = solution.tip_position
            rows.append((value, 1, solution.report.iterations,
                         tip[0], tip[1], tip[2],
                         solution.report.scaled_residual))
            print(f"{kind}[{index}] = {value:10.4f}  tip "
                  f"{tip[0]: .6f} {tip[1]: .6f} {tip[2]: .6f}")
        except NoConvergence as exc:
            rows.append((value, 0, 0,
                         math.nan, math.nan, math.nan, math.nan))
            failed.append({"value": value, "digest": point.digest,
                           "report": exc.report.as_dict()})
            print(f"{kind}[{index}] = {value:10.4f}  FAILED: {exc}")
    out = _out_dir(args) / f"{scn.name}_sweep.csv"
    unit = "N" if kind == "tension" else "deg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# sweep of {kind}[{index}] on {scn.name} ({unit})\n")
        fh.write("value,converged,iterations,tip_x,tip_y,tip_z,"
                 "scaled_residual\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    print(f"wrote {out}")
    if not failed:
        return 0
    return _write_failure(args, f"{scn.name}_sweep", {
        "format": "nestrod-sweep-failure", "scenario": scn.name,
        "axis": args.axis, "points": failed})


def _cmd_preset(args) -> int:
    if not args.name:
        for name in sc.preset_names():
            scn = sc.preset_scenario(name, allow_placeholders=True)
            tag = (f"{len(scn.placeholders)} placeholders"
                   if scn.placeholders else "complete")
            print(f"{name:32s} {len(scn.assembly.tubes)} tubes, "
                  f"{len(scn.assembly.tendons)} tendons  [{tag}]")
        return 0
    scn = sc.preset_scenario(args.name, allow_placeholders=True)
    sys.stdout.write(sc.canonical_json(scn.tree) if args.json
                     else scn.canonical)
    print(f"# digest sha256:{scn.digest}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    report = run_validate(mutation=args.mutation,
                          include_scenarios=args.scenarios)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    payload = ex.read_payload(args.payload)
    name = _plain_name(payload.get("scenario", Path(args.payload).stem))
    for path in _write_outputs(args, name, payload):
        print(f"wrote {path}")
    return 0


def _add_source_options(p):
    p.add_argument("source",
                   help="scenario file (.scn/.json) or bundled preset name")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override a scenario entry, e.g. tube.1.length_mm=180")
    p.add_argument("--placeholders", action="store_true",
                   help="accept documented placeholder values")
    p.add_argument("--strategy", choices=("outermost", "terminating"),
                   help="override the load-attachment strategy")
    p.add_argument("--steps", type=int, metavar="N",
                   help="integration steps per segment, short for "
                        "--set solver.steps_per_segment=N")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default $NESTROD_OUT_DIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestrod",
        description="Statics of tendon-actuated nested-tube robots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one scenario and export the shape")
    _add_source_options(p)
    p.add_argument("--csv", action="store_true", help="also write CSV")
    p.add_argument("--svg", action="store_true", help="also write SVG views")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="re-solve along one actuation axis")
    _add_source_options(p)
    p.add_argument("--axis", required=True, metavar="KIND:INDEX",
                   help="tension:J (tendon J, newtons) or "
                        "twist:I (tube I, degrees)")
    p.add_argument("--from", dest="start", type=float, default=0.0,
                   metavar="A", help="first value (default 0)")
    p.add_argument("--to", dest="stop", type=float, required=True,
                   metavar="B", help="last value")
    p.add_argument("--num", type=int, default=11, metavar="N",
                   help="number of points (default 11)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("preset", help="list or print bundled scenarios")
    p.add_argument("name", nargs="?", help="preset to print (omit to list)")
    p.add_argument("--json", action="store_true",
                   help="print the canonical JSON twin")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("validate", help="run the built-in cross-checks")
    p.add_argument("--mutation", type=float, default=1.0, metavar="F",
                   help="stiffness mutation factor (1.0 = healthy)")
    p.add_argument("--scenarios", action="store_true",
                   help="also solve every bundled scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("export", help="re-export a saved solution payload")
    p.add_argument("payload", help="JSON file written by 'nestrod solve'")
    p.add_argument("--csv", action="store_true", help="also write CSV")
    p.add_argument("--svg", action="store_true", help="also write SVG views")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default $NESTROD_OUT_DIR or .)")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        if isinstance(exc, PlaceholderOptIn):
            print(f"hint: {_PLACEHOLDER_HINT}", file=sys.stderr)
        return 1
    except (NestrodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
