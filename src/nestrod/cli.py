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


def _load(args) -> sc.Scenario:
    """Resolve the source argument: a file path or a bundled preset name."""
    overrides = list(args.set or [])
    if args.strategy:
        overrides.append(f"strategy={args.strategy}")
    source = args.source
    if source.endswith(".scn") or source.endswith(".json") or os.sep in source:
        return sc.load_scenario(source, args.placeholders, overrides)
    return sc.preset_scenario(source, args.placeholders, overrides)


def _options(scn: sc.Scenario, args):
    options = scn.options
    if getattr(args, "steps", None) is not None:
        options.steps_per_segment = args.steps
    return options


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


def _cmd_solve(args) -> int:
    scn = _load(args)
    options = _options(scn, args)
    for line in scn.placeholders:
        print(f"using placeholder: {line}")
    try:
        solution = shoot(scn.assembly, options)
    except NoConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        if exc.report is not None:
            out = _out_dir(args) / f"{scn.name}_failed.json"
            ex.write_json(out, {"format": "nestrod-failure",
                                "scenario": scn.name,
                                "digest": scn.digest,
                                "report": exc.report.as_dict()})
            print(f"failure report: {out}", file=sys.stderr)
        return 2
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
    kind, _, index_text = args.axis.partition(":")
    try:
        index = int(index_text)
    except ValueError:
        raise ValidationError(
            f"--axis takes tension:J or twist:I, got {args.axis!r}")
    if kind not in ("tension", "twist"):
        raise ValidationError(
            f"--axis takes tension:J or twist:I, got {args.axis!r}")

    scn = _load(args)
    for line in scn.placeholders:
        print(f"using placeholder: {line}")
    limit = (len(scn.assembly.tendons) if kind == "tension"
             else len(scn.assembly.tubes))
    if not 0 <= index < limit:
        raise ValidationError(
            f"--axis {args.axis}: index out of range (have {limit})")
    assembly = scn.assembly

    def set_point(value: float) -> None:
        if kind == "tension":
            assembly.tendons[index].tension = value
        else:
            assembly.base_twists[index] = math.radians(value)

    # Bad input at any point exits 1 before the first solve, as ``solve``.
    values = _sweep_values(args)
    for value in values:
        set_point(value)
        assembly.validate()
    rows = []
    warm = None
    for value in values:
        set_point(value)
        options = _options(scn, args)
        try:
            solution = shoot(assembly, options, initial_guess=warm)
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
    return 0 if all(r[1] for r in rows) else 2


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
    name = payload.get("scenario") or Path(args.payload).stem
    for path in _write_outputs(args, name, payload):
        print(f"wrote {path}")
    return 0


def _add_source_options(p, steps=True):
    p.add_argument("source",
                   help="scenario file (.scn/.json) or bundled preset name")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override a scenario entry, e.g. tube.1.length_mm=180")
    p.add_argument("--placeholders", action="store_true",
                   help="accept documented placeholder values")
    p.add_argument("--strategy", choices=("outermost", "terminating"),
                   help="override the load-attachment strategy")
    if steps:
        p.add_argument("--steps", type=int, metavar="N",
                       help="integration steps per segment")
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
