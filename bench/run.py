"""Solver benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload cold_presets --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy, and BLAS/OpenMP threads are
pinned to 1. The run loads the workload (the timed set-up), then solves
whole rounds of the workload's operations for about ``--seconds`` (at least
one round; no round that would end past it), checking every solution after
its round. Solve times are process CPU time scaled to a reference machine
speed, measured beside each solve (``reference.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. A record with the machine and library versions goes to
``bench/out/``.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def _import_program() -> None:
    """Import ``nestrod`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import nestrod
    except ImportError as exc:
        sys.exit(f"bench: cannot import nestrod from {SRC}: {exc}")
    where = Path(nestrod.__file__).resolve().parent.parent
    if where != SRC.resolve():
        sys.exit(f"bench: imported nestrod from {where}, not from {SRC}")


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu,
            "cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


class Run:
    """Whole rounds of one workload, with the checks of every round."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds = []        # per round: list of workload Op
        self.failures = []      # check failures, as messages

    def solve_rounds(self, budget: float, context=contextlib.nullcontext):
        """Solve one round, then more while another one (as long as the last,
        checks included) still ends within ``budget`` wall seconds. Each
        round runs inside ``context()`` and is checked outside it. Returns
        the rounds solved."""
        done = []
        start = time.perf_counter()
        last = 0.0
        while not done or time.perf_counter() - start + last <= budget:
            begun = time.perf_counter()
            with context():
                ops = self.workload.round()
            done.append(ops)
            try:
                self.failures += self.workload.check(ops)
            except Exception as exc:  # a check that crashes is a failed check
                self.failures.append(f"check raised {type(exc).__name__}: {exc}")
            last = time.perf_counter() - begun
        self.rounds += done
        return done

    @property
    def ops(self):
        return [op for ops in self.rounds for op in ops]


def round_seconds(rounds) -> float:
    """Median over rounds of the summed scaled solve time of a round."""
    return statistics.median(sum(op.scaled for op in ops) for ops in rounds)


def solve_medians(rounds) -> list[float]:
    """Each operation of a round at its median scaled time over rounds."""
    return [statistics.median(ops[i].scaled for ops in rounds)
            for i in range(len(rounds[0]))]


def timed(run: Run, seconds: float, setup_s: float) -> dict:
    run.solve_rounds(seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solves = solve_medians(run.rounds)
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (round_seconds(run.rounds), "s"),
        "solve_p50_s": (statistics.median(solves), "s"),
        "solve_max_s": (max(solves), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def traced(run: Run, seconds: float) -> tuple[dict, list]:
    """Half the budget untraced, half traced; the traced half re-loads the
    workload once so the scenario layer is counted too."""
    from layers import Tracer, layer_metrics

    plain = run.solve_rounds(seconds / 2.0)
    tracer = Tracer()
    with tracer.installed():
        run.workload.load()
    traced_rounds = run.solve_rounds(seconds / 2.0, tracer.installed)
    reports = [op.solution.report for ops in traced_rounds for op in ops
               if op.solution is not None]
    metrics = {name: (value, unit) for name, unit, value
               in layer_metrics(tracer, reports, len(traced_rounds))}
    untraced_s = round_seconds(plain)
    traced_s = round_seconds(traced_rounds)
    metrics["trace.solve_s_untraced"] = (untraced_s, "s")
    metrics["trace.solve_s_traced"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_presets", "warm_track",
                                 "single_tube_draws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import reference
    from workloads import WORKLOADS

    solutions = OUT / "solutions" / args.workload
    solutions.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, solutions)
    workload.load()
    # CPU time since the process started: interpreter, imports, loading.
    setup_s = time.process_time()
    reference.kernel_pass()   # numpy's first-call costs, off the record

    run = Run(workload)
    absent = []
    if args.trace:
        metrics, absent = traced(run, args.seconds)
    else:
        metrics = timed(run, args.seconds, setup_s)

    errors = [op.error for op in run.ops if op.error is not None]
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "rounds": [[(op.label, op.seconds, op.passes) for op in ops]
                   for ops in run.rounds],
        "check_failures": run.failures, "errors": errors, "absent": absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in run.failures + errors + [f"absent: {a}" for a in absent]:
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(run.rounds)} rounds; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['cores']} x {env['cpu']}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.ops),
        "failed": len(errors),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
