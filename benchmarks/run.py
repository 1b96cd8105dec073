"""Pipeline benchmark for tnqc: phase recognition and digit recognition.

    python3 benchmarks/run.py --workload xxz-pipeline --seed 1 --seconds 60 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout and driven through ``tnqc.cli.main`` in this one process; each
timed phase is one CLI command.  After set-up the run repeats whole rounds of
the workload's commands and checks until another round would end past
``--seconds`` (at least one round), then prints the metrics and, as the last
line, one JSON object.

Other tenants slow this machine's hardware by up to about 60 % for seconds to
minutes, so a median over a run moves with their load.  Timings are therefore
taken near the machine's floor: a rate is a round's work of that phase over
the run's fastest round of that phase, and ``pipeline_s`` the run's fastest
round.  A fixed calibration loop (``calibration.py``), timed before each phase
of every round, measures how far above its floor the machine ran; the rates
and ``pipeline_s`` are scaled by the lower quartile of its times in the run
over its reference time, so that a run spent wholly in a slow spell reads
about the same as one that was not.  With ``--trace 1`` the public functions of every
tnqc layer are wrapped, the per-layer metrics are printed instead, and the
spans are written to ``benchmarks/runs/<workload>-trace/spans.jsonl``.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the machine has two cores, and a single-threaded program
# is the steadier one to time.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "prepare_items_per_s": "items/s",
    "train_examples_per_s": "examples/s",
    "eval_states_per_s": "states/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


class CommandFailed(RuntimeError):
    pass


class Runner:
    """Runs CLI commands and checks, counting what was attempted and what failed."""

    def __init__(self, cli, tracer, log, calibrate):
        self.cli = cli
        self.calibrate = calibrate
        self.tracer = tracer
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds: list[dict] = []  # per round: phase -> [(work units, seconds) per command]
        self.calibrations: list[float] = []  # seconds of the calibration loop, before each phase
        self._phase = None

    def command(self, phase, units: float, argv) -> str:
        """Run one timed ``tnqc`` command doing ``units`` of work; returns its stdout.

        A ``phase`` of None (a set-up warm-up) is not recorded.  Raises
        ``CommandFailed`` if the command exits non-zero.
        """
        if phase is not None and phase != self._phase:
            self.calibrations.append(self.calibrate())
            self.log.write(f"calibration loop {self.calibrations[-1]:.4f} s\n")
        self._phase = phase
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start every command from the same collector state
        self.tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash inside the program is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            self.tracer.active = False
        self.log.write(f"$ tnqc {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}-> {code} in {seconds:.4f} s\n")
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"tnqc {argv[0]} -> {code}: {err.getvalue().strip()}")
        if phase is not None:
            self.rounds[-1].setdefault(phase, []).append((units, seconds))
        return out.getvalue()

    def check(self, name, fn, *args):
        """Run one check; a rejected output marks the run incorrect."""
        self.attempted += 1
        try:
            return fn(*args)
        except AssertionError as exc:
            self.correct = False
            self.log.write(f"check {name} FAILED: {exc}\n")
            print(f"check {name} FAILED: {exc}", file=sys.stderr)
            return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import numpy  # noqa: F401
        import tnqc.cli as cli
    except ImportError as exc:
        print(f"cannot import the program from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(CHECKOUT):
        print(f"tnqc imported from {cli.__file__}, outside this checkout", file=sys.stderr)
        return 2
    from calibration import REFERENCE_S, calibrate
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = BENCH_DIR / "runs" / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    tracer = Tracer()  # records nothing unless installed
    with open(run_dir / "run.log", "w") as log:
        runner = Runner(cli, tracer, log, calibrate)
        workload = WORKLOADS[args.workload](run_dir, args.seed)
        calibrate(20)  # first-call costs of the calibration loop land in set-up
        try:
            workload.setup(runner)
        except CommandFailed as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            tracer.install()
        setup_s = time.perf_counter() - STARTED

        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            runner.rounds.append({})
            try:
                workload.round(runner)
            except CommandFailed as exc:
                print(exc, file=sys.stderr)
                runner.rounds.pop()
                break
            now = time.perf_counter()
            if now + (now - start) - begin > args.seconds:
                break
    rounds = runner.rounds
    if not rounds:
        print("no round completed; no metrics", file=sys.stderr)
        return 1
    # how much slower than the reference machine this one ran in the quieter
    # part of this run: a phase of 0.7 to 10 s rarely meets the quietest
    # moments that the fastest of a run's 0.35 s loops does, and their lower
    # quartile matches its fastest round better
    slowdown = statistics.quantiles(runner.calibrations, n=4, method="inclusive")[0] / REFERENCE_S
    pipeline_s = min(map(pipeline_seconds, rounds))

    if args.trace:
        tracer.write(run_dir / "spans.jsonl")
        unit = {"self_s": "s", "total_s": "s", "calls": "count", "rows": "rows"}
        metrics = {name: (value, unit[name.rsplit(".", 1)[1]])
                   for name, value in tracer.summary(len(rounds)).items()}
        metrics["bench.pipeline_s"] = (pipeline_s / slowdown, "s")
        metrics["bench.spans"] = (len(tracer.spans) / len(rounds), "count")
    else:
        metrics = {
            "setup_s": setup_s,
            "prepare_items_per_s": rate(rounds, "prepare") * slowdown,
            "train_examples_per_s": rate(rounds, "train") * slowdown,
            "eval_states_per_s": rate(rounds, "eval") * slowdown,
            "pipeline_s": pipeline_s / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{runner.attempted} operations, {runner.failed} failed, correct={runner.correct}")
    print(f"  calibration loop: fastest {min(runner.calibrations):.4f} s of {len(runner.calibrations)}, "
          f"slowdown {slowdown:.4f}; unscaled fastest round {pipeline_s:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def rate(rounds, phase: str) -> float:
    """Work per second of the phase in its fastest round: its commands' work over their summed time."""
    return max(sum(u for u, _ in r[phase]) / sum(t for _, t in r[phase]) for r in rounds)


def pipeline_seconds(round_: dict) -> float:
    return sum(seconds for commands in round_.values() for _, seconds in commands)


if __name__ == "__main__":
    sys.exit(main())
