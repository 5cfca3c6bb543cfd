"""modalmr benchmark: end-to-end CLI timings, or a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload learning_curve --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's ``modalmr`` commands as child processes,
one at a time (a closed loop with one client), repeating them for
``--seconds`` and reporting the medians of the end-to-end metrics named in
BENCHMARK.json, with timings scaled by a machine-speed probe (``probe.py``).  ``--trace 1`` runs the same commands in-process through
``modalmr.cli.main``, alternating untraced and traced repetitions, and
reports the per-layer metrics.  Both modes first run the workload once
in-process at the reference seed and compare its results with
``reference.json``; any failed check makes ``correct`` false and the exit
code 1.

The last line of standard output is the JSON result.  The line before it
holds the run's context (cores, BLAS, versions, git sha, seed).  Results
and spans are also written under ``.bench_out/``; working files go to
``.bench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# BLAS may use every core of this process's CPU set, and no more.  The
# variables must be set before numpy is first imported, just below.
BLAS_ENV = {var: str(NPROC) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics, traced  # noqa: E402
from workloads import (  # noqa: E402
    QUALITY_NAMES,
    REFERENCE_SEED,
    WORKLOADS,
    Evaluation,
    Outcome,
    compare_to_reference,
)

# At least this many start-up samples per run, one before each repeat.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Every child must finish before this many seconds into the run, so the run
# ends well within its 180-second limit.
RUN_DEADLINE_S = 170.0
# The installed console script's body: the CLI exactly as a user starts it.
ENTRY = "import sys; from modalmr.cli import main; sys.exit(main())"
# A shared machine's speed drifts with the load others put on it, by as much
# as 1.5x over minutes.  probe.py, which runs no modalmr code, runs before
# each repeat; end-to-end timings are scaled by PROBE_REF_S over the probe's
# median, i.e. to a machine on which the probe takes PROBE_REF_S seconds
# (about its time on a lightly loaded 2-core OpenBLAS host).
PROBE_REF_S = 1.5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import modalmr.cli; "
    "print(time.perf_counter() - t)"
)
# Reported for a quality metric the workload does not produce.
NOT_PRODUCED = 1.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MODALMR_LOG", "PYTHONPATH")}
    env.update(BLAS_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_sha": _git_sha(),
    }


class Runner:
    """Runs CLI commands as child processes, each killed at the run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def child(self, argv: list, workdir: Path):
        """Run one command as a child process; wall time and peak RSS via wait4."""
        out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=workdir)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"command failed ({proc.returncode}): {argv[3:]}\n")
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return Outcome(argv[3:], proc.returncode, out_path.read_text(), wall,
                       usage.ru_maxrss / 1024.0)

    def cli_child(self, args: list, workdir: Path):
        return self.child([sys.executable, "-c", ENTRY, *args], workdir)


def run_in_process(cli, args: list):
    """Run one command through modalmr.cli.main in this process."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(args))
    except Exception:  # a crash is a failed command; keep running to report it
        traceback.print_exc()
        code = 3
    return Outcome(list(args), code, buffer.getvalue(), time.perf_counter() - start)


def _evaluate(workload, workdir: Path, outcomes: list):
    """Check one pass of a workload's commands; never raises on bad output."""
    codes = [o.code for o in outcomes]
    if any(codes):
        return Evaluation(problems=[f"exit codes {codes}"])
    try:
        return workload.evaluate(workdir, outcomes)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Evaluation(problems=[f"unreadable output: {exc!r}"])


def reference_pass(workload, workdir: Path):
    """Run the workload once in-process at the reference seed and check it."""
    import modalmr.cli as cli

    workdir.mkdir()
    commands = workload.commands(workdir, REFERENCE_SEED)
    return _evaluate(workload, workdir, [run_in_process(cli, c) for c in commands])


def _reference_problems(workload, workdir: Path) -> list:
    evaluation = reference_pass(workload, workdir)
    if evaluation.problems:
        return evaluation.problems
    reference = json.loads((BENCH / "reference.json").read_text())
    if reference["seed"] != REFERENCE_SEED:
        return ["reference.json was written for another seed"]
    return compare_to_reference(workload, evaluation.summary,
                                reference["workloads"][workload.name])


def _median(values) -> float:
    return float(statistics.median(values))


def _setup_sample(runner: Runner, workdir: Path, problems: list) -> float:
    """Wall time of `modalmr --version`: interpreter start plus every import."""
    outcome = runner.cli_child(["--version"], workdir)
    if outcome.code != 0 or not outcome.stdout.startswith("modalmr "):
        problems.append(f"--version failed: {outcome.stdout!r}")
    return outcome.wall_s


def _probe_sample(runner: Runner, workdir: Path, problems: list) -> float:
    """Wall time of the speed probe, which runs no modalmr code."""
    outcome = runner.child([sys.executable, str(BENCH / "probe.py")], workdir)
    if outcome.code != 0:
        problems.append("speed probe failed")
    return outcome.wall_s


def run_end_to_end(workload, args, runner: Runner, workdir: Path) -> dict:
    """Child-process timings: the end-to-end metrics."""
    problems, attempted, failed = [], 0, 0
    problems += _reference_problems(workload, workdir / "reference")

    run_dir = workdir / "run"
    run_dir.mkdir()
    commands = workload.commands(run_dir, args.seed)
    probes, setup, walls, peaks, quality = [], [], [], [], {}
    began = time.monotonic()
    while not walls or time.monotonic() - began < args.seconds:
        # Probe and start-up samples are spread over the run, like the
        # repeats they are compared with, so all see the same machine load.
        probes.append(_probe_sample(runner, workdir, problems))
        setup.append(_setup_sample(runner, workdir, problems))
        outcomes = [runner.cli_child(c, run_dir) for c in commands]
        evaluation = _evaluate(workload, run_dir, outcomes)
        attempted += len(outcomes)
        failed += sum(o.code != 0 for o in outcomes) + evaluation.failed_fits
        problems += evaluation.problems
        quality = quality or evaluation.quality
        walls.append([o.wall_s for o in outcomes])
        peaks.append(max(o.maxrss_mb for o in outcomes))
    while len(setup) < SETUP_REPEATS:
        probes.append(_probe_sample(runner, workdir, problems))
        setup.append(_setup_sample(runner, workdir, problems))

    speed = PROBE_REF_S / _median(probes)
    # The sum of each command's median: a burst of load during one command
    # of one repeat does not move it.
    wall = sum(_median(command) for command in zip(*walls))
    values = {
        "wall_s": wall * speed,
        "setup_s": _median(setup) * speed,
        "peak_rss_mb": _median(peaks),
        "success_fraction": 1.0 - failed / attempted,
        **{name: quality.get(name, NOT_PRODUCED) for name in QUALITY_NAMES},
    }
    return {"values": values, "problems": problems, "attempted": attempted,
            "failed": failed, "samples": {"command_wall_s": walls, "setup_s": setup,
                                          "probe_s": probes}}


def run_traced(workload, args, runner: Runner, workdir: Path) -> dict:
    """In-process runs, alternating untraced and traced: the per-layer metrics."""
    problems, attempted, failed = [], 0, 0
    import_times = []
    for _ in range(IMPORT_REPEATS):
        outcome = runner.child([sys.executable, "-c", IMPORT_PROBE], workdir)
        if outcome.code != 0:
            problems.append("importing modalmr.cli failed")
            continue
        import_times.append(float(outcome.stdout))

    problems += _reference_problems(workload, workdir / "reference")
    import modalmr.cli as cli

    run_dir = workdir / "run"
    run_dir.mkdir()
    commands = workload.commands(run_dir, args.seed)
    tracer = Tracer()
    plain_walls, traced_walls, per_iteration = [], [], []
    began = time.monotonic()
    while not traced_walls or time.monotonic() - began < args.seconds:
        for tracing in (False, True):
            first = len(tracer.spans)
            with traced(tracer) if tracing else contextlib.nullcontext():
                outcomes = []
                for command in commands:
                    tracer.request += 1
                    outcomes.append(run_in_process(cli, command))
            evaluation = _evaluate(workload, run_dir, outcomes)
            attempted += len(outcomes)
            failed += sum(o.code != 0 for o in outcomes) + evaluation.failed_fits
            problems += evaluation.problems
            wall = sum(o.wall_s for o in outcomes)
            if tracing:
                traced_walls.append(wall)
                per_iteration.append(layer_metrics(tracer.spans, first))
            else:
                plain_walls.append(wall)
    problems += tracer.problems

    values = {name: _median(m[name] for m in per_iteration) for name in per_iteration[0]}
    values["cli.import_s"] = _median(import_times) if import_times else 0.0
    values["trace.inprocess_wall_s"] = _median(plain_walls)
    values["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    spans_path = _out_dir() / f"spans-{workload.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "request", "attrs"],
        "spans": tracer.to_json(),
    }))
    return {"values": values, "problems": problems, "attempted": attempted,
            "failed": failed, "samples": {"untraced_wall_s": plain_walls,
                                          "traced_wall_s": traced_walls,
                                          "import_s": import_times}}


def _out_dir() -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out


def _select(spec_metrics: list, values: dict, problems: list) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    selected = {}
    for metric in spec_metrics:
        if metric["name"] not in values:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        selected[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return selected


def write_reference() -> int:
    """Run every workload at the reference seed; store the results."""
    stored = {"seed": REFERENCE_SEED, "workloads": {}}
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, workload in WORKLOADS.items():
            evaluation = reference_pass(workload, workdir / name)
            if evaluation.problems:
                print(f"{name}: {evaluation.problems}", file=sys.stderr)
                return 1
            stored["workloads"][name] = evaluation.summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(stored, indent=1) + "\n")
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "modalmr" / "cli.py").is_file():
        print(f"error: no modalmr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    args = _parse(argv)
    if args.write_reference:
        return write_reference()

    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    runner = Runner(deadline=time.monotonic() + RUN_DEADLINE_S)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            measured = run_traced(workload, args, runner, workdir)
        else:
            measured = run_end_to_end(workload, args, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    problems = measured["problems"]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = _select(section, measured["values"], problems)
    context = {**_context(args), "samples": measured["samples"]}
    result = {
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    (_out_dir() / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
