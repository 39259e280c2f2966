"""Seeded benchmark of the `iaarank` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, as a table

A run generates its dataset from the seed, writes it as CSV, and runs one
real CLI job on it repeatedly in a closed loop from a single client pinned to
one CPU: one job process at a time, each between two runs of a fixed
pure-Python calibration loop. Every job's stdout must match the run's first
job byte for byte, and the first job is checked against the brute-force
oracle in tests/oracle.py.

`--trace 0` reports the end-to-end metrics: job wall and CPU time divided by
the calibration around each job, the peak RSS of any job, and the set-up time
(generate, write, one warm-up job), repeated through the run and scaled the
same way to a reference speed. Raw seconds drift with the machine's load and
are only recorded. `--trace 1` instead runs the job in-process in fresh
interpreters (perfbench/spans.py), once plain and once with a span around
every library call, and reports per-layer self times and counts. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
record of the inputs and the environment the figures came from.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from checker import check, load_oracle
from workloads import WORKLOADS, Workload, write_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CPU = min(os.sched_getaffinity(0))

SETUP_EVERY = 4  # every 4th slot of the measured loop repeats the set-up
MIN_SAMPLES = 3  # jobs, set-ups or traced pairs per run, however short --seconds is
JOB_TIMEOUT_S = 150
CALIBRATION_ROUNDS = 3000
# Seconds one calibration loop took on the machine the benchmark was tuned on
# (2 vCPUs, Python 3.11); setup_s is expressed at that speed.
REFERENCE_CALIBRATION_S = 0.25

END_TO_END = {
    "job_rel.p50": "ratio",
    "job_cpu_rel.p50": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_TIMES = {  # per-layer metric -> span whose self time it reports
    "cli.other_s": "cli.main",
    "intervals.load_s": "intervals.load",
    "fuzzy.construct_s": "fuzzy.construct",
    "attributes.vector_s": "attributes.vector",
    "similarity.jaccard_s": "similarity.jaccard",
    "similarity.attribute_s": "similarity.attribute",
    "ranking.score_s": "ranking.score",
    "ranking.sort_s": "ranking.rank",
    "topsis.ideals_s": "topsis.ideals",
    "topsis.separations_s": "topsis.separations",
    "topsis.rank_s": "topsis.rank",
}
LAYER_COUNTS = (
    "intervals.rows",
    "fuzzy.cells",
    "fuzzy.breakpoints",
    "fuzzy.regions",
    "attributes.vectors",
    "similarity.jaccard_calls",
    "similarity.eval_points",
    "similarity.attribute_calls",
    "ranking.items",
)
UNITS = {
    **END_TO_END,
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.output_bytes": "bytes",
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "trace.overhead": "ratio",
}
LAYERS = ("cli", "intervals", "fuzzy", "attributes", "similarity", "ranking", "topsis")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, resource.struct_rusage]:
    """Run argv to completion; return (wall seconds, exit code, its rusage).

    stdout and stderr go to files, so nothing blocks on a pipe, and wait4
    gives the child's own CPU time and peak RSS.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout.with_suffix(".err")), flags, 0o644),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as exc:  # the timeout, or we are being stopped
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        if not isinstance(exc, JobTimeout):
            raise
    finally:
        signal.alarm(0)
    return time.perf_counter() - started, os.waitstatus_to_exitcode(status), usage


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that imports nothing.

    Jobs are divided by the calibration around them, which cancels drift in
    the machine's speed over the run.
    """
    started = time.perf_counter()
    state, total = 1, 0.0
    for _ in range(CALIBRATION_ROUNDS):
        values = []
        for _ in range(200):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            values.append(state / 2147483648.0)
        values.sort()
        total += sum(a * b for a, b in zip(values, values[1:]))
    if total <= 0:
        raise RuntimeError("calibration loop produced no work")
    return time.perf_counter() - started


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float


class Ledger:
    """Counts jobs attempted and failed; checks each output against the first."""

    def __init__(self, workload: Workload, cells, oracle, seed: int):
        self.workload, self.cells, self.oracle, self.seed = workload, cells, oracle, seed
        self.reference: bytes | None = None
        self.reference_problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, exit_code: int, output: bytes) -> None:
        self.attempted += 1
        if exit_code == 0 and self.reference is None:
            self.reference = output
            self.reference_problems = check(
                self.workload, self.cells, output, self.oracle, self.seed
            )
        if exit_code != 0:
            problem = f"exit code {exit_code}"
        elif output != self.reference:
            problem = "output differs from the run's first job"
        elif self.reference_problems:
            problem = "; ".join(self.reference_problems[:3])
        else:
            return
        self.failed += 1
        self.problems.append(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Bench:
    """One run of one workload inside its own working directory."""

    def __init__(self, workload: Workload, seed: int, oracle):
        self.workload, self.seed, self.oracle = workload, seed, oracle
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.dataset = self.dir / "dataset.csv"
        self.argv = workload.argv(self.dataset)
        self.jobs: list[Job] = []
        self.setups: list[float] = []
        self.sha256 = ""
        self.ledger: Ledger | None = None
        self.samples: dict = {}  # sample counts and raw figures for the record

    def job(self) -> tuple[int, bytes]:
        """Run the CLI job once; return its exit code and stdout."""
        out = self.dir / "job.out"
        wall, code, usage = spawn([sys.executable, "-m", "iaarank", *self.argv], out)
        self.jobs.append(Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024))
        return code, out.read_bytes()

    def setup(self) -> None:
        """Generate and write the dataset, then run one warm-up job; timed."""
        started = time.perf_counter()
        cells, sha256 = write_dataset(self.workload, self.seed, self.dataset)
        code, output = self.job()
        self.setups.append(time.perf_counter() - started)
        if self.ledger is None:
            self.ledger = Ledger(self.workload, cells, self.oracle, self.seed)
            self.sha256 = sha256
        elif sha256 != self.sha256:
            self.ledger.fail("the same seed wrote a different dataset")
        self.ledger.record(code, output)

    def end_to_end(self, seconds: float) -> dict:
        """Jobs in a closed loop, each one between two calibrations.

        Every SETUP_EVERY-th slot, the first included, runs the set-up
        instead of a job, so setup_s samples the machine over the whole run.
        Jobs and set-ups are divided by the mean of the calibrations on
        either side; setup_s turns that ratio back into seconds at
        REFERENCE_CALIBRATION_S, because raw set-up seconds drift with the
        machine's load by more than any bound.
        """
        deadline = time.perf_counter() + seconds
        measured, relative, cpu_relative, setup_relative = [], [], [], []
        calibrations = [calibrate()]
        slot = 0
        while (len(measured) < MIN_SAMPLES or len(self.setups) < MIN_SAMPLES
               or time.perf_counter() < deadline):
            is_setup = slot % SETUP_EVERY == 0
            slot += 1
            if is_setup:
                self.setup()
            else:
                self.ledger.record(*self.job())
            calibrations.append(calibrate())
            around = (calibrations[-2] + calibrations[-1]) / 2
            if is_setup:
                setup_relative.append(self.setups[-1] / around)
                continue
            job = self.jobs[-1]
            measured.append(job)
            relative.append(job.wall_s / around)
            cpu_relative.append(job.cpu_s / around)
        self.samples = {
            "jobs": len(measured),
            "setups": len(self.setups),
            "job_s.p50": median(job.wall_s for job in measured),
            "job_cpu_s.p50": median(job.cpu_s for job in measured),
            "setup_raw_s.p50": median(self.setups),
            "calibration_s.p50": median(calibrations),
            "job_s": [job.wall_s for job in measured],
            "setup_raw_s": self.setups,
            "calibration_s": calibrations,
        }
        return {
            "job_rel.p50": median(relative),
            "job_cpu_rel.p50": median(cpu_relative),
            "peak_rss_mb": max(job.rss_mb for job in self.jobs),
            "setup_s": median(setup_relative) * REFERENCE_CALIBRATION_S,
        }

    def spans_job(self, mode: str) -> dict | None:
        out = self.dir / f"{mode}.out"
        report = self.dir / f"{mode}.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "spans.py"), "--out", str(out),
                "--report", str(report), "--mode", mode, "--", *self.argv]
        _, code, _ = spawn(argv, self.dir / f"{mode}.log")
        result = json.loads(report.read_text()) if code == 0 and report.exists() else None
        output = out.read_bytes() if out.exists() else b""
        self.ledger.record(code if result is None else result["exit"], output)
        return result

    def traced(self, seconds: float) -> dict:
        deadline = time.perf_counter() + seconds
        plain, traced, attempts = [], [], 0
        while attempts < MIN_SAMPLES or time.perf_counter() < deadline:
            attempts += 1
            one, two = self.spans_job("plain"), self.spans_job("traced")
            if one is None or two is None:
                continue
            plain.append(one)
            traced.append(two)
            if two["counts"] != traced[0]["counts"]:
                self.ledger.fail("traced counts differ between samples")
        if not traced:
            raise RuntimeError("no traced sample completed")

        metrics = {
            "cli.import_s": median(r["import_s"] for r in plain),
            "cli.main_s": median(r["main_s"] for r in plain),
            "cli.output_bytes": len(self.ledger.reference or b""),
        }
        for metric, span in LAYER_TIMES.items():
            metrics[metric] = median(r["self_s"].get(span, 0.0) for r in traced)
        for metric in LAYER_COUNTS:
            metrics[metric] = traced[0]["counts"].get(metric, 0)
        metrics["trace.overhead"] = (
            median(r["main_s"] for r in traced) / metrics["cli.main_s"]
        )
        shares = defaultdict(list)
        for r in traced:
            layer_s = defaultdict(float)
            for span, seconds_ in r["self_s"].items():
                layer_s[span.split(".")[0]] += seconds_
            for layer in LAYERS:
                shares[layer].append(layer_s[layer] / r["main_s"])
        self.samples = {"traced_pairs": len(traced),
                        "layer_share.p50": {k: median(v) for k, v in shares.items()}}
        return metrics


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "iaarank").glob("*.py")))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, oracle):
    """(record, result) for one run of one workload."""
    bench = Bench(workload, seed, oracle)
    try:
        if trace:
            bench.setup()
            values = bench.traced(seconds)
        else:
            values = bench.end_to_end(seconds)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    ledger = bench.ledger
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    record = {
        "workload": workload.name,
        "seed": seed,
        "shape": workload.shape(),
        "command": ["iaarank", *workload.argv(Path("dataset.csv"))],
        "dataset_sha256": bench.sha256,
        "samples": bench.samples,
        "error_rate": ledger.failed / ledger.attempted,
        "problems": ledger.problems[:5],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": CPU,
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the iaarank CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny datasets: checks the schema, not the speed")
    options = parser.parse_args()

    missing = [p for p in (SRC / "iaarank" / "cli.py", ROOT / "tests" / "oracle.py")
               if not p.is_file()]
    if missing:
        print(f"error: not inside an iaarank checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and every process it starts, so a job and the
    # calibrations around it see the same contention and their ratio cancels
    # it. Unpinned on a shared 2-vCPU machine, they often ran on CPUs whose
    # speed differed by up to 40%, and the ratio did not help.
    os.sched_setaffinity(0, {CPU})
    oracle = load_oracle(ROOT)
    names = list(WORKLOADS) if options.workload == "all" else [options.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name].tiny() if options.quick else WORKLOADS[name]
        record, result = run_workload(
            workload, options.seed, options.seconds, bool(options.trace), oracle
        )
        results[name] = result
        print(json.dumps({"record": record}), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"{name}: error_rate {result['failed'] / result['attempted']:.6g} ratio")
        for metric, value in result["metrics"].items():
            print(f"{name}: {metric} {value['value']:.6g} {value['unit']}")
    return 0 if all(result["correct"] for result in results.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
