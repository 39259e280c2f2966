"""The benchmark's own tests: result schema, checker and tracer. No timing bounds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checker import check, load_oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, dataset_csv, generate, write_dataset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_prints_every_metric(name, trace):
    done = run_bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in result["metrics"].values() if v["unit"] == "s")
    assert len(record["dataset_sha256"]) == 64
    assert {"python", "nproc", "git_sha", "src_lines"} <= set(record)


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "build-wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_same_seed_writes_same_dataset(tmp_path):
    workload = WORKLOADS["topsis-lattice"].tiny()
    _, first = write_dataset(workload, 7, tmp_path / "a.csv")
    _, again = write_dataset(workload, 7, tmp_path / "b.csv")
    _, other = write_dataset(workload, 8, tmp_path / "c.csv")
    assert first == again != other


def cli_output(workload, cells, tmp_path) -> bytes:
    from iaarank import cli

    dataset = tmp_path / "dataset.csv"
    dataset.write_bytes(dataset_csv(workload, cells))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workload.argv(dataset)) == 0
    return out.getvalue().encode()


def corrupt_height(payload):
    left, right, height = payload[0]["regions"][0]
    payload[0]["regions"][0] = [left, right, height / 2]


def corrupt_matrix(payload):
    payload["matrix"][0][1] += 1e-6


def swap_ranks(payload):
    first, last = payload["entries"][0], payload["entries"][-1]
    first["rank"], last["rank"] = last["rank"], first["rank"]


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("build-wide", corrupt_height),
        ("matrix-combined", corrupt_matrix),
        ("topsis-lattice", swap_ranks),
        ("rank-many", swap_ranks),
    ],
)
def test_checker_rejects_a_corrupted_output(name, corrupt, tmp_path):
    oracle = load_oracle(ROOT)
    workload = WORKLOADS[name].tiny()
    cells = generate(workload, 11)
    output = cli_output(workload, cells, tmp_path)
    assert check(workload, cells, output, oracle, 11) == []
    payload = json.loads(output)
    corrupt(payload)
    assert check(workload, cells, json.dumps(payload).encode(), oracle, 11) != []
    assert check(workload, cells, b"not json", oracle, 11) != []


def test_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def parent():
        child()
        child()
        time.sleep(0.01)

    tracer.wrap("parent", parent)()
    own = tracer.self_times()
    (_, start, end, _) = tracer.spans[0]
    total = (end - start) / 1e9
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert own["child"] >= 0.04 and own["parent"] >= 0.01
    assert abs(own["parent"] + own["child"] - total) < 1e-9


def test_floor_spans_are_not_counted():
    tracer = Tracer()
    entered = tracer.wrap("layer.entered", lambda: None)
    tracer.wrap("layer.skipped", lambda: None)
    tracer.floor()
    entered()
    assert tracer.calls() == {"layer.entered": 1}
    assert set(tracer.self_times()) == {"layer.entered", "layer.skipped"}
