"""The benchmark's four workloads as in-process inputs, for the commands of
the README's performance ledger, run from the repository root:

    PYTHONPATH=src:tests python3 -m timeit -s "from workload_inputs import job; from iaarank.cli import _run; a = job('rank-many')" "_run(a)"

``job(name)`` writes the workload's seeded dataset (perfbench/workloads.py)
into a temporary folder removed at exit, and returns the parsed arguments of
its CLI job; ``dataset(name)`` is that dataset, loaded on the workloads'
scale without parsing any arguments.
"""

import atexit
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SCALE_MAX, SCALE_MIN, WORKLOADS, write_dataset  # noqa: E402

from iaarank import ScaleConfig, load_dataset  # noqa: E402
from iaarank.cli import _build_parser  # noqa: E402

_FOLDER = Path(tempfile.mkdtemp(prefix="iaarank-workloads-"))
atexit.register(shutil.rmtree, _FOLDER, True)


def _path(name: str, seed: int) -> Path:
    """The workload's seeded dataset file, written on first use."""
    path = _FOLDER / f"{name}-{seed}.csv"
    if not path.exists():
        write_dataset(WORKLOADS[name], seed, path)
    return path


def job(name: str, seed: int = 1):
    """The parsed CLI arguments of the workload's job on its seed's dataset;
    ``cli._run(args)`` runs its handler as ``cli.main`` does."""
    return _build_parser().parse_args(WORKLOADS[name].argv(_path(name, seed)))


def dataset(name: str, seed: int = 1):
    return load_dataset(_path(name, seed), ScaleConfig(SCALE_MIN, SCALE_MAX))
