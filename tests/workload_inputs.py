"""The benchmark's four workloads as in-process inputs, for the commands of
the README's performance ledger, run from the repository root:

    PYTHONPATH=src:tests python3 -m timeit -s "from workload_inputs import job; a = job('rank-many')" "a.handler(a)"

``job(name)`` writes the workload's seeded dataset (perfbench/workloads.py)
into a temporary folder removed at exit, and returns the parsed arguments of
its CLI job; ``dataset(name)`` is that dataset, loaded.
"""

import atexit
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, write_dataset  # noqa: E402

from iaarank import ScaleConfig, load_dataset  # noqa: E402
from iaarank.cli import _build_parser  # noqa: E402

_FOLDER = Path(tempfile.mkdtemp(prefix="iaarank-workloads-"))
atexit.register(shutil.rmtree, _FOLDER, True)


def job(name: str, seed: int = 1):
    """The parsed CLI arguments of the workload's job on its seed's dataset;
    ``args.handler(args)`` runs its handler as ``cli.main`` does."""
    workload = WORKLOADS[name]
    path = _FOLDER / f"{name}-{seed}.csv"
    if not path.exists():
        write_dataset(workload, seed, path)
    return _build_parser().parse_args(workload.argv(path))


def dataset(name: str, seed: int = 1):
    args = job(name, seed)
    return load_dataset(args.input, ScaleConfig(args.scale_min, args.scale_max))
