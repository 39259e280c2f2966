"""One in-process CLI job in a fresh interpreter, plain or traced.

    PYTHONPATH=src python3 spans.py --out OUT --report REPORT --mode plain -- ARGV...
    PYTHONPATH=src python3 spans.py --out OUT --report REPORT --mode traced -- ARGV...

`plain` times `import iaarank` and `cli.main(ARGV)`. `traced` runs the same
`cli.main(ARGV)` after wrapping every cross-module call the CLI handlers make
(the loader, construction, attributes, similarity, ranking and TOPSIS entry
points) in a span, so the handler itself decides which functions run and in
which order. Spans stay in memory; the report is written when the job ends.
Either mode writes the CLI's stdout to OUT and a JSON report to REPORT.
Each call runs in a fresh process so the attribute cache starts cold, as it
does in a CLI job.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index], plus layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.jaccard_operands: list[tuple] = []
        self.names: set[str] = set()
        self.floors = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(args, result) runs after it ends."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        self.names.add(name)

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def floor(self) -> None:
        """Record one empty span per span name before the job runs.

        A layer the job never enters then reports the tracer's floor, the
        cost of one empty span (well under a microsecond), instead of a
        constant 0. Call counts skip these spans.
        """
        for name in sorted(self.names):
            self.wrap(name, lambda: None)()
        self.floors = len(self.spans)

    def calls(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans[self.floors:])

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), ns in zip(self.spans, own):
            totals[name] += ns / 1e9
        return dict(totals)


def install(tracer: Tracer) -> None:
    """Wrap the library calls at every module boundary the CLI crosses."""
    from iaarank import attributes, cli, fuzzy, ranking, similarity, topsis

    counts = tracer.counts

    def count_rows(args, dataset):
        counts["intervals.rows"] += sum(cell.n for cell in dataset.cells.values())

    def count_number(args, fz):
        counts["fuzzy.cells"] += 1
        counts["fuzzy.breakpoints"] += len(fz.endpoints)
        counts["fuzzy.regions"] += len(fz.regions)

    def count_items(args, result):
        counts["ranking.items"] += len(args[0])

    def keep_operands(args, result):
        tracer.jaccard_operands.append((args[0], args[1]))

    vector = tracer.wrap("attributes.vector", attributes.attribute_vector)
    measure = tracer.wrap("similarity.measure", similarity.measure_similarity)
    construct = tracer.wrap("fuzzy.construct", fuzzy.construct_fuzzy, count_number)
    rank = {
        name: tracer.wrap("ranking.rank", getattr(ranking, name), count_items)
        for name in ("rank_universal", "rank_by_ideal_ratio", "rank_baseline_mean")
    }
    patches = {
        cli: {
            "load_dataset": tracer.wrap("intervals.load", cli.load_dataset, count_rows),
            "construct_fuzzy": construct,
            "attribute_vector": vector,
            "measure_similarity": measure,
            "topsis_rank": tracer.wrap("topsis.rank", cli.topsis_rank),
            **rank,
        },
        attributes: {"attribute_vector": vector},
        similarity: {
            "jaccard": tracer.wrap("similarity.jaccard", similarity.jaccard, keep_operands),
            "attribute_similarity": tracer.wrap(
                "similarity.attribute", similarity.attribute_similarity
            ),
        },
        ranking: {
            "attribute_vector": vector,
            "measure_similarity": measure,
            "ideal_ratio": tracer.wrap("ranking.score", ranking.ideal_ratio),
        },
        topsis: {
            "construct_fuzzy": construct,
            "measure_similarity": measure,
            "rank_universal": rank["rank_universal"],
            "select_ideals": tracer.wrap("topsis.ideals", topsis.select_ideals),
            "separations": tracer.wrap("topsis.separations", topsis.separations),
        },
    }
    for module, names in patches.items():
        for name, wrapper in names.items():
            setattr(module, name, wrapper)
    from_dataset = topsis.DecisionMatrix.from_dataset.__func__
    topsis.DecisionMatrix.from_dataset = classmethod(
        tracer.wrap("topsis.matrix", from_dataset)
    )


def traced_report(tracer: Tracer) -> dict:
    from iaarank.fuzzy import evaluation_points

    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = dict(tracer.counts)
    counts["attributes.vectors"] = calls["attributes.vector"]
    counts["similarity.jaccard_calls"] = calls["similarity.jaccard"]
    counts["similarity.attribute_calls"] = calls["similarity.attribute"]
    counts["similarity.eval_points"] = sum(
        len(evaluation_points(a, b)) for a, b in tracer.jaccard_operands
    )
    return {"self_s": self_s, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    started = time.perf_counter()
    import iaarank  # noqa: F401  (timed: the import a CLI job pays)
    import_s = time.perf_counter() - started
    from iaarank import cli

    tracer = Tracer()
    entry = cli.main
    if options.mode == "traced":
        install(tracer)
        entry = tracer.wrap("cli.main", cli.main)
        tracer.floor()
    with open(options.out, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        started = time.perf_counter()
        exit_code = entry(argv)
        main_s = time.perf_counter() - started

    report = {"exit": exit_code, "import_s": import_s, "main_s": main_s}
    if options.mode == "traced":
        report.update(traced_report(tracer))
    with open(options.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
