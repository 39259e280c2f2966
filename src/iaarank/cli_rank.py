"""The rank subcommand: one criterion's alternatives by the universal order,
the ideal ratio or the baseline mean."""

from . import cli
from .cli import check_epsilon, pick_criterion, ranked
from .fuzzy import FuzzyNumber
from .intervals import ScaleConfig, ideal_interval_set


def _auto_ideals(scale, cells) -> tuple[FuzzyNumber, FuzzyNumber]:
    n = max(cell.n for cell in cells)
    best = cli.construct_fuzzy(ideal_interval_set(scale, n, "best"), scale)
    worst = cli.construct_fuzzy(ideal_interval_set(scale, n, "worst"), scale)
    return best, worst


def _file_ideals(path: str, scale: ScaleConfig) -> tuple[FuzzyNumber, FuzzyNumber]:
    dataset = cli._read(path, "--ideal", scale)
    if set(dataset.alternatives) != {"best", "worst"} or len(dataset.criteria) != 1:
        raise ValueError(
            "ideal file must hold exactly the alternatives 'best' and 'worst' "
            "on a single criterion"
        )
    criterion = dataset.criteria[0]
    return (
        cli.construct_fuzzy(dataset.cell("best", criterion), scale),
        cli.construct_fuzzy(dataset.cell("worst", criterion), scale),
    )


def _ranking_text(result) -> str:
    width = max(len("label"), *(len(e.label) for e in result.entries))
    lines = [f"{'label':<{width}}  {'score':>8}  rank"]
    for e in result.entries:
        score = "-" if e.score is None else f"{e.score:.4f}"
        lines.append(f"{e.label:<{width}}  {score:>8}  {e.rank:>4}")
    return "\n".join(lines) + "\n"


def run(args):
    check_epsilon(args.epsilon)
    dataset = cli._load(args)
    cells = dataset.column(pick_criterion(dataset, args.criterion))
    if args.method == "baseline":
        result = cli.rank_baseline_mean(cells)
    else:
        numbers = [cli.construct_fuzzy(cell, dataset.scale) for cell in cells]
        if args.method == "universal":
            result = cli.rank_universal(numbers, args.epsilon)
        else:
            if args.ideal == "auto":
                best, worst = _auto_ideals(dataset.scale, cells)
            else:
                best, worst = _file_ideals(args.ideal, dataset.scale)
            result = cli.rank_by_ideal_ratio(
                numbers,
                best,
                worst,
                measure=args.measure,
                epsilon=args.epsilon,
            )
    return ranked(result, _ranking_text)
