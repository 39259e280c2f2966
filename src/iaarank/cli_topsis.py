"""The topsis subcommand: the closeness ranking over every criterion."""

from . import cli
from .cli import check_criterion, check_epsilon, ranked


def _topsis_text(result) -> str:
    lines = []
    for ideal in result.ideals:
        note = " (degenerate)" if ideal.degenerate else ""
        lines.append(
            f"criterion {ideal.criterion}: PIS={ideal.pis.label} "
            f"NIS={ideal.nis.label}{note}"
        )
    width = max(len("label"), *(len(e.label) for e in result.entries))
    lines.append(f"{'label':<{width}}  {'D+':>8}  {'D-':>8}  {'CC':>8}  rank")
    for e in result.entries:
        flag = " *" if e.degenerate else ""
        lines.append(
            f"{e.label:<{width}}  {e.d_plus:8.4f}  {e.d_minus:8.4f}  "
            f"{e.closeness:8.4f}  {e.rank:>4}{flag}"
        )
    return "\n".join(lines) + "\n"


def _check_count(flag: str, values: tuple, criteria: tuple[str, ...]) -> None:
    """A list flag gives one value per ranked criterion, none for an excluded one."""
    count, wanted = len(values), len(criteria)
    if count != wanted:
        raise ValueError(
            f"{flag}: {count} {'value' if count == 1 else 'values'} for {wanted} "
            f"{'criterion' if wanted == 1 else 'criteria'} ({', '.join(criteria)})"
        )


def run(args):
    check_epsilon(args.epsilon)
    dataset = cli._load(args)
    if args.exclude_criterion is not None:
        check_criterion(dataset, "--exclude-criterion", args.exclude_criterion)
        dataset = dataset.without_criterion(args.exclude_criterion)
    if args.tie_break_criterion is not None:
        if args.tie_break_criterion == args.exclude_criterion:
            raise ValueError(
                f"--tie-break-criterion: criterion {args.tie_break_criterion!r} "
                "was removed by --exclude-criterion"
            )
        check_criterion(dataset, "--tie-break-criterion", args.tie_break_criterion)
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(float(part) for part in args.weights.split(","))
        except ValueError as exc:  # float's message quotes the bad part
            raise ValueError(f"--weights: {exc}") from None
    directions = None
    if args.directions is not None:
        mapping = {"b": "benefit", "c": "cost", "benefit": "benefit", "cost": "cost"}
        try:
            directions = tuple(
                mapping[part.strip().lower()] for part in args.directions.split(",")
            )
        except KeyError as exc:
            raise ValueError(
                f"--directions: unknown direction {exc.args[0]!r}"
            ) from None
    for flag, values in (("--weights", weights), ("--directions", directions)):
        if values is not None:
            _check_count(flag, values, dataset.criteria)
    matrix = cli.DecisionMatrix.from_dataset(dataset, weights, directions)
    result = cli.topsis_rank(
        matrix,
        measure=args.measure,
        epsilon=args.epsilon,
        tie_break_criterion=args.tie_break_criterion,
    )
    return ranked(result, _topsis_text)
