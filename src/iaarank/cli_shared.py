"""Helpers that several subcommands' handlers share: the checks of
--criterion and --epsilon, and the output of a RankingResult."""

import math


def check_criterion(dataset, flag: str, requested: str) -> None:
    if requested not in dataset.criteria:
        raise ValueError(
            f"{flag}: criterion {requested!r} not in dataset "
            f"(have: {', '.join(dataset.criteria)})"
        )


def pick_criterion(dataset, requested: str | None) -> str:
    """The requested criterion, or the dataset's only one."""
    if requested is not None:
        check_criterion(dataset, "--criterion", requested)
        return requested
    if len(dataset.criteria) > 1:
        raise ValueError(
            "dataset has several criteria; select one with --criterion"
        )
    return dataset.criteria[0]


def check_epsilon(epsilon: float) -> None:
    """--epsilon is read by rank and topsis only; the others ignore it."""
    if epsilon < 0:
        raise ValueError("--epsilon must be non-negative")
    if not math.isfinite(epsilon):
        raise ValueError("--epsilon must be finite")


def ranked(result, text):
    """A RankingResult: its to_dict, and one CSV row per entry in the entries'
    _fields order (order_and_rank refuses an empty list, so entries[0] exists)."""
    return (result.to_dict(), result.entries[0]._fields,
            (e._values() for e in result.entries), lambda: text(result))
