"""The build subcommand: one fuzzy-number record per cell."""

from . import cli
from .cli import plain


def run(args):
    numbers = cli._load(args).map(cli.construct_fuzzy)
    records = [
        {"alternative": alternative, "criterion": criterion, **fz.to_dict()}
        for (alternative, criterion), fz in numbers.items()
    ]
    header = ("alternative", "criterion", "left", "right", "height")
    rows = (
        (r["alternative"], r["criterion"], plain(left), plain(right), height)
        for r in records
        for left, right, height in r["regions"]
    )
    return records, header, rows, None
