"""The build subcommand: one fuzzy-number record per cell."""

from . import cli


def run(args):
    numbers = cli._load(args).map(cli.construct_fuzzy)
    records = [
        {"alternative": alternative, "criterion": criterion, **fz.to_dict()}
        for (alternative, criterion), fz in numbers.items()
    ]
    header = ("alternative", "criterion", "left", "right", "height")
    return records, header, _rows(records), None


def _rows(records):
    """One CSV row per region; cli_csv loads only when a csv job reads them."""
    from .cli_csv import plain
    for r in records:
        for left, right, height in r["regions"]:
            yield r["alternative"], r["criterion"], plain(left), plain(right), height
