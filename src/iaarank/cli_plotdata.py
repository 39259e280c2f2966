"""The plotdata subcommand: each cell's membership outline, always as CSV."""

from . import cli
from .cli import plain


def run(args):
    """CSV only: main renders it as CSV whatever --format says."""
    polyline = cli.membership_polyline
    numbers = cli._load(args).map(cli.construct_fuzzy)
    rows = (
        (alternative, criterion, plain(x), plain(mu))
        for (alternative, criterion), fz in numbers.items()
        for x, mu in polyline(fz)
    )
    return None, ("alternative", "criterion", "x", "mu"), rows, None
