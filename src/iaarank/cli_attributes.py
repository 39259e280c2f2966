"""The attributes subcommand: the attribute vector of each cell."""

from . import cli


def run(args):
    vector = cli.attribute_vector
    numbers = cli._load(args).map(cli.construct_fuzzy)
    records = [
        {"alternative": alternative, "criterion": criterion, **vector(fz).to_dict()}
        for (alternative, criterion), fz in numbers.items()
    ]
    header = ("alternative", "criterion", "q1", "q2", "q3", "q4", "q5",
              *cli.AttributeVector._fields[1:])
    # each record's values are the alternative, the criterion, then the
    # vector's fields in _fields order, quartiles first
    rows = (
        (alternative, criterion, *quartiles, *rest)
        for alternative, criterion, quartiles, *rest in map(dict.values, records)
    )
    return records, header, rows, None
