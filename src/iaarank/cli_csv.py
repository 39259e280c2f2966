"""CSV output of the CLI, which only a --format csv job and plotdata load."""

import csv
import io


def plain(value: float) -> str:
    """A coordinate as text: a whole number below 1e16 as an int, else its repr."""
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def _field(value) -> str:
    """A CSV field: text as is, None empty, a bool in lower case, a number as
    its repr."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def csv_text(header, rows) -> str:
    # With its default "\r\n" row end, csv.writer quotes every field holding
    # "\r" or "\n" (with "\n" alone, Python 3.11 leaves a bare "\r" unquoted);
    # each row end is then cut back to "\n".
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lines = []
    for row in (header, *rows):
        writer.writerow([_field(value) for value in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()
    return "".join(lines)
