"""The loader's JSON reader, which only a job that loads a JSON dataset
imports."""

import json
from pathlib import Path

from .errors import MalformedRow
from .intervals import DATASET_HEADER


def read_json_rows(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8-sig") as handle:  # a leading BOM is dropped
        text = handle.read()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise MalformedRow(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise MalformedRow(f"{path}: expected a JSON array of row objects")
    rows = []
    for index, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict) or set(DATASET_HEADER) - set(entry):
            raise MalformedRow(
                f"{path} row {index}: expected keys {', '.join(DATASET_HEADER)}",
                line=index,
            )
        left, right = entry["left"], entry["right"]
        # json.loads gives a JSON number as an exact int or float; a bool is
        # an int subclass, so exact types keep true and false out.
        if type(left) not in (int, float) or type(right) not in (int, float):
            raise MalformedRow(
                f"{path} row {index}: bounds must be numbers, got "
                f"({left!r}, {right!r})",
                line=index,
            )
        labels = tuple(entry[key] for key in DATASET_HEADER[:3])
        if not all(type(label) is str for label in labels):
            raise MalformedRow(
                f"{path} row {index}: labels must be strings, got "
                f"{', '.join(map(repr, labels))}",
                line=index,
            )
        try:
            "".join(labels).encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate escape, "\ud800"
            raise MalformedRow(
                f"{path} row {index}: labels must be valid Unicode text", line=index
            ) from exc
        rows.append((index, *labels, left, right))
    return rows

