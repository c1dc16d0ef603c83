"""The one text format of every artifact the package writes and every
input file it reads.

Writing: a float is written as repr(float(v)), an int or flag as
str(int(v)), a string unchanged; JSON is indented by two spaces, and
every GeoJSON (RFC 7946) Feature comes from feature(). Reading: numbers
separated by commas or whitespace, '#' starts a comment anywhere, blank
lines are skipped. Every failed open, write or directory creation, and
every bad number or wrong column count, raises ConfigError naming the
file, and the line where there is one.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError

_FORMATS = {"f": lambda v: repr(float(v)), "i": lambda v: str(int(v)), "s": str}


def csv_text(header: str, rows, kinds: str) -> str:
    """The header line, then one line per row; kinds holds one letter
    per column: 'f' float, 'i' int or flag, 's' string."""
    fmts = [_FORMATS[k] for k in kinds]
    lines = [header] + [",".join(fmt(v) for fmt, v in zip(fmts, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(path, doc, sort_keys: bool = False) -> None:
    """Two-space indented JSON without a trailing newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=sort_keys))


def feature(kind: str, points, properties: dict) -> dict:
    """A GeoJSON Feature: a "LineString" through the (x, y) points, or a
    "Polygon" whose one ring closes on its first point; coordinates are
    Python floats."""
    coords = [[float(x), float(y)] for x, y in points]
    if kind == "Polygon":
        coords = [coords + coords[:1]]
    return {"type": "Feature", "geometry": {"type": kind, "coordinates": coords}, "properties": properties}


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path} as JSON: {exc}") from exc


def make_dir(path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc}") from exc
    return path


def read_rows(path) -> list:
    """(line number, tokens) of every line that holds more than a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows = []
    for ln, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].replace(",", " ").split()
        if tokens:
            rows.append((ln, tokens))
    return rows


def numbers(path, row, width: int) -> list:
    """The row's tokens as floats; raises ConfigError at path:line unless
    there are exactly `width` numbers."""
    ln, tokens = row
    if len(tokens) != width:
        raise ConfigError(f"{path}:{ln}: expected {width} numbers, got {' '.join(tokens)!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"{path}:{ln}: bad number in {' '.join(tokens)!r}") from exc


def parse_point(raw: str) -> tuple:
    """An 'x,y' point; a semicolon or whitespace also separates the two."""
    try:
        x, y = (float(tok) for tok in raw.replace(";", " ").replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"expected a point as x,y; got {raw!r}") from exc
    return (x, y)
