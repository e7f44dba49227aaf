"""The one reader and writer behind every CSV file the package handles.

Files are written with csv.writer, so lines end in CRLF; callers format
each cell themselves (floats with repr, so reading back is exact).
"""

from __future__ import annotations

import csv
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .jsonio import undecodable

T = TypeVar("T")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(
    path: str | Path,
    kind: str,
    header: Sequence[str] | None = None,
    *,
    parse: Callable[[list[str]], T],
) -> Iterator[T]:
    """Yield parse(row) for each non-blank row below the header row, one at a time.

    The file must start with a header row, equal to header when one is
    given. Every row must have as many fields as the header; a row that
    does not, or whose parse raises ValueError, raises ValueError naming
    its line. So does a byte that is not UTF-8 or a field that csv does
    not read, such as one longer than its field size limit.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
            if not found:
                raise ValueError(f"empty {kind} file: {path}")
            if header is not None and found != list(header):
                raise ValueError(f"not a {kind} file: {path}")
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(found):
                        raise ValueError(f"{len(row)} fields, header has {len(found)}")
                    row = parse(row)
                except ValueError as exc:
                    raise ValueError(f"{kind} file {path}, line {reader.line_num}: {exc}") from None
                yield row
        except UnicodeDecodeError as exc:
            raise ValueError(f"{kind} file {path}, {undecodable(handle, exc)}") from None
        except csv.Error as exc:
            raise ValueError(f"{kind} file {path}, line {reader.line_num}: {exc}") from None


def finite_float(text: str) -> float:
    """float(text), raising ValueError for a NaN or an infinity as well."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value
