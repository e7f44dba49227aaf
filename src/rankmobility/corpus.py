"""Publication corpus: line-delimited ingestion, validation, filtering, impact.

A corpus file holds one JSON object per line with the fields

* ``pub_id``: unique opaque identifier,
* ``year``: publication year (integer),
* ``disciplines``: semicolon-separated discipline labels,
* ``authors``: array of author mentions, each with a ``name`` plus optional
  ``affiliation``, ``email``, ``orcid``, ``grants``, ``journal`` and
  ``references`` fields,
* ``citing_years``: array of years of incoming citations (a multiset).

The formal schema ships at ``rankmobility/data/publication-record.schema.json``.
Validation here is hand-rolled so ingestion stays cheap at corpus scale.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .names import full_given_name, initials_of, normalize_text, parse_name

IMPACT_WINDOW_YEARS = 5


class CorpusError(Exception):
    """Unrecoverable corpus-level problem (duplicate ids, unreadable store)."""


class _RecordError(Exception):
    """Single-record validation failure; the record is rejected, not fatal."""


@contextmanager
def collector_paused():
    """Keep CPython's cyclic garbage collector off inside the block.

    Parsed records, the mention table and the careers built from them hold
    no reference cycles, yet every full collection re-walks all of them, so
    its cost grows with the corpus a run keeps alive. The pause is
    process-wide: it also holds for other threads, which in a run are the
    run's own cohort pool. On exit the collector is switched back on only
    if it was on when the block was entered, so nested pauses and callers
    that had disabled it themselves keep their state. The few thousand
    cyclic objects a paused run creates wait for the next collection.
    Used as a decorator, each call gets its own pause.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One publication in canonical form.

    ``authors`` keeps the raw mention payloads (with set-valued fields
    sorted) so that exporting a corpus is byte-stable; matching-oriented
    derived forms live in the corpus's :class:`MentionTable`.
    """

    pub_id: str
    year: int
    disciplines: frozenset[str]
    authors: tuple[dict, ...]
    citing_years: tuple[int, ...]


@dataclass(slots=True)
class IngestStats:
    lines_read: int = 0
    accepted: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class CorpusFilterConfig:
    """Record-level retention rules.

    max_authors drops publications with longer author lists; year_range is
    inclusive on both ends; disciplines, when given, keeps only publications
    tagged with at least one allowed label (labels on kept records are not
    rewritten). An empty set of disciplines means no discipline filter,
    like None, and is stored as None.
    """

    max_authors: int = 20
    year_range: tuple[int, int] | None = None
    disciplines: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.disciplines:
            object.__setattr__(self, "disciplines", None)
        if self.max_authors < 1:
            raise ValueError("max_authors must be at least 1")
        if self.year_range is not None and self.year_range[0] > self.year_range[1]:
            raise ValueError("year_range must be non-empty (lo <= hi)")


@dataclass(slots=True)
class FilterStats:
    kept: int = 0
    removed: int = 0
    by_rule: dict[str, int] = field(default_factory=dict)


class Corpus:
    """Immutable-after-ingest container of publications.

    Its mentions are a MentionTable whose columns are built on first use,
    once per corpus, so stages that only read or write records build none.
    """

    def __init__(self, publications: Iterable[PublicationRecord], stats: IngestStats | None = None):
        self.publications: dict[str, PublicationRecord] = {}
        for pub in publications:
            if pub.pub_id in self.publications:
                raise CorpusError(f"duplicate pub_id: {pub.pub_id}")
            self.publications[pub.pub_id] = pub
        self.stats = stats if stats is not None else IngestStats(
            lines_read=len(self.publications), accepted=len(self.publications)
        )
        self.mentions = MentionTable(self.publications)

    def __len__(self) -> int:
        return len(self.publications)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.publications == other.publications

    def c5(self, pub_id: str) -> int:
        """Citations received within the first five calendar years.

        The publication year itself counts, so the window for a year-2000
        paper is 2000 through 2004 inclusive.
        """
        pub = self.publications[pub_id]
        horizon = pub.year + IMPACT_WINDOW_YEARS - 1
        return sum(1 for y in pub.citing_years if pub.year <= y <= horizon)


class MentionTable:
    """Every author mention of a corpus as numpy columns, one row per mention
    in corpus order.

    Row r is author slot r - first[pub[r]] of publication pub[r], and its
    mention id is "{pub_id}:{slot}". Counting the rows and reading pub build
    nothing more. The coded columns are built on first use, once per table,
    and each distinct raw string is normalized or parsed only once. A column
    holds, per row, its value as an index into values(column); a missing
    value is -1. A reference to a publication of the corpus has the
    publication's index as its code. orcid, email, affiliation and journal
    are the author's fields, normalized; given_detail is the parsed given
    name when it is spelled out, else missing; grant_ids and references are
    the author's lists; coauthor_names are the normalized full names of the
    publication's other authors; disciplines are the publication's, and
    cited_by are the corpus publications that reference it. The tests check
    every column against a scalar description of each mention, built one
    mention at a time. The build takes no lock: the pipeline reads mentions
    only on its main thread, before its cohort pool starts.
    """

    def __init__(self, publications: dict[str, PublicationRecord]):
        self._publications = publications
        sizes = np.fromiter((len(p.authors) for p in publications.values()), np.int64, len(publications))
        self.first = _indptr(sizes)
        self.pub = np.repeat(np.arange(len(sizes)), sizes)

    def __len__(self) -> int:
        return len(self.pub)

    @cached_property
    def ids(self) -> list[str]:
        return [f"{pid}:{k}" for pid, pub in self._publications.items() for k in range(len(pub.authors))]

    @cached_property
    def _columns(self) -> _Columns:
        return _build_columns(self._publications, self.pub)

    def block_keys(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Each row's (surname, first initial) as an index into the list of
        distinct keys, which is returned too."""
        return self._columns.key, self._columns.keys

    def codes(self, column: str) -> np.ndarray:
        """The code of a single-valued column (orcid, email, given_detail,
        affiliation, journal) per row."""
        return self._columns.codes[column]

    def pairs(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """(rows, codes) of a set-valued column (coauthor_names, grant_ids,
        disciplines, references, cited_by): row rows[k] holds the value of
        code codes[k], rows ascending."""
        if column == "coauthor_names":
            # The full names of the other authors of the row's publication.
            sizes = np.diff(self.first)[self.pub]
            rows = np.repeat(np.arange(len(self)), sizes)
            others = _ranges(self.first[self.pub], sizes)
            rows, others = rows[others != rows], others[others != rows]
            # Two coauthors may share a full name; the row holds it once.
            span = len(self._columns.values["coauthor_names"])
            return np.divmod(np.unique(rows * span + self._columns.full_name[others]), max(span, 1))
        indptr, flat, per_pub = self._columns.sets[column]
        if not per_pub:
            return np.repeat(np.arange(len(self)), np.diff(indptr)), flat
        sizes = np.diff(indptr)[self.pub]
        return np.repeat(np.arange(len(self)), sizes), flat[_ranges(indptr[self.pub], sizes)]

    def values(self, column: str) -> list:
        """The distinct values of a column, indexed by code."""
        return self._columns.values[column]


class _Columns(NamedTuple):
    """The coded columns of a MentionTable. A set column is CSR: (indptr,
    codes, per_pub), where per_pub says it is indexed by publication."""

    key: np.ndarray
    keys: list[tuple[str, str]]
    full_name: np.ndarray
    codes: dict[str, np.ndarray]
    sets: dict[str, tuple[np.ndarray, np.ndarray, bool]]
    values: dict[str, list]


def _build_columns(publications: dict[str, PublicationRecord], pub: np.ndarray) -> _Columns:
    records = publications.values()
    authors = [author for record in records for author in record.authors]
    name, raw_names = _code(map(itemgetter("name"), authors))
    parsed = [parse_name(raw) for raw in raw_names]
    key, keys = _code((surname, initials_of(given)[:1]) for given, surname in parsed)
    full_name, full_names = _code(normalize_text(raw.replace(".", " ")) for raw in raw_names)
    values: dict[str, list] = {"coauthor_names": full_names}
    codes: dict[str, np.ndarray] = {}
    codes["given_detail"], values["given_detail"] = _forms(name, parsed, _given_detail)
    for column, form in (("orcid", _strip_or_none), ("email", _lower_or_none),
                         ("affiliation", _norm_or_none), ("journal", _norm_or_none)):
        raw, distinct = _code(map(dict.get, authors, repeat(column)))
        codes[column], values[column] = _forms(raw, distinct, form)

    sets: dict[str, tuple[np.ndarray, np.ndarray, bool]] = {}
    for column, field_name, seed in (("grant_ids", "grants", ()), ("references", "references", publications)):
        lists = list(map(dict.get, authors, repeat(field_name), repeat(())))
        sizes = np.fromiter(map(len, lists), np.int64, len(authors))
        flat, values[column] = _code(chain.from_iterable(lists), seed)
        sets[column] = (_indptr(sizes), flat, False)
    sizes = np.fromiter((len(record.disciplines) for record in records), np.int64, len(publications))
    flat, values["disciplines"] = _code(chain.from_iterable(record.disciplines for record in records))
    sets["disciplines"] = (_indptr(sizes), flat, True)
    # A publication cites every corpus publication that any of its authors references.
    indptr, refs, _ = sets["references"]
    citer = pub[np.repeat(np.arange(len(authors)), np.diff(indptr))]
    n_pubs = len(publications)
    cited = refs < n_pubs
    target, citer = np.divmod(np.unique(refs[cited] * n_pubs + citer[cited]), max(n_pubs, 1))
    sets["cited_by"] = (_indptr(np.bincount(target, minlength=n_pubs)), citer, True)
    values["cited_by"] = list(publications)
    return _Columns(key[name], keys, full_name[name], codes, sets, values)


def _code(values: Iterable, seed: Iterable = ()) -> tuple[np.ndarray, list]:
    """Each value's index in the list of distinct values, which is returned
    too: the seed values first, then the others as first seen."""
    index = {value: k for k, value in enumerate(seed)}
    # A new value is first coded by its position in values (past the seed);
    # ranking those codes among the distinct values' makes them consecutive.
    codes = np.fromiter(map(index.setdefault, values, count(len(index))), np.int64)
    return np.searchsorted(np.fromiter(index.values(), np.int64, len(index)), codes), list(index)


def _forms(raw: np.ndarray, distinct: list, form) -> tuple[np.ndarray, list]:
    """Codes of the form of each raw value, computed once per distinct raw
    value, with the distinct forms; a form of None is coded -1."""
    index: dict = {}
    lookup = [-1 if (f := form(value)) is None else index.setdefault(f, len(index)) for value in distinct]
    return np.array(lookup, np.int64)[raw], list(index)


def _given_detail(parsed: tuple[str, str]) -> str | None:
    """The given name of a parsed (given, surname) when it is spelled out."""
    given = parsed[0]
    return given if full_given_name(given) is not None else None


def _indptr(sizes: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[k] .. starts[k] + sizes[k] - 1."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(sizes.sum())


def _norm_or_none(value: str | None) -> str | None:
    if value is None:
        return None
    normalized = normalize_text(value)
    return normalized or None


def _lower_or_none(value: str | None) -> str | None:
    if value is None:
        return None
    lowered = value.strip().casefold()
    return lowered or None


def _strip_or_none(value: str | None) -> str | None:
    if value is None:
        return None
    stripped = value.strip()
    return stripped or None


def _validate_record(raw: object) -> PublicationRecord:
    if not isinstance(raw, dict):
        raise _RecordError("record is not a JSON object")
    for key in ("pub_id", "year", "disciplines", "authors", "citing_years"):
        if key not in raw:
            raise _RecordError(f"missing required field: {key}")
    pub_id = raw["pub_id"]
    if not isinstance(pub_id, str) or not pub_id:
        raise _RecordError("pub_id must be a non-empty string")
    year = raw["year"]
    if not isinstance(year, int) or isinstance(year, bool):
        raise _RecordError("year must be an integer")
    disciplines_raw = raw["disciplines"]
    if not isinstance(disciplines_raw, str):
        raise _RecordError("disciplines must be a semicolon-separated string")
    disciplines = frozenset(d.strip() for d in disciplines_raw.split(";") if d.strip())
    authors_raw = raw["authors"]
    if not isinstance(authors_raw, list) or not authors_raw:
        raise _RecordError("authors must be a non-empty array")
    authors = []
    for idx, author in enumerate(authors_raw):
        if not isinstance(author, dict):
            raise _RecordError(f"author {idx} is not an object")
        name = author.get("name")
        if not isinstance(name, str) or not name.strip():
            raise _RecordError(f"author {idx} is missing a name")
        clean: dict = {"name": name}
        for key in ("affiliation", "email", "orcid", "journal"):
            value = author.get(key)
            if value is not None:
                if not isinstance(value, str):
                    raise _RecordError(f"author {idx} field {key} must be a string")
                if value.strip():
                    clean[key] = value
        for key in ("grants", "references"):
            values = author.get(key)
            if values is not None:
                if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                    raise _RecordError(f"author {idx} field {key} must be an array of strings")
                if values:
                    clean[key] = sorted(set(values))
        authors.append(clean)
    citing_raw = raw["citing_years"]
    if not isinstance(citing_raw, list) or not all(
        isinstance(y, int) and not isinstance(y, bool) for y in citing_raw
    ):
        raise _RecordError("citing_years must be an array of integers")
    if any(y < year for y in citing_raw):
        raise _RecordError("citation precedes publication")
    return PublicationRecord(
        pub_id=pub_id,
        year=year,
        disciplines=disciplines,
        authors=tuple(authors),
        citing_years=tuple(sorted(citing_raw)),
    )


@collector_paused()
def ingest_lines(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse, validate and index line-delimited records.

    Malformed lines are rejected individually and reported in the returned
    corpus's ``stats``; a duplicate pub_id aborts the whole ingest. The
    cyclic garbage collector is paused for the whole process while the
    records are read (:func:`collector_paused`).
    """
    stats = IngestStats()
    records: dict[str, PublicationRecord] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        stats.lines_read += 1
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            stats.rejected.append((line_no, f"invalid JSON: {exc.msg}"))
            continue
        try:
            record = _validate_record(raw)
        except _RecordError as exc:
            stats.rejected.append((line_no, str(exc)))
            continue
        if record.pub_id in records:
            raise CorpusError(f"duplicate pub_id: {record.pub_id} ({source} line {line_no})")
        records[record.pub_id] = record
        stats.accepted += 1
    return Corpus(records.values(), stats)


def ingest(path: str | Path) -> Corpus:
    """Ingest a corpus store from disk."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return ingest_lines(handle, source=str(path))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus: {exc}") from exc


def record_to_json(pub: PublicationRecord) -> str:
    """Canonical single-line JSON form of a record (stable across reruns)."""
    payload = {
        "pub_id": pub.pub_id,
        "year": pub.year,
        "disciplines": ";".join(sorted(pub.disciplines)),
        "authors": list(pub.authors),
        "citing_years": list(pub.citing_years),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def export(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical store; export after ingest is byte-stable."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        for pub in corpus.publications.values():
            handle.write(record_to_json(pub))
            handle.write("\n")


def filter_corpus(corpus: Corpus, config: CorpusFilterConfig) -> tuple[Corpus, FilterStats]:
    """Apply retention rules, returning a fresh corpus and per-rule counts.

    A publication failing several rules increments every matching counter;
    filtering an already-filtered corpus with the same config is a no-op.
    """
    stats = FilterStats()
    kept: list[PublicationRecord] = []
    for pub in corpus.publications.values():
        drop = False
        if len(pub.authors) > config.max_authors:
            stats.by_rule["too_many_authors"] = stats.by_rule.get("too_many_authors", 0) + 1
            drop = True
        if config.year_range is not None:
            lo, hi = config.year_range
            if not lo <= pub.year <= hi:
                stats.by_rule["year_out_of_range"] = stats.by_rule.get("year_out_of_range", 0) + 1
                drop = True
        if config.disciplines is not None and not (pub.disciplines & config.disciplines):
            stats.by_rule["discipline_excluded"] = stats.by_rule.get("discipline_excluded", 0) + 1
            drop = True
        if drop:
            stats.removed += 1
        else:
            kept.append(pub)
    stats.kept = len(kept)
    return Corpus(kept), stats
