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
A corpus is held as numpy columns with no Python object per mention; each
validated record is coded into them in batches and then dropped. The only
way back to records is the canonical lines export writes.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .columns import _AUTHOR_KEYS, _BATCH, _Builder, _Columns, _code, _forms, _indptr, _ranges, _take, _unique
from .names import full_given_name, initials_of, normalize_text, parse_name

IMPACT_WINDOW_YEARS = 5
# Years are held as 64-bit integers, with room for the impact window.
_YEAR_LIMIT = 2**62
# Canonical JSON: fixed separators, non-ASCII kept; _lines writes the keys
# in sorted order.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False, separators=(",", ":")).encode


class CorpusError(Exception):
    """Unrecoverable corpus-level problem (duplicate ids, unreadable store)."""


class _RecordError(Exception):
    """Single-record validation failure; the record is rejected, not fatal."""


@contextmanager
def collector_paused():
    """Keep CPython's cyclic garbage collector off inside the block.

    The records in flight, the distinct strings a corpus codes, the mention
    table and the careers built from them hold no reference cycles, yet
    every full collection re-walks all of them, so its cost grows with the
    corpus a run keeps alive. The pause is
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
    """Immutable-after-ingest container of publications, held as columns.

    year and c5 are per publication, in corpus order; export writes the
    records back as canonical lines. Its mentions are a MentionTable whose
    derived forms are built on first use, once per corpus, so stages that
    only read or write records build none.
    """

    def __init__(self, columns: _Columns, stats: IngestStats | None = None):
        n = len(columns.pub_ids)
        self._columns = columns
        self.stats = stats if stats is not None else IngestStats(lines_read=n, accepted=n)
        self.year = columns.year
        self.c5 = _c5(columns)
        self.mentions = MentionTable(columns)

    def __len__(self) -> int:
        return len(self._columns.pub_ids)

    def discipline_masks(self) -> dict[str, np.ndarray]:
        """Each label's mask of the publications tagged with it."""
        columns = self._columns
        tagged: dict[str, np.ndarray] = {}
        for k, labels in enumerate(columns.discipline_sets):
            for label in labels:
                tagged.setdefault(label, np.zeros(len(columns.discipline_sets), bool))[k] = True
        return {label: sets[columns.disciplines] for label, sets in tagged.items()}


def _c5(columns: _Columns) -> np.ndarray:
    """Citations received within the first five calendar years.

    The publication year itself counts, so the window for a year-2000
    paper is 2000 through 2004 inclusive.
    """
    n = len(columns.pub_ids)
    owner = np.repeat(np.arange(n), np.diff(columns.citing_ptr))
    year = columns.year[owner]
    inside = (year <= columns.citing) & (columns.citing <= year + (IMPACT_WINDOW_YEARS - 1))
    return np.bincount(owner[inside], minlength=n)


class MentionTable:
    """Every author mention of a corpus as numpy columns, one row per mention
    in corpus order.

    Row r is author slot r - first[pub[r]] of publication pub[r], and its
    mention id is "{pub_id}:{slot}". Counting the rows and reading pub build
    nothing more. The derived forms are built on first use, once per table,
    from the corpus's distinct raw values, so each distinct raw string is
    normalized or parsed only once. A column holds, per row, its value as
    an index into values(column); a missing value is -1. A reference to a
    publication of the corpus has the publication's index as its code.
    orcid, email, affiliation and journal are the author's fields,
    normalized; given_detail is the parsed given name when it is spelled
    out, else missing; grant_ids and references are the author's lists;
    coauthor_names are the normalized full names of the publication's other
    authors; disciplines are the publication's, and cited_by are the corpus
    publications that reference it. A set-valued column is stored once,
    per publication or per row, and sets(column, rows) gathers it for just
    the rows asked for, in their order. The tests check
    every column against a scalar description of each mention, built one
    mention at a time. The build takes no lock: the pipeline reads mentions
    only on its main thread, before its cohort pool starts.
    """

    def __init__(self, columns: _Columns):
        self._columns = columns
        self.first = columns.first
        self.pub = np.repeat(np.arange(len(columns.pub_ids)), np.diff(columns.first))

    def __len__(self) -> int:
        return len(self.pub)

    @cached_property
    def ids(self) -> list[str]:
        sizes = np.diff(self.first).tolist()
        return [f"{pid}:{k}" for pid, n in zip(self._columns.pub_ids, sizes) for k in range(n)]

    @cached_property
    def _forms(self) -> _Forms:
        return _build_forms(self._columns, self.pub)

    def block_keys(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Each row's (surname, first initial) as an index into the list of
        distinct keys, which is returned too."""
        return self._forms.key, self._forms.keys

    def codes(self, column: str) -> np.ndarray:
        """The code of a single-valued column (orcid, email, given_detail,
        affiliation, journal) per row."""
        return self._forms.codes[column]

    def sets(self, column: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, codes) of a set-valued column (coauthor_names, grant_ids,
        disciplines, references, cited_by) for the given rows, in the order
        given: rows[k] holds the values of the k-th run of sizes[k] codes,
        each once. They are read from where each column is stored: per
        publication (disciplines, cited_by), per row (grant_ids, references),
        and from the rows of the publication (coauthor_names)."""
        if column == "coauthor_names":
            # The full names of the other authors of the row's publication.
            pubs = self.pub[rows]
            sizes = np.diff(self.first)[pubs]
            at = np.repeat(np.arange(len(rows)), sizes)
            others = _ranges(self.first[pubs], sizes)
            other = others != rows[at]
            at, others = at[other], others[other]
            # Two coauthors may share a full name; the row holds it once.
            span = max(len(self._forms.values["coauthor_names"]), 1)
            at, codes = np.divmod(_unique(at * span + self._forms.full_name[others]), span)
            return np.bincount(at, minlength=len(rows)), codes
        indptr, flat, per_pub = self._forms.sets[column]
        at = self.pub[rows] if per_pub else rows
        sizes = indptr[at + 1] - indptr[at]
        return sizes, flat[_ranges(indptr[at], sizes)]

    def values(self, column: str) -> list:
        """The distinct values of a column, indexed by code."""
        return self._forms.values[column]


class _Forms(NamedTuple):
    """The derived forms of a MentionTable. A set column is CSR: (indptr,
    codes, per_pub), where per_pub says it is indexed by publication."""

    key: np.ndarray
    keys: list[tuple[str, str]]
    full_name: np.ndarray
    codes: dict[str, np.ndarray]
    sets: dict[str, tuple[np.ndarray, np.ndarray, bool]]
    values: dict[str, list]


def _build_forms(columns: _Columns, pub: np.ndarray) -> _Forms:
    name, raw_names = columns.fields["name"]
    parsed = [parse_name(raw) for raw in raw_names]
    key, keys = _code((surname, initials_of(given)[:1]) for given, surname in parsed)
    full_name, full_names = _code(normalize_text(raw.replace(".", " ")) for raw in raw_names)
    values: dict[str, list] = {"coauthor_names": full_names}
    codes: dict[str, np.ndarray] = {}
    codes["given_detail"], values["given_detail"] = _forms(name, parsed, _given_detail)
    # A held value is never blank, so only normalizing can empty it.
    for column, form in (("orcid", str.strip), ("email", _folded),
                         ("affiliation", _norm_or_none), ("journal", _norm_or_none)):
        codes[column], values[column] = _forms(*columns.fields[column], form)

    sets: dict[str, tuple[np.ndarray, np.ndarray, bool]] = {}
    for column, field_name in (("grant_ids", "grants"), ("references", "references")):
        indptr, flat, values[column] = columns.lists[field_name]
        sets[column] = (indptr, flat, False)
    labels, values["disciplines"] = _code(chain.from_iterable(columns.discipline_sets))
    label_ptr = _indptr(np.fromiter(map(len, columns.discipline_sets), np.int64, len(columns.discipline_sets)))
    sizes = np.diff(label_ptr)[columns.disciplines]
    sets["disciplines"] = (_indptr(sizes), labels[_ranges(label_ptr[columns.disciplines], sizes)], True)
    # A publication cites every corpus publication that any of its authors references.
    indptr, refs, _ = sets["references"]
    citer = pub[np.repeat(np.arange(len(pub)), np.diff(indptr))]
    n_pubs = len(columns.pub_ids)
    cited = refs < n_pubs
    target, citer = np.divmod(_unique(refs[cited].astype(np.int64) * n_pubs + citer[cited]), max(n_pubs, 1))
    sets["cited_by"] = (_indptr(np.bincount(target, minlength=n_pubs)), citer, True)
    values["cited_by"] = columns.pub_ids
    return _Forms(key[name], keys, full_name[name], codes, sets, values)


def _given_detail(parsed: tuple[str, str]) -> str | None:
    """The given name of a parsed (given, surname) when it is spelled out."""
    given = parsed[0]
    return given if full_given_name(given) is not None else None


def _norm_or_none(value: str) -> str | None:
    return normalize_text(value) or None


def _folded(value: str) -> str:
    return value.strip().casefold()


def _validate_record(raw: object) -> None:
    """Raise _RecordError, saying what is wrong, if a parsed line is no record."""
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
    if not isinstance(raw["disciplines"], str):
        raise _RecordError("disciplines must be a semicolon-separated string")
    authors_raw = raw["authors"]
    if not isinstance(authors_raw, list) or not authors_raw:
        raise _RecordError("authors must be a non-empty array")
    for idx, author in enumerate(authors_raw):
        if not isinstance(author, dict):
            raise _RecordError(f"author {idx} is not an object")
        name = author.get("name")
        if not isinstance(name, str) or not name.strip():
            raise _RecordError(f"author {idx} is missing a name")
        for key in ("affiliation", "email", "orcid", "journal"):
            value = author.get(key)
            if value is not None and not isinstance(value, str):
                raise _RecordError(f"author {idx} field {key} must be a string")
        for key in ("grants", "references"):
            values = author.get(key)
            if values is not None and (not isinstance(values, list) or not all(isinstance(v, str) for v in values)):
                raise _RecordError(f"author {idx} field {key} must be an array of strings")
    citing_raw = raw["citing_years"]
    if not isinstance(citing_raw, list) or not all(
        isinstance(y, int) and not isinstance(y, bool) for y in citing_raw
    ):
        raise _RecordError("citing_years must be an array of integers")
    if any(y < year for y in citing_raw):
        raise _RecordError("citation precedes publication")
    if not -_YEAR_LIMIT <= year <= max(citing_raw, default=year) <= _YEAR_LIMIT:
        raise _RecordError("year out of range")


@collector_paused()
def ingest_lines(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse, validate and index line-delimited records.

    Malformed lines are rejected individually and reported in the returned
    corpus's ``stats``; a duplicate pub_id aborts the whole ingest. The
    cyclic garbage collector is paused for the whole process while the
    records are read (:func:`collector_paused`).
    """
    stats = IngestStats()
    builder = _Builder()
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
            _validate_record(raw)
        except _RecordError as exc:
            stats.rejected.append((line_no, str(exc)))
            continue
        if raw["pub_id"] in builder.rows:
            raise CorpusError(f"duplicate pub_id: {raw['pub_id']} ({source} line {line_no})")
        builder.add(raw)
        stats.accepted += 1
    return Corpus(builder.columns(), stats)


def ingest(path: str | Path) -> Corpus:
    """Ingest a corpus store from disk."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return ingest_lines(handle, source=str(path))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus: {exc}") from exc


@collector_paused()
def export(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical store; export after ingest is byte-stable. The
    cyclic garbage collector is paused while the lines are written."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.writelines(_lines(corpus._columns))


def _lines(columns: _Columns):
    """Each publication's canonical line: sorted-key JSON with fixed
    separators, and a newline. A batch's lines are joined from the JSON
    fragments of the values it uses, each encoded once (_fragments), an
    author's keys in _AUTHOR_KEYS order and an absent field left out."""
    n, first, citing_ptr = len(columns.pub_ids), columns.first, columns.citing_ptr
    labels = list(map(";".join, columns.discipline_sets))
    for lo in range(0, n, _BATCH):
        hi = min(lo + _BATCH, n)
        m_lo, m_hi = first[lo], first[hi]
        fields = []
        for key in _AUTHOR_KEYS:
            if key in columns.fields:
                codes, values = columns.fields[key]
                fields.append(_fragments(codes[m_lo:m_hi].tolist(), values, f'"{key}":'))
                continue
            indptr, codes, values = columns.lists[key]
            items = _fragments(codes[indptr[m_lo]:indptr[m_hi]].tolist(), values)
            bounds = (indptr[m_lo:m_hi + 1] - indptr[m_lo]).tolist()
            fields.append([f'"{key}":[{",".join(items[a:b])}]' if a < b else "" for a, b in zip(bounds, bounds[1:])])
        authors = ["{" + ",".join(filter(None, held)) + "}" for held in zip(*fields)]
        slots = (first[lo:hi + 1] - m_lo).tolist()
        citing = columns.citing[citing_ptr[lo]:citing_ptr[hi]].tolist()
        cited = (citing_ptr[lo:hi + 1] - citing_ptr[lo]).tolist()
        disciplines = _fragments(columns.disciplines[lo:hi].tolist(), labels)
        for k, (pub_id, year) in enumerate(zip(columns.pub_ids[lo:hi], columns.year[lo:hi].tolist())):
            yield (f'{{"authors":[{",".join(authors[slots[k]:slots[k + 1]])}],'
                   f'"citing_years":{_encode(citing[cited[k]:cited[k + 1]])},'
                   f'"disciplines":{disciplines[k]},"pub_id":{_encode(pub_id)},"year":{year}}}\n')


def _fragments(codes: list[int], values: list, head: str = "") -> list[str]:
    """head and the JSON of values[code] for each code, encoded once per
    distinct code; an absent value's code, -1, gives ""."""
    cache = {code: head + _encode(values[code]) for code in set(codes) - {-1}}
    cache[-1] = ""
    return list(map(cache.__getitem__, codes))


def filter_corpus(corpus: Corpus, config: CorpusFilterConfig) -> tuple[Corpus, FilterStats]:
    """Apply retention rules, returning a fresh corpus and per-rule counts.

    A publication failing several rules increments every matching counter;
    filtering an already-filtered corpus with the same config is a no-op.
    """
    columns = corpus._columns
    failing = {"too_many_authors": np.diff(columns.first) > config.max_authors}
    if config.year_range is not None:
        lo, hi = config.year_range
        failing["year_out_of_range"] = (corpus.year < lo) | (corpus.year > hi)
    if config.disciplines is not None:
        allowed = [not config.disciplines.isdisjoint(labels) for labels in columns.discipline_sets]
        failing["discipline_excluded"] = ~np.array(allowed, bool)[columns.disciplines]
    drop = np.zeros(len(corpus), bool)
    stats = FilterStats()
    for rule, fails in failing.items():
        drop |= fails
        if hits := int(np.count_nonzero(fails)):
            stats.by_rule[rule] = hits
    stats.removed = int(np.count_nonzero(drop))
    stats.kept = len(corpus) - stats.removed
    return Corpus(_take(columns, np.flatnonzero(~drop)) if stats.removed else columns), stats
