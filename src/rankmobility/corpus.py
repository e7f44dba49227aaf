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

import json
from collections.abc import Iterable, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from pathlib import Path

from .names import full_given_name, initials_of, normalize_text, parse_name

IMPACT_WINDOW_YEARS = 5


class CorpusError(Exception):
    """Unrecoverable corpus-level problem (duplicate ids, unreadable store)."""


class _RecordError(Exception):
    """Single-record validation failure; the record is rejected, not fatal."""


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One publication in canonical form.

    ``authors`` keeps the raw mention payloads (with set-valued fields
    sorted) so that exporting a corpus is byte-stable; matching-oriented
    derived forms live on :class:`AuthorMention`.
    """

    pub_id: str
    year: int
    disciplines: frozenset[str]
    authors: tuple[dict, ...]
    citing_years: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class AuthorMention:
    """A single (publication, author slot) occurrence with derived match keys.

    All string attributes except ``name`` are normalized (case-folded,
    diacritic-stripped, whitespace-collapsed); ``name`` is the raw form.
    ``coauthor_names`` holds normalized full names of the other mentions on
    the same publication, ``cited_by`` the pub_ids of corpus publications
    whose reference lists include this mention's publication.
    """

    mention_id: str
    pub_id: str
    position: int
    name: str
    given: str
    surname: str
    initials: str
    full_given: str | None
    affiliation: str | None
    email: str | None
    orcid: str | None
    journal: str | None
    grant_ids: frozenset[str]
    references: frozenset[str]
    coauthor_names: frozenset[str]
    disciplines: frozenset[str]
    cited_by: frozenset[str]


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

    Its mentions are built from the publications on first use, once per
    corpus, so stages that only read or write records build none.
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
        self.mentions: Mapping[str, AuthorMention] = _Mentions(self.publications)

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


class _Mentions(Mapping[str, AuthorMention]):
    """Read-only mapping of mention_id to AuthorMention.

    The mentions are built on the first lookup or iteration. The length
    comes from the publications' author lists, so counting builds nothing.
    The build takes no lock: the pipeline reads mentions only on its main
    thread, before its cohort pool starts.
    """

    def __init__(self, publications: dict[str, PublicationRecord]):
        self._publications = publications
        self._count = sum(len(pub.authors) for pub in publications.values())
        self._built: dict[str, AuthorMention] | None = None

    def _dict(self) -> dict[str, AuthorMention]:
        if self._built is None:
            self._built = _build_mentions(self._publications)
        return self._built

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, mention_id: str) -> AuthorMention:
        return self._dict()[mention_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict())

    def get(self, mention_id: str, default=None):
        return self._dict().get(mention_id, default)

    def values(self) -> ValuesView[AuthorMention]:
        return self._dict().values()


def _build_mentions(publications: dict[str, PublicationRecord]) -> dict[str, AuthorMention]:
    # Pub-level reference union feeds the incoming-citer index used by
    # the co-citation criterion.
    citers: dict[str, set[str]] = {}
    for pub in publications.values():
        refs: set[str] = set()
        for author in pub.authors:
            refs.update(author.get("references", ()))
        for target in refs:
            citers.setdefault(target, set()).add(pub.pub_id)

    mentions: dict[str, AuthorMention] = {}
    for pub in publications.values():
        cited_by = frozenset(citers.get(pub.pub_id, ()))
        names = [normalize_text(a["name"].replace(".", " ")) for a in pub.authors]
        for idx, author in enumerate(pub.authors):
            given, surname = parse_name(author["name"])
            coauthors = frozenset(n for k, n in enumerate(names) if k != idx)
            mention = AuthorMention(
                mention_id=f"{pub.pub_id}:{idx}",
                pub_id=pub.pub_id,
                position=idx,
                name=author["name"],
                given=given,
                surname=surname,
                initials=initials_of(given),
                full_given=full_given_name(given),
                affiliation=_norm_or_none(author.get("affiliation")),
                email=_lower_or_none(author.get("email")),
                orcid=_strip_or_none(author.get("orcid")),
                journal=_norm_or_none(author.get("journal")),
                grant_ids=frozenset(author.get("grants", ())),
                references=frozenset(author.get("references", ())),
                coauthor_names=coauthors,
                disciplines=pub.disciplines,
                cited_by=cited_by,
            )
            mentions[mention.mention_id] = mention
    return mentions


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


def ingest_lines(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse, validate and index line-delimited records.

    Malformed lines are rejected individually and reported in the returned
    corpus's ``stats``; a duplicate pub_id aborts the whole ingest.
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
