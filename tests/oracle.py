"""The scalar oracles that the corpus columns, the mention table and the
block scorer are tested against.

The record path holds a corpus as one PublicationRecord per publication:
ingest_records validates each line and puts it in canonical form (_record),
record_to_json writes its canonical line, filter_records keeps or drops it
and c5 counts its early citations. The package itself holds a corpus as
columns (corpus.Corpus); the tests check that both ingest, filter and
export alike, byte for byte. A corpus is read back as records only from
the lines export writes, by the record path's own ingest (records_of).

The pair oracle describes every mention as one AuthorMention and every
criterion as a comparison of two of them, one pair at a time. The package
itself scores only the pairs that share a value of an anchor criterion,
listed from the coded columns of a corpus's MentionTable a run of blocks
at a time (disambig.cluster_block); the tests check that both give the
same values, the same satisfied criteria and the same clusters. The dense
oracle (dense_cluster_block) scores every pair of a block from the same
columns, as n × n hit matrices summed tile by tile.

The citation oracle simulates citation arrival one hit at a time, with a
per-year map from each author to their citable papers. The package itself
keeps that bookkeeping in arrays (synth._simulate_citations); the tests
check that both make the same draws in the same order and give every paper
the same citing years.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from rankmobility.corpus import (
    IMPACT_WINDOW_YEARS,
    Corpus,
    CorpusError,
    CorpusFilterConfig,
    FilterStats,
    IngestStats,
    _lines,
    _RecordError,
    _validate_record,
)
from rankmobility.disambig import _CRITERIA_TABLE, BlockKey, MentionCluster, ScoringRuleTable, _merge
from rankmobility.names import full_given_name, initials_of, normalize_text, parse_name
from rankmobility.synth import LATE_CITATION_RATE, UPDATES_PER_YEAR, _even_split


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One publication of a corpus in canonical form; authors holds the
    mention payloads as export writes them."""

    pub_id: str
    year: int
    disciplines: frozenset[str]
    authors: tuple[dict, ...]
    citing_years: tuple[int, ...]


def records_of(corpus: Corpus) -> dict[str, PublicationRecord]:
    """A corpus's records by pub_id in corpus order, read from the lines
    export writes."""
    return ingest_records(_lines(corpus._columns))[0]


def ingest_records(lines: Iterable[str], source: str = "<memory>") -> tuple[dict[str, PublicationRecord], IngestStats]:
    """Every accepted line as a record, by pub_id in corpus order, with the
    ingest counts; a duplicate pub_id raises CorpusError."""
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
            _validate_record(raw)
        except _RecordError as exc:
            stats.rejected.append((line_no, str(exc)))
            continue
        record = _record(raw)
        if record.pub_id in records:
            raise CorpusError(f"duplicate pub_id: {record.pub_id} ({source} line {line_no})")
        records[record.pub_id] = record
        stats.accepted += 1
    return records, stats


def _record(raw: dict) -> PublicationRecord:
    """A validated line in canonical form: a blank optional string is
    absent, each list sorted without repeats, the citing years sorted, and
    the discipline labels stripped, blanks dropped."""
    authors = []
    for author in raw["authors"]:
        clean = {"name": author["name"]}
        for key in ("affiliation", "email", "orcid", "journal"):
            value = author.get(key)
            if value is not None and value.strip():
                clean[key] = value
        for key in ("grants", "references"):
            if author.get(key):
                clean[key] = sorted(set(author[key]))
        authors.append(clean)
    labels = frozenset(label.strip() for label in raw["disciplines"].split(";")) - {""}
    return PublicationRecord(raw["pub_id"], raw["year"], labels, tuple(authors), tuple(sorted(raw["citing_years"])))


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


def filter_records(
    records: Iterable[PublicationRecord], config: CorpusFilterConfig
) -> tuple[list[PublicationRecord], FilterStats]:
    """The records that pass the retention rules, with per-rule counts."""
    stats = FilterStats()
    kept: list[PublicationRecord] = []
    for pub in records:
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
    return kept, stats


def c5(pub: PublicationRecord) -> int:
    """Citations received within the first five calendar years, the
    publication year included."""
    horizon = pub.year + IMPACT_WINDOW_YEARS - 1
    return sum(1 for y in pub.citing_years if pub.year <= y <= horizon)


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


def build_mentions(publications: dict[str, PublicationRecord]) -> dict[str, AuthorMention]:
    """Every mention of the publications by mention id, in corpus order."""
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
                affiliation=normalize_text(author.get("affiliation", "")) or None,
                email=author.get("email", "").strip().casefold() or None,
                orcid=author.get("orcid", "").strip() or None,
                journal=normalize_text(author.get("journal", "")) or None,
                grant_ids=frozenset(author.get("grants", ())),
                references=frozenset(author.get("references", ())),
                coauthor_names=coauthors,
                disciplines=pub.disciplines,
                cited_by=cited_by,
            )
            mentions[mention.mention_id] = mention
    return mentions


# What each criterion compares, read from an AuthorMention; the MentionTable
# column that _CRITERIA_TABLE names for the criterion codes the same values.
VALUE = {
    "orcid_match": attrgetter("orcid"),
    "email_match": attrgetter("email"),
    # Spelled-out given names agreeing beyond the blocking key.
    "name_detail_match": lambda m: m.given if m.full_given is not None else None,
    "shared_affiliation": attrgetter("affiliation"),
    "shared_coauthor": attrgetter("coauthor_names"),
    "shared_grant": attrgetter("grant_ids"),
    "same_journal": attrgetter("journal"),
    "shared_discipline": attrgetter("disciplines"),
    "self_citation": attrgetter("pub_id", "references"),
    "bibliographic_coupling": attrgetter("references"),
    "co_citation": attrgetter("cited_by"),
}


def _holds(kind: str, x, y) -> bool:
    """Whether two mentions' values x and y match: for same, both are set and
    equal; for overlap, the sets intersect; for cites, one (pub_id,
    references) pair's pub_id is in the other's references."""
    if kind == "same":
        return x is not None and x == y
    if kind == "overlap":
        return not x.isdisjoint(y)
    return x[0] in y[1] or y[0] in x[1]


def satisfied_criteria(a: AuthorMention, b: AuthorMention) -> tuple[str, ...]:
    """Names of all criteria the pair satisfies, in CRITERIA order."""
    return tuple(name for name, kind, _ in _CRITERIA_TABLE if _holds(kind, VALUE[name](a), VALUE[name](b)))


def score_pair(a: AuthorMention, b: AuthorMention, rules: ScoringRuleTable) -> float:
    """Sum of the weights of every satisfied criterion (symmetric in a, b),
    added largest first as cluster_block adds them, so both round alike."""
    return sum(sorted((rules.weight(name) for name in satisfied_criteria(a, b)), reverse=True))


def block_key(mention: AuthorMention) -> BlockKey:
    return (mention.surname, mention.initials[:1])


def dense_cluster_block(block, rules: ScoringRuleTable, tile: int = 256) -> list[MentionCluster]:
    """What cluster_block returns, from every pair of the block.

    Each positively weighted criterion gives n × n hit matrices, built by
    its kind from the block's columns (_operand). The hits' weights are
    added largest first, as score_pair adds them, so adding 0.0 for a miss
    changes nothing. Rows are scored in tiles of `tile` against the rows
    from the tile on, and clusters are the connected components of the
    pairs at the threshold.
    """
    table = block._blocks.table
    rows = block._blocks.order[block._lo:block._hi]
    n = len(rows)
    checks = []
    for name, kind, column in sorted(_CRITERIA_TABLE, key=lambda row: -rules.weight(row[0])):
        weight = rules.weight(name)
        if weight > 0:
            checks.append((weight, kind, _operand(table, rows, kind, column)))

    parent = np.arange(n)
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        tile_rows, cols = slice(start, stop), slice(start, n)
        total = np.zeros((stop - start, n - start))
        for weight, kind, operand in checks:
            np.add(total, weight, out=total, where=_hits(kind, operand, tile_rows, cols))
        a, b = np.nonzero(total >= rules.threshold)
        _merge(parent, a + start, b + start)

    groups: dict[int, list[str]] = {}
    for root, mention_id in zip(parent.tolist(), block.mention_ids):
        groups.setdefault(root, []).append(mention_id)
    return sorted((MentionCluster(min(ids), tuple(sorted(ids))) for ids in groups.values()), key=attrgetter("author_id"))


def _operand(table, rows: np.ndarray, kind: str, column: str):
    """What the hit matrices of a criterion over the table rows are
    computed from. same: one code per row, a missing value a negative code
    of its own. overlap: an incidence matrix B of rows × values, so
    B @ B.T is positive where two sets intersect. cites: an incidence R of
    rows × referenced values plus an empty last column, and each row's
    publication as a column of R."""
    n = len(rows)
    if kind == "same":
        codes = table.codes(column)[rows]
        return np.where(codes >= 0, codes, -1 - np.arange(n))
    sizes, codes = table.sets(column, rows)
    values, columns = np.unique(codes, return_inverse=True)
    matrix = np.zeros((n, len(values) + 1), dtype=np.float32 if kind == "overlap" else bool)
    matrix[np.repeat(np.arange(n), sizes), columns] = 1
    if kind == "overlap":
        return matrix
    pub = table.pub[rows]
    column_of = np.searchsorted(values, pub)
    found = column_of < len(values)
    found[found] = values[column_of[found]] == pub[found]
    return matrix, np.where(found, column_of, len(values))


def _hits(kind: str, operand, rows: slice, cols: slice) -> np.ndarray:
    """Which pairs of rows × cols satisfy a criterion, from its operand."""
    if kind == "same":
        return operand[rows, None] == operand[None, cols]
    if kind == "overlap":
        return operand[rows] @ operand[cols].T > 0
    matrix, publication = operand
    return matrix[rows][:, publication[cols]] | matrix[cols][:, publication[rows]].T


def simulate_citations(config, rng, authors, papers) -> None:
    """Cumulative-advantage citation arrival, batched within each year,
    one hit at a time: what synth._simulate_citations computes."""
    n_papers = len(papers)
    if n_papers == 0 or config.citation_rate == 0:
        return
    paper_year = np.array([p.year for p in papers], dtype=np.int64)
    by_year: dict[int, list[int]] = {}
    for idx, paper in enumerate(papers):
        by_year.setdefault(paper.year, []).append(idx)
    author_citations = np.zeros(config.n_authors, dtype=np.int64)
    first_year = int(paper_year.min())
    last_year = int(paper_year.max()) + 4

    for year in range(first_year, last_year + 1):
        citable = [i for y in range(year - 4, year + 1) for i in by_year.get(y, ())]
        if not citable:
            continue
        stale = [i for y in range(year - 9, year - 4) for i in by_year.get(y, ())]
        n_events = int(rng.poisson(config.citation_rate * len(citable)))
        if n_events == 0:
            continue
        n_late = int(rng.binomial(n_events, LATE_CITATION_RATE)) if stale else 0
        if n_late > 0:
            targets = rng.integers(0, len(stale), size=n_late)
            for t in targets:
                paper = papers[stale[int(t)]]
                paper.citing_years.append(year)
                for a in paper.authors:
                    author_citations[a] += 1

        remaining = n_events - n_late
        if remaining == 0:
            continue
        papers_of: dict[int, list[int]] = {}
        for i in citable:
            for a in papers[i].authors:
                papers_of.setdefault(a, []).append(i)
        active = np.array(sorted(papers_of), dtype=np.int64)
        batches = np.full(UPDATES_PER_YEAR, remaining // UPDATES_PER_YEAR)
        batches[: remaining % UPDATES_PER_YEAR] += 1
        for batch in batches:
            if batch == 0:
                continue
            weights = (1.0 + author_citations[active].astype(float)) ** config.alpha
            probs = weights / weights.sum()
            per_author = rng.multinomial(int(batch), probs)
            hit = np.nonzero(per_author)[0]
            for h in hit:
                author_idx = int(active[h])
                count = int(per_author[h])
                mine = papers_of[author_idx]
                if len(mine) == 1:
                    split = [count]
                else:
                    split = rng.multinomial(count, _even_split(len(mine)))
                for paper_idx, events in zip(mine, split):
                    if events == 0:
                        continue
                    paper = papers[paper_idx]
                    paper.citing_years.extend([year] * int(events))
                    for a in paper.authors:
                        author_citations[a] += int(events)
