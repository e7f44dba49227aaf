"""Synthetic citation corpora with tunable concentration and name collisions.

The generator grows a population of authors who publish over their first
ten career years and receive citations by cumulative advantage: each
citation picks an author with probability proportional to
(1 + citations so far) ** alpha among authors with citable (at most four
years old) papers, then lands on one of that author's citable papers.
alpha = 0 spreads citations uniformly over active authors; large alpha
concentrates them. Ground-truth identities are returned alongside the
corpus, keyed by mention id.

Everything is driven by one seeded generator, so a config plus seed pins
the corpus bit for bit. The citation bookkeeping (who is citable, whose
papers a hit lands on, the running citation counts and each paper's citing
years) is kept in arrays; the draws are still made one call at a time, with
the same arguments and in the same order as a loop over the hits, which
tests/oracle.py keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import isfinite
from pathlib import Path
from typing import Mapping

import numpy as np

from .columns import _Builder, _indptr, _ranges
from .corpus import Corpus, collector_paused
from .diffusion import model_matrix
from .jsonio import read_config
from .mobility import DEFAULT_BINS, RankTable, _balanced_bins

_SYLLABLES = (
    "ba", "bel", "cor", "dan", "dre", "fa", "gar", "hol", "jin", "ka",
    "lem", "low", "mar", "mor", "nel", "or", "pa", "quin", "ral", "ru",
    "sa", "sol", "tan", "tor", "ul", "van", "wen", "wick", "yar", "zel",
)


def _pseudo_word(index: int, syllables: int) -> str:
    parts = []
    value = index
    for _ in range(syllables):
        parts.append(_SYLLABLES[value % len(_SYLLABLES)])
        value //= len(_SYLLABLES)
    return "".join(parts).capitalize()


def _surname(index: int) -> str:
    return _pseudo_word(index + 50_000, 2 + index % 2)


def _given(index: int) -> str:
    return _pseudo_word(index + 7_001, 2)


# Draws allowed for one fresh name before the name space counts as used up.
# A fresh name takes a handful of draws unless nearly every name is taken.
_MAX_NAME_DRAWS = 100_000


# Settings that no caller varies. CAREER_YEARS is 10 because
# cohort.cohort_impacts reads the career windows start..start+9. The papers an
# author leads per year are Poisson with mean PAPER_RATE times a per-author
# lognormal productivity factor of log-scale PRODUCTIVITY_SIGMA.
CAREER_YEARS = 10
PAPER_RATE = 0.8
PRODUCTIVITY_SIGMA = 0.6
# Attribute noise: the chance that a mention drops each field, and that a
# paper takes a second discipline.
P_MISSING_EMAIL = 0.4
P_MISSING_AFFILIATION = 0.3
P_MISSING_GRANTS = 0.5
P_SECOND_DISCIPLINE = 0.1
# Each author's collaborator pool, of a size drawn from COLLABORATORS
# (inclusive), comes from their research group of GROUP_SIZE (see
# _make_authors); a paper takes up to MAX_COAUTHORS of it as coauthors.
COLLABORATORS = (2, 4)
GROUP_SIZE = 6
MAX_COAUTHORS = 3
# A paper cites a collaborator's latest work with P_COLLAB_REFERENCE; a
# LATE_CITATION_RATE share of each year's citations goes to papers five to
# nine years old; attachment weights refresh UPDATES_PER_YEAR times a year.
P_COLLAB_REFERENCE = 0.4
LATE_CITATION_RATE = 0.05
UPDATES_PER_YEAR = 10


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator; n_authors and seed have no defaults.

    citation_rate is the expected citations per citable paper-year.
    name_collision_rate is the probability that a new author adopts the
    exact full name of an earlier one; fresh identities always get a full
    name nobody has used yet, so zero collision rate means unique names.
    p_missing_orcid and p_initials_only are the chances that a mention
    drops its ORCID and that it gives only the given name's initial.

    Surnames are drawn from surname_pool indices with Zipf weights and
    given names uniformly from given_pool indices. Both pools count
    indices, not names: pseudo-words repeat, so the distinct surnames can
    be fewer (1,950 for the default 3,000). Generation fails with
    ValueError when a fresh identity finds no unused full name.
    """

    n_authors: int
    seed: int
    start_years: tuple[int, int] = (2000, 2002)
    disciplines: tuple[str, ...] = ("Chemistry", "Biology", "Materials")
    alpha: float = 1.0
    citation_rate: float = 2.0
    name_collision_rate: float = 0.0
    p_missing_orcid: float = 0.5
    p_initials_only: float = 0.2
    surname_pool: int = 3000
    zipf_exponent: float = 1.0
    given_pool: int = 300

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if self.n_authors < 1:
            raise ValueError("n_authors must be positive")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        for name in ("name_collision_rate", "p_missing_orcid", "p_initials_only"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.start_years[0] > self.start_years[1]:
            raise ValueError("start_years must be a nondecreasing pair")
        if self.citation_rate < 0:
            raise ValueError("citation_rate must be nonnegative")
        if not self.disciplines:
            raise ValueError("at least one discipline is required")
        for k, label in enumerate(self.disciplines):
            # A corpus line joins a paper's labels with ';' and ingest strips them.
            if not label or label != label.strip() or ";" in label:
                raise ValueError(f"discipline label {label!r} must be non-blank, unpadded and free of ';'")
            # Authors draw their discipline uniformly from the list.
            if label in self.disciplines[:k]:
                raise ValueError(f"'disciplines' lists {label!r} twice")
        if self.surname_pool < 1 or self.given_pool < 1:
            raise ValueError("surname_pool and given_pool must be positive")

    @classmethod
    def from_json(cls, source: str | Path | Mapping) -> "SynthConfig":
        """Read and type-check a config; any problem raises ValueError."""
        return read_config(cls, source, "generator config", ValueError)


@dataclass
class _Author:
    index: int
    given: str
    surname: str
    discipline: str
    start: int
    productivity: float
    orcid: str
    email: str
    affiliation: str
    grants: tuple[str, ...]
    journal: str
    pool: np.ndarray


@dataclass
class _Paper:
    year: int
    authors: tuple[int, ...]
    disciplines: tuple[str, ...]
    journal: str
    references: list[str]
    citing_years: list[int]
    pub_id: str = ""


def _make_authors(
    config: SynthConfig, rng: np.random.Generator, journals: Mapping[str, list[str]]
) -> list[_Author]:
    zipf_p = 1.0 / np.arange(1, config.surname_pool + 1, dtype=float) ** config.zipf_exponent
    zipf_cum = np.cumsum(zipf_p / zipf_p.sum())
    n_names = len({_surname(k) for k in range(config.surname_pool)}) * len(
        {_given(k) for k in range(config.given_pool)}
    )
    authors: list[_Author] = []
    used_names: set[tuple[str, str]] = set()
    for i in range(config.n_authors):
        discipline = config.disciplines[int(rng.integers(len(config.disciplines)))]
        start = int(rng.integers(config.start_years[0], config.start_years[1] + 1))
        if i > 0 and rng.random() < config.name_collision_rate:
            donor = authors[int(rng.integers(i))]
            given, surname = donor.given, donor.surname
        else:
            # Fresh identities never reuse a taken full name, so at zero
            # collision rate names identify authors exactly. No draw is
            # tried once every name is taken.
            for _ in range(_MAX_NAME_DRAWS if len(used_names) < n_names else 0):
                s_idx = int(np.searchsorted(zipf_cum, rng.random(), side="right"))
                surname = _surname(s_idx)
                given = _given(int(rng.integers(config.given_pool)))
                if (given, surname) not in used_names:
                    break
            else:
                raise ValueError(
                    f"no unused full name found for fresh author {i}: "
                    f"{len(used_names)} of the {n_names} distinct full names from surname_pool "
                    f"{config.surname_pool} and given_pool {config.given_pool} are taken; "
                    "raise a pool or name_collision_rate"
                )
            used_names.add((given, surname))
        grants = tuple(f"G-{i}-{k}" for k in range(int(rng.integers(1, 4))))
        authors.append(
            _Author(
                index=i,
                given=given,
                surname=surname,
                discipline=discipline,
                start=start,
                productivity=float(rng.lognormal(0.0, PRODUCTIVITY_SIGMA)),
                orcid=f"0000-0000-{i // 10000:04d}-{i % 10000:04d}",
                email=f"{given.lower()}.{surname.lower()}.{i}@example.edu",
                affiliation="",
                grants=grants,
                journal=journals[discipline][int(rng.integers(6))],
                pool=np.empty(0, dtype=np.int64),
            )
        )
    # Research groups: disciplines are partitioned into groups of
    # GROUP_SIZE. Group members share an institute, and collaborator pools
    # are drawn inside the group, so coauthor overlap is a stable
    # within-identity signal rather than a discipline-wide one.
    group_id = 0
    lo, hi = COLLABORATORS
    for d in config.disciplines:
        members = np.array([a.index for a in authors if a.discipline == d], dtype=np.int64)
        members = members[rng.permutation(len(members))]
        for pos in range(0, len(members), GROUP_SIZE):
            group = members[pos : pos + GROUP_SIZE]
            for idx in group:
                authors[int(idx)].affiliation = f"Institute {group_id:04d}"
            for idx in group:
                peers = group[group != idx]
                want = int(rng.integers(lo, hi + 1))
                if len(peers) == 0 or want == 0:
                    authors[int(idx)].pool = np.empty(0, dtype=np.int64)
                else:
                    take = min(want, len(peers))
                    authors[int(idx)].pool = np.sort(rng.choice(peers, size=take, replace=False))
            group_id += 1
    return authors


def _make_papers(
    config: SynthConfig,
    rng: np.random.Generator,
    authors: list[_Author],
    journals: Mapping[str, list[str]],
) -> list[_Paper]:
    other = {
        d: tuple(x for x in config.disciplines if x != d) for d in config.disciplines
    }
    papers: list[_Paper] = []
    for author in authors:
        for t in range(CAREER_YEARS):
            year = author.start + t
            k = int(rng.poisson(PAPER_RATE * author.productivity))
            if t == 0 and k == 0:
                k = 1  # the career start year anchors the cohort
            for _ in range(k):
                n_co = int(rng.integers(0, MAX_COAUTHORS + 1))
                if n_co > 0 and len(author.pool) > 0:
                    picked = rng.choice(author.pool, size=min(n_co, len(author.pool)), replace=False)
                    coauthors = tuple(int(c) for c in picked)
                else:
                    coauthors = ()
                if rng.random() < 0.7:
                    journal = author.journal
                else:
                    journal = journals[author.discipline][int(rng.integers(6))]
                disciplines = [author.discipline]
                extra = other[author.discipline]
                if extra and rng.random() < P_SECOND_DISCIPLINE:
                    disciplines.append(extra[int(rng.integers(len(extra)))])
                papers.append(
                    _Paper(
                        year=year,
                        authors=(author.index,) + coauthors,
                        disciplines=tuple(disciplines),
                        journal=journal,
                        references=[],
                        citing_years=[],
                    )
                )
    papers.sort(key=lambda p: p.year)
    width = max(7, len(str(len(papers))))
    for idx, paper in enumerate(papers):
        paper.pub_id = f"P{idx:0{width}d}"
    return papers


def _add_references(rng: np.random.Generator, authors: list[_Author], papers: list[_Paper]) -> None:
    """Reference lists: own recent work, sometimes a collaborator's, noise."""
    by_author: dict[int, list[int]] = {a.index: [] for a in authors}
    for idx, paper in enumerate(papers):
        lead = paper.authors[0]
        own = by_author[lead]
        refs: set[str] = set()
        if own:
            for j in own[-3:]:
                refs.add(papers[j].pub_id)
        pool = authors[lead].pool
        if len(pool) > 0 and rng.random() < P_COLLAB_REFERENCE:
            collab = int(pool[int(rng.integers(len(pool)))])
            their = by_author[collab]
            if their:
                refs.add(papers[their[-1]].pub_id)
        if idx > 0 and rng.random() < 0.5:
            refs.add(papers[int(rng.integers(idx))].pub_id)
        refs.discard(paper.pub_id)
        paper.references = sorted(refs)
        for a in paper.authors:
            by_author[a].append(idx)


@lru_cache(maxsize=None)
def _even_split(n: int) -> np.ndarray:
    """Equal probabilities over n papers, shared by every draw over n."""
    split = np.full(n, 1.0 / n)
    split.flags.writeable = False
    return split


def _simulate_citations(
    config: SynthConfig, rng: np.random.Generator, authors: list[_Author], papers: list[_Paper]
) -> None:
    """Cumulative-advantage citation arrival, batched within each year.

    Only the draws are made one call at a time, in the order of a loop over
    the hits; everything around them runs on arrays. Papers are sorted by
    year, so a span of years is a range of paper indices, and of rows of
    the paper-to-author incidence (m_paper, m_author), which lists each
    paper's authors in paper order.
    """
    n_papers = len(papers)
    if n_papers == 0 or config.citation_rate == 0:
        return
    paper_year = np.array([p.year for p in papers], dtype=np.int64)
    n_authors_of = np.array([len(p.authors) for p in papers], dtype=np.int64)
    row_of = _indptr(n_authors_of)
    m_paper = np.repeat(np.arange(n_papers), n_authors_of)
    m_author = np.fromiter((a for p in papers for a in p.authors), dtype=np.int64, count=int(row_of[-1]))
    author_citations = np.zeros(config.n_authors, dtype=np.int64)
    # Each year's citations as (paper, year, count) rows, in year order.
    cited_paper: list[np.ndarray] = []
    cited_year: list[int] = []
    cited_count: list[np.ndarray] = []

    for year in range(int(paper_year[0]), int(paper_year[-1]) + 5):
        # Stale papers (five to nine years old) are old..lo-1, citable ones lo..hi-1.
        old, lo, hi = np.searchsorted(paper_year, (year - 9, year - 4, year + 1)).tolist()
        if lo == hi:
            continue
        n_events = int(rng.poisson(config.citation_rate * (hi - lo)))
        if n_events == 0:
            continue
        n_late = int(rng.binomial(n_events, LATE_CITATION_RATE)) if old < lo else 0
        events = np.zeros(hi - old, dtype=np.int64)
        if n_late > 0:
            events[: lo - old] = np.bincount(rng.integers(0, lo - old, size=n_late), minlength=lo - old)
            rows = slice(row_of[old], row_of[lo])
            author_citations += np.bincount(
                m_author[rows], weights=events[m_paper[rows] - old], minlength=config.n_authors
            ).astype(np.int64)

        remaining = n_events - n_late
        if remaining > 0:
            # Each active author's citable papers, ascending, are mine[starts[j]:starts[j] + n_mine[j]].
            rows = slice(row_of[lo], row_of[hi])
            order = np.argsort(m_author[rows], kind="stable")
            by_author = m_author[rows][order]
            mine = m_paper[rows][order] - old
            starts = np.flatnonzero(np.concatenate(([True], by_author[1:] != by_author[:-1])))
            active = by_author[starts]
            n_mine = np.diff(np.append(starts, len(by_author)))
            batches = np.full(UPDATES_PER_YEAR, remaining // UPDATES_PER_YEAR)
            batches[: remaining % UPDATES_PER_YEAR] += 1
            for batch in batches:
                if batch == 0:
                    continue
                weights = (1.0 + author_citations[active].astype(float)) ** config.alpha
                probs = weights / weights.sum()
                per_author = rng.multinomial(int(batch), probs)
                hit = np.flatnonzero(per_author)
                got = np.zeros(hi - old, dtype=np.int64)
                # Coauthors can each be the one-paper hit on the same paper,
                # so the repeated indices are added with np.add.at.
                one = hit[n_mine[hit] == 1]
                np.add.at(got, mine[starts[one]], per_author[one])
                many = hit[n_mine[hit] > 1]
                if len(many):
                    k = n_mine[many]
                    splits = [
                        rng.multinomial(count, _even_split(n))
                        for count, n in zip(per_author[many].tolist(), k.tolist())
                    ]
                    at = _ranges(starts[many], k)
                    got += np.bincount(mine[at], weights=np.concatenate(splits), minlength=hi - old).astype(np.int64)
                author_citations[active] += np.add.reduceat(got[mine], starts)
                events += got

        cited = np.flatnonzero(events)
        cited_paper.append(cited + old)
        cited_year.append(year)
        cited_count.append(events[cited])

    if not cited_paper:
        return
    paper_rows = np.concatenate(cited_paper)
    count_rows = np.concatenate(cited_count)
    year_rows = np.repeat(cited_year, [len(c) for c in cited_paper])
    # A stable sort keeps each paper's rows in year order.
    order = np.argsort(paper_rows, kind="stable")
    citing = np.repeat(year_rows[order], count_rows[order]).tolist()
    bounds = _indptr(np.bincount(paper_rows, weights=count_rows, minlength=n_papers).astype(np.int64)).tolist()
    for paper, begin, end in zip(papers, bounds, bounds[1:]):
        paper.citing_years = citing[begin:end]


@collector_paused()
def generate_corpus(config: SynthConfig) -> tuple[Corpus, dict[str, str]]:
    """Generate a corpus and its ground-truth mention labels.

    The cyclic garbage collector is paused for the whole process while the
    corpus is generated (:func:`~rankmobility.corpus.collector_paused`).

    Returns
    -------
    (Corpus, dict)
        The corpus, and truth mapping mention_id -> true author id.
    """
    rng = np.random.default_rng(config.seed)
    journals = {d: [f"Journal of {d} {k + 1}" for k in range(6)] for d in config.disciplines}
    authors = _make_authors(config, rng, journals)
    papers = _make_papers(config, rng, authors, journals)
    _add_references(rng, authors, papers)
    _simulate_citations(config, rng, authors, papers)

    labels: list[str] = []
    builder = _Builder()
    for record in _records(config, rng, authors, papers, labels):
        builder.add(record)
    corpus = Corpus(builder.columns())
    return corpus, dict(zip(corpus.mentions.ids, labels))


def _records(config: SynthConfig, rng: np.random.Generator, authors: list[_Author], papers: list[_Paper],
             labels: list[str]):
    """Each paper as a record, the dict its corpus line parses to, in paper
    order, with each mention's true author id appended to labels, so that
    they follow the mention table's rows."""
    # Five draws per mention, in mention order: the same numbers as one
    # rng.random() call per draw.
    draws = rng.random((sum(len(paper.authors) for paper in papers), 5))
    row = 0
    for paper in papers:
        mentions = []
        for author_idx, (initials, orcid, email, affiliation, grants) in zip(
            paper.authors, draws[row:row + len(paper.authors)].tolist()
        ):
            author = authors[author_idx]
            if initials < config.p_initials_only:
                name = f"{author.given[0]}. {author.surname}"
            else:
                name = f"{author.given} {author.surname}"
            mention: dict = {"name": name, "journal": paper.journal}
            if paper.references:
                mention["references"] = paper.references
            if orcid >= config.p_missing_orcid:
                mention["orcid"] = author.orcid
            if email >= P_MISSING_EMAIL:
                mention["email"] = author.email
            if affiliation >= P_MISSING_AFFILIATION:
                mention["affiliation"] = author.affiliation
            if grants >= P_MISSING_GRANTS:
                mention["grants"] = list(author.grants)
            mentions.append(mention)
            labels.append(f"A{author_idx:06d}")
        row += len(paper.authors)
        yield {"pub_id": paper.pub_id, "year": paper.year, "disciplines": ";".join(paper.disciplines),
               "authors": mentions, "citing_years": paper.citing_years}


def sample_transitions(
    d: float, n_authors: int, seed: int, n_bins: int = DEFAULT_BINS
) -> RankTable:
    """Draw a rank table whose transitions follow the diffusion kernel.

    First-window deciles are a balanced split; each author's second decile
    is drawn from the kernel column of their first. Intended for parameter
    recovery: impact2 holds the drawn decile as a placeholder, so only q1
    and q2 carry signal.
    """
    if n_authors < 1000:
        raise ValueError("need at least 1000 authors for a meaningful sample")
    rng = np.random.default_rng(seed)
    matrix = model_matrix(d, n_bins)
    q1 = _balanced_bins(n_authors, n_bins) + 1
    q2 = np.empty(n_authors, dtype=np.int64)
    for j in range(1, n_bins + 1):
        idx = np.nonzero(q1 == j)[0]
        q2[idx] = rng.choice(n_bins, size=len(idx), p=matrix[:, j - 1]) + 1
    width = len(str(n_authors))
    ids = tuple(f"S{k:0{width}d}" for k in range(n_authors))
    return RankTable(
        author_ids=ids,
        impact1=np.arange(n_authors, dtype=float),
        impact2=q2.astype(float),
        q1=q1,
        q2=q2,
        n_bins=n_bins,
    )
