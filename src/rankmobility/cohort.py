"""Author careers, discipline cohorts over the first ten career years, and
the discipline populations of five-year windows."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .columns import _unique
from .corpus import Corpus
from .disambig import DisambigError, MentionCluster


@dataclass(frozen=True, eq=False)
class Careers:
    """Disambiguated authors as one read-only array table.

    author_ids are sorted. Row k of author and pub says that author
    author_ids[author[k]] wrote publication pub[k]; each (author,
    publication) pair is one row, however many of the author's mentions it
    holds. year and c5 are per publication, and disciplines maps each label
    to a mask of the publications tagged with it. An author's start
    is the earliest year among their publications, whatever the discipline;
    a later first paper in some other field does not restart the clock there.
    """

    author_ids: tuple[str, ...]
    author: np.ndarray
    pub: np.ndarray
    year: np.ndarray
    c5: np.ndarray
    disciplines: Mapping[str, np.ndarray]
    start: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.author, self.pub, self.year, self.c5, self.start, *self.disciplines.values()):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.author_ids)

    def impacts(self, discipline: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per author: whether they have a publication tagged with the
        discipline in the years [lo, hi], and the c5 sum of those publications."""
        tagged = self.disciplines.get(discipline)
        if tagged is None:
            tagged = np.zeros(len(self.year), bool)
        counted = tagged & (lo <= self.year) & (self.year <= hi)
        rows = counted[self.pub]
        authors = self.author[rows]
        n = len(self.author_ids)
        active = np.bincount(authors, minlength=n) > 0
        total = np.bincount(authors, weights=self.c5[self.pub[rows]], minlength=n)
        return active, total.astype(np.int64)


def build_profiles(corpus: Corpus, clusters: Sequence[MentionCluster]) -> Careers:
    """One career per cluster, labelled in author_id order."""
    ordered = sorted(clusters, key=attrgetter("author_id"))
    sizes = [len(c.mention_ids) for c in ordered]
    mention_ids = [mid for c in ordered for mid in c.mention_ids]
    row_of = dict(zip(corpus.mentions.ids, range(len(corpus.mentions))))
    rows = np.fromiter((row_of.get(mid, -1) for mid in mention_ids), np.int64, len(mention_ids))
    labels = np.repeat(np.arange(len(ordered), dtype=np.int64), sizes)
    if (unknown := np.flatnonzero(rows < 0)).size:
        k = unknown[0]
        raise DisambigError(f"cluster {ordered[labels[k]].author_id} references unknown mention {mention_ids[k]}")
    n_pubs = max(len(corpus), 1)
    pairs = _unique(labels * n_pubs + corpus.mentions.pub[rows])
    author, pub = np.divmod(pairs, n_pubs)
    start = np.full(len(ordered), np.iinfo(np.int64).max)
    np.minimum.at(start, author, corpus.year[pub])
    return Careers(
        author_ids=tuple(c.author_id for c in ordered),
        author=author,
        pub=pub,
        year=corpus.year,
        c5=corpus.c5,
        disciplines=MappingProxyType(corpus.discipline_masks()),
        start=start,
    )


def cohort_impacts(careers: Careers, discipline: str, start_year: int) -> tuple[list[str], list[int], list[int]]:
    """Member ids (sorted) with their window-1 and window-2 discipline impacts.

    The career windows are [start_year, start_year+4] and [start_year+5,
    start_year+9]. Members start their career in start_year and publish in
    the discipline in both windows.
    """
    active1, impact1 = careers.impacts(discipline, start_year, start_year + 4)
    active2, impact2 = careers.impacts(discipline, start_year + 5, start_year + 9)
    members = np.flatnonzero((careers.start == start_year) & active1 & active2)
    return [careers.author_ids[k] for k in members], impact1[members].tolist(), impact2[members].tolist()


def population_impacts(careers: Careers, discipline: str, year: int) -> np.ndarray:
    """The c5 sums of everyone with a publication tagged with the discipline
    in [year, year+4], whatever their career stage, in author_id order."""
    active, impacts = careers.impacts(discipline, year, year + 4)
    return impacts[active]
