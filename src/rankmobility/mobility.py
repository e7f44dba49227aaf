"""Decile ranking, rank transition matrices, and reshuffling null models.

Transition matrices are column-stochastic: entry (i, j) is the probability
of landing in decile i of the second career window given decile j in the
first, with decile 1 the lowest-impact tenth and decile 10 the highest.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvio import finite_float, read_csv, write_csv

DEFAULT_BINS = 10


def _balanced_bins(n: int, n_bins: int) -> np.ndarray:
    """0-based bin of each of n sorted positions: position k lands in bin
    k * n_bins // n, so bin occupancies differ by at most one."""
    return np.arange(n, dtype=np.int64) * n_bins // n


def _assign_deciles(ids: np.ndarray, values: np.ndarray, n_bins: int) -> np.ndarray:
    """Near-equal decile split of values, ties broken by author id."""
    bins = np.empty(len(values), dtype=np.int64)
    bins[np.lexsort((ids, values))] = _balanced_bins(len(values), n_bins) + 1
    return bins


@dataclass(eq=False)
class RankTable:
    """Per-cohort impacts and decile positions for both career windows."""

    author_ids: tuple[str, ...]
    impact1: np.ndarray
    impact2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    n_bins: int = DEFAULT_BINS

    def __len__(self) -> int:
        return len(self.author_ids)

    @classmethod
    def from_impacts(
        cls,
        author_ids: Sequence[str],
        impact1: Sequence[float],
        impact2: Sequence[float],
        n_bins: int = DEFAULT_BINS,
    ) -> "RankTable":
        n = len(author_ids)
        if not (n == len(impact1) == len(impact2)):
            raise ValueError("author_ids, impact1 and impact2 must have equal length")
        if n < n_bins:
            raise ValueError(f"cohort too small to rank: {n} authors < {n_bins} bins")
        ids_arr = np.array([str(a) for a in author_ids])
        if len(set(author_ids)) != n:
            raise ValueError("duplicate author ids in cohort")
        i1 = np.asarray(impact1, dtype=float)
        i2 = np.asarray(impact2, dtype=float)
        return cls(
            author_ids=tuple(str(a) for a in author_ids),
            impact1=i1,
            impact2=i2,
            q1=_assign_deciles(ids_arr, i1, n_bins),
            q2=_assign_deciles(ids_arr, i2, n_bins),
            n_bins=n_bins,
        )


@dataclass(eq=False)
class TransitionMatrix:
    """Column-stochastic rank transition estimate.

    A starting bin with no observations gets a uniform column rather than
    NaNs; uniform_columns lists those bins, 1-based.
    """

    matrix: np.ndarray
    uniform_columns: tuple[int, ...] = ()

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "TransitionMatrix":
        """Normalize an (ending bin, starting bin) count matrix per column."""
        totals = counts.sum(axis=0)
        empty = totals == 0
        matrix = np.full(counts.shape, 1.0 / counts.shape[0])
        np.divide(counts, totals, out=matrix, where=~empty)
        return cls(matrix=matrix, uniform_columns=tuple(int(j) + 1 for j in np.flatnonzero(empty)))


def _count_cells(cells: np.ndarray, n_bins: int) -> np.ndarray:
    """(ending bin, starting bin) count matrix of flat 0-based cell indices
    ending * n_bins + starting."""
    return np.bincount(cells, minlength=n_bins * n_bins).reshape(n_bins, n_bins)


def transition_counts(q1: np.ndarray, q2: np.ndarray, n_bins: int) -> np.ndarray:
    return _count_cells((np.asarray(q2) - 1) * n_bins + (np.asarray(q1) - 1), n_bins)


def transition_matrix(table: RankTable) -> TransitionMatrix:
    """Estimate the rank transition matrix of a cohort."""
    return TransitionMatrix.from_counts(transition_counts(table.q1, table.q2, table.n_bins))


@dataclass(eq=False)
class DeltaQProfile:
    """Mean decile change by starting decile, with standard errors.

    sem is NaN where a bin holds fewer than two authors; mean is NaN for an
    empty bin.
    """

    deciles: np.ndarray
    mean: np.ndarray
    sem: np.ndarray
    count: np.ndarray


def _profile(counts: np.ndarray) -> DeltaQProfile:
    """Decile-change profile of an (ending bin, starting bin) count matrix.

    Every author in cell (i, j) moved by exactly i - j, so the per-column
    moments are count-weighted sums of that offset. All sums are of
    integer-valued doubles, hence exact in any order.
    """
    n_bins = counts.shape[0]
    bins = np.arange(n_bins)
    offset = (bins[:, None] - bins[None, :]).astype(float)
    count = counts.sum(axis=0)
    total = (counts * offset).sum(axis=0)
    total_sq = (counts * offset * offset).sum(axis=0)
    mean = np.full(n_bins, np.nan)
    sem = np.full(n_bins, np.nan)
    nonzero = count > 0
    mean[nonzero] = total[nonzero] / count[nonzero]
    multi = count > 1
    if multi.any():
        var = (total_sq[multi] - count[multi] * mean[multi] ** 2) / (count[multi] - 1)
        sem[multi] = np.sqrt(np.maximum(var, 0.0) / count[multi])
    return DeltaQProfile(deciles=bins + 1, mean=mean, sem=sem, count=count)


def delta_q_profile(table: RankTable) -> DeltaQProfile:
    """Per starting decile: mean and SEM of (second decile - first decile)."""
    return _profile(transition_counts(table.q1, table.q2, table.n_bins))


@dataclass(eq=False)
class ReshuffleNull:
    """Pooled null statistics from reshuffled second-window impacts."""

    profile: DeltaQProfile
    matrix: TransitionMatrix
    n_reps: int


def reshuffle_null(
    table: RankTable, n_reps: int = 100, seed: int | np.random.SeedSequence = 0
) -> ReshuffleNull:
    """Permutation null: second-window impacts reshuffled across authors.

    Each repetition permutes impact2, re-ranks, and adds its transition
    counts to a pooled count matrix, from which both the null profile and
    the null matrix follow. Repetitions draw from spawned child streams of
    the seed, so results do not depend on execution order.

    A repetition ranks as _assign_deciles would, by one stable sort of small
    keys. The multiset of impact2 never changes, so each distinct value
    always fills the same run of sorted positions; its key is the decile of
    the run's first position plus that of its last. Keys rise with the
    values, and two values share a key only if both runs lie wholly in one
    decile. So a stable sort of the keys the authors receive, taken in id
    order, puts every author in the decile _assign_deciles would, with ties
    broken by author id. At most 2 * n_bins - 1 keys, in the smallest
    integer type, let numpy sort them by radix.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    n = len(table)
    n_bins = table.n_bins
    by_id = np.argsort(np.array(table.author_ids), kind="stable")
    _, group, size = np.unique(table.impact2, return_inverse=True, return_counts=True)
    decile = _balanced_bins(n, n_bins)
    last = np.cumsum(size) - 1
    # Each distinct value's key, then each author row's.
    key = decile[last - size + 1] + decile[last]
    key = key.astype(np.min_scalar_type(key.max(initial=0)))[group]
    # Each sorted position's decile as the ending part of a flat cell index.
    ending = decile * n_bins
    starting = table.q1[by_id] - 1
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    for child in seq.spawn(n_reps):
        # Gathered through the intp permutation: numpy permutes a narrow array more slowly.
        received = key[np.random.default_rng(child).permutation(n)[by_id]]
        counts += _count_cells(ending + starting[np.argsort(received, kind="stable")], n_bins)
    return ReshuffleNull(profile=_profile(counts), matrix=TransitionMatrix.from_counts(counts), n_reps=n_reps)


@dataclass(eq=False)
class DeltaPMatrix:
    """Elementwise gap between an empirical matrix and a model matrix.

    top_gap and bottom_gap are the persistence-probability excesses in the
    highest and lowest bins; columns of the gap matrix sum to zero.
    """

    matrix: np.ndarray
    top_gap: float
    bottom_gap: float


def delta_p(empirical: TransitionMatrix, model: np.ndarray) -> DeltaPMatrix:
    model = np.asarray(model, dtype=float)
    if model.shape != empirical.matrix.shape:
        raise ValueError(
            f"shape mismatch: empirical {empirical.matrix.shape} vs model {model.shape}"
        )
    gap = empirical.matrix - model
    return DeltaPMatrix(matrix=gap, top_gap=float(gap[-1, -1]), bottom_gap=float(gap[0, 0]))


def _fmt_num(x: float) -> str:
    value = float(x)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_RANK_TABLE_HEADER = ("author_id", "impact1", "impact2", "q1", "q2")
_DELTA_Q_HEADER = ("decile", "mean_dq", "sem", "count")


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Square matrix as CSV: header row of starting bins, one row per ending bin."""
    matrix = np.asarray(matrix)
    header = [str(j) for j in range(1, matrix.shape[1] + 1)]
    write_csv(path, header, ([repr(float(v)) for v in row] for row in matrix))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    matrix = np.array(list(read_csv(path, "matrix", parse=lambda row: [float(v) for v in row])), dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix file is not square with header: {path}")
    return matrix


def write_rank_table_csv(path: str | Path, table: RankTable) -> None:
    rows = (
        [aid, _fmt_num(i1), _fmt_num(i2), str(int(q1)), str(int(q2))]
        for aid, i1, i2, q1, q2 in zip(table.author_ids, table.impact1, table.impact2, table.q1, table.q2)
    )
    write_csv(path, _RANK_TABLE_HEADER, rows)


def _has_repeat(items: list[str]) -> bool:
    ordered = sorted(items)
    return any(a == b for a, b in zip(ordered, ordered[1:]))


def read_rank_table_csv(path: str | Path, n_bins: int = DEFAULT_BINS) -> RankTable:
    """Read a rank table; a non-finite impact, a decile outside 1..n_bins or
    a repeated author id is an error naming its line, and a table of fewer
    than n_bins rows is an error as in RankTable.from_impacts."""

    def parse(row: list[str]) -> tuple[str, float, float, int, int]:
        q1, q2 = int(row[3]), int(row[4])
        if not (0 < q1 <= n_bins and 0 < q2 <= n_bins):
            raise ValueError(f"decile outside 1..{n_bins}")
        return row[0], finite_float(row[1]), finite_float(row[2]), q1, q2

    # Converted row by row: rank tables are the one large CSV input. Numbers
    # go into typed arrays, not lists, so no float object outlives its row.
    ids: list[str] = []
    i1, i2, q1, q2 = array("d"), array("d"), array("q"), array("q")
    for aid, a, b, c, d in read_csv(path, "rank table", _RANK_TABLE_HEADER, parse=parse):
        ids.append(aid)
        i1.append(a)
        i2.append(b)
        q1.append(c)
        q2.append(d)
    if len(ids) < n_bins:
        raise ValueError(f"rank table file {path}: cohort too small to rank: {len(ids)} authors < {n_bins} bins")
    if _has_repeat(ids):
        # Read again only to name the repeat's line: a set of every id while
        # reading would raise the peak memory of every read.
        seen: set[str] = set()

        def first_use(row: list[str]) -> None:
            if row[0] in seen:
                raise ValueError(f"repeated author_id {row[0]!r}")
            seen.add(row[0])

        for _ in read_csv(path, "rank table", _RANK_TABLE_HEADER, parse=first_use):
            pass
    return RankTable(
        author_ids=tuple(ids),
        impact1=np.array(i1, dtype=float),
        impact2=np.array(i2, dtype=float),
        q1=np.array(q1, dtype=np.int64),
        q2=np.array(q2, dtype=np.int64),
        n_bins=n_bins,
    )


def write_delta_q_csv(path: str | Path, profile: DeltaQProfile) -> None:
    rows = (
        [str(int(d)), repr(float(m)), repr(float(s)), str(int(c))]
        for d, m, s, c in zip(profile.deciles, profile.mean, profile.sem, profile.count)
    )
    write_csv(path, _DELTA_Q_HEADER, rows)


def read_delta_q_csv(path: str | Path) -> DeltaQProfile:
    def parse(row: list[str]) -> tuple[int, float, float, int]:
        return int(row[0]), float(row[1]), float(row[2]), int(row[3])

    rows = list(read_csv(path, "decile-change profile", _DELTA_Q_HEADER, parse=parse))
    deciles, mean, sem, count = zip(*rows) if rows else ((), (), (), ())
    return DeltaQProfile(
        deciles=np.array(deciles, dtype=np.int64),
        mean=np.array(mean, dtype=float),
        sem=np.array(sem, dtype=float),
        count=np.array(count, dtype=np.int64),
    )
