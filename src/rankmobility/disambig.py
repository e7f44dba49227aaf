"""Rule-based author name disambiguation.

Mentions are first blocked on (normalized surname, first given initial);
within a block a pair is linked when the weights of the criteria it
satisfies reach the threshold of a weighted criterion table. Only the
pairs that share a value of an anchor criterion can (see _Plan), so only
those are listed, from the (block, value) groups of the mention table,
and scored. Identity clusters are the connected components of the linked
pairs (single linkage), so evidence chains: A-B and B-C merge A, B and C
even if A and C share nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from math import comb, inf
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .columns import _indptr, _ranges
from .corpus import Corpus
from .jsonio import load, read_config, read_lines, write_lines

BlockKey = tuple[str, str]


class DisambigError(Exception):
    """Bad rule table or inconsistent cluster/truth inputs."""


# The pair criteria, one (criterion, kind, column) row each: column names
# the MentionTable column that holds the values the criterion compares, and
# kind how two rows' values satisfy it: same (both set and equal), overlap
# (the sets intersect) or cites (one row's publication is among the other's
# references). A criterion's row number is its bit in a mask of criteria.
_CRITERIA_TABLE = (
    ("orcid_match", "same", "orcid"),
    ("email_match", "same", "email"),
    # Spelled-out given names agreeing beyond the blocking key.
    ("name_detail_match", "same", "given_detail"),
    ("shared_affiliation", "same", "affiliation"),
    ("shared_coauthor", "overlap", "coauthor_names"),
    ("shared_grant", "overlap", "grant_ids"),
    ("same_journal", "same", "journal"),
    ("shared_discipline", "overlap", "disciplines"),
    ("self_citation", "cites", "references"),
    ("bibliographic_coupling", "overlap", "references"),
    ("co_citation", "overlap", "cited_by"),
)

CRITERIA = tuple(row[0] for row in _CRITERIA_TABLE)


@dataclass(frozen=True)
class ScoringRuleTable:
    """Criterion weights plus the linking threshold.

    Weights must be finite and nonnegative and every criterion name must
    come from CRITERIA; the threshold must be positive and finite. Criteria
    absent from the table contribute nothing. Weights and threshold are
    stored as floats.
    """

    weights: Mapping[str, float]
    threshold: float

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(CRITERIA)
        if unknown:
            raise DisambigError(f"unknown criteria: {', '.join(sorted(unknown))}")
        if not all(0 <= w < inf for w in self.weights.values()):
            raise DisambigError("criterion weights must be finite and nonnegative")
        if not 0 < self.threshold < inf:
            raise DisambigError("threshold must be positive and finite")
        object.__setattr__(self, "weights", {k: float(w) for k, w in self.weights.items()})
        object.__setattr__(self, "threshold", float(self.threshold))

    def weight(self, criterion: str) -> float:
        return self.weights.get(criterion, 0.0)

    @classmethod
    def from_json(cls, path: str | Path | None) -> "ScoringRuleTable":
        """The rule table in the JSON file at path; None gives the builtin table."""
        if path is None:
            return cls.default()
        return cls._from_payload(load(path, "rule table", DisambigError), str(path))

    @classmethod
    def default(cls) -> "ScoringRuleTable":
        text = resources.files("rankmobility.data").joinpath("default_rules.json").read_text("utf-8")
        return cls._from_payload(json.loads(text), "builtin default_rules.json")

    @classmethod
    def _from_payload(cls, payload: object, source: str) -> "ScoringRuleTable":
        """Other keys, such as the builtin table's comment, are ignored."""
        if not isinstance(payload, dict) or "weights" not in payload or "threshold" not in payload:
            raise DisambigError(f"rule table {source} needs 'weights' and 'threshold'")
        table = {key: payload[key] for key in ("weights", "threshold")}
        return read_config(cls, table, f"rule table {source}", DisambigError)


def block_mentions(corpus: Corpus) -> dict[BlockKey, Block]:
    """Group mentions by (surname, first initial), keys sorted."""
    return _Blocks(corpus.mentions).by_key()


@dataclass(frozen=True)
class MentionCluster:
    """One inferred author identity; the id is the smallest mention id."""

    author_id: str
    mention_ids: tuple[str, ...]


class _Member(NamedTuple):
    mention_id: str


class _Blocks:
    """The blocks of a mention table, with the forest cluster_block reads
    their clusters from.

    The rows are laid out block by block (in table order within a block), so
    that each block is a run bounds[b]:bounds[b + 1] of that layout. The
    forest is computed for a run of consecutive blocks at once (_Run), on
    the first block of it that is asked for, and kept until a block outside
    it, or other rules, are asked for. The rules' plan is kept with them
    and computed again only for other rules.
    """

    def __init__(self, table):
        key, keys = table.block_keys()
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        rank = np.empty(len(keys), np.int32)
        rank[ranked] = np.arange(len(keys))
        self.keys = [keys[k] for k in ranked]
        self.table = table
        block = rank[key]
        self.order = np.argsort(block, kind="stable").astype(np.int32)
        sizes = np.bincount(block, minlength=len(keys))
        self.bounds = _indptr(sizes)
        # The block pairs before each block.
        self.pairs_before = _indptr(sizes * (sizes - 1) // 2)
        ids = table.ids
        self.ids = [ids[r] for r in self.order.tolist()]
        self._run: tuple | None = None

    def by_key(self) -> dict[BlockKey, Block]:
        return {key: Block(self, b) for b, key in enumerate(self.keys)}

    def roots(self, b: int, rules: ScoringRuleTable) -> np.ndarray:
        """The root of each row of block b in the forest of the pairs that
        the rules link: the first row of its component in b's run."""
        run = self._run
        if run is None or run[0] != rules or not run[2] <= b < run[3]:
            plan = run[1] if run is not None and run[0] == rules else _plan(rules)
            before = self.pairs_before
            stop = max(b + 1, int(np.searchsorted(before, before[b] + _RUN_PAIRS, side="right")) - 1)
            self._run = run = (rules, plan, b, stop, _Run(self, b, stop).forest(plan))
        lo = self.bounds[run[2]]
        return run[4][self.bounds[b] - lo:self.bounds[b + 1] - lo]


class Block:
    """The rows of one block of a mention table, as block_mentions gives
    them and cluster_block takes them. Iterating a block yields each row's
    mention id as an item with a mention_id field."""

    def __init__(self, blocks: _Blocks, b: int):
        self._blocks = blocks
        self._b = b
        self._lo, self._hi = int(blocks.bounds[b]), int(blocks.bounds[b + 1])

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        return map(_Member, self.mention_ids)

    @property
    def mention_ids(self) -> list[str]:
        return self._blocks.ids[self._lo:self._hi]


# The pairs handled at once. A run takes the blocks from the one asked for
# on while their block pairs stay within this bound, and at least that one
# block; its candidate pairs are then scored a chunk of rows at a time,
# each chunk holding about this many of them.
_RUN_PAIRS = 1 << 16
# Bits that number a criterion, below a pair's number in a sorted key.
_SHIFT = len(CRITERIA).bit_length()


class _Plan(NamedTuple):
    """How a rule table links pairs, by criterion number (its row of
    _CRITERIA_TABLE and its bit in a criteria mask).

    links[mask] says whether the weights of the criteria in mask, added
    largest first, reach the threshold. others are the lowest positive
    weights, taken in ascending order (same before overlap and cites among
    equal weights) while their sum stays below the threshold, so a pair
    that satisfies none of the anchors, the remaining positive criteria,
    never links. others_mask holds the bits of others, which are listed
    same first, then by descending weight.
    """

    anchors: list[int]
    others: list[int]
    others_mask: int
    links: np.ndarray


def _plan(rules: ScoringRuleTable) -> _Plan:
    weights = [rules.weight(name) for name in CRITERIA]
    masks = np.arange(1 << len(CRITERIA))
    total = np.zeros(len(masks))
    # Largest first, as a pair's weights are added; a miss adds 0.0, which changes no sum.
    for k in sorted(range(len(CRITERIA)), key=lambda k: -weights[k]):
        total += np.where(masks >> k & 1, weights[k], 0.0)
    links = total >= rules.threshold
    same = [kind == "same" for _, kind, _ in _CRITERIA_TABLE]
    ascending = sorted((k for k in range(len(CRITERIA)) if weights[k] > 0), key=lambda k: (weights[k], not same[k]))
    others_mask = 0
    for k in ascending:
        if links[others_mask | 1 << k]:
            break
        others_mask |= 1 << k
    anchors = [k for k in ascending if not others_mask >> k & 1]
    others = sorted((k for k in ascending if others_mask >> k & 1), key=lambda k: (not same[k], -weights[k]))
    return _Plan(anchors, others, others_mask, links)


class _Run:
    """Consecutive blocks first..stop-1 of a _Blocks, whose rows it numbers
    0..n-1 in block layout, so that each block is a range of them. Every
    row and pair below is in those numbers."""

    def __init__(self, blocks: _Blocks, first: int, stop: int):
        lo = blocks.bounds[first]
        self.table = blocks.table
        self.rows = blocks.order[lo:blocks.bounds[stop]]
        self.n = len(self.rows)
        self.bounds = blocks.bounds[first:stop + 1] - lo
        self.block = np.repeat(np.arange(stop - first), np.diff(self.bounds))
        self._held: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def held(self, column: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A set-valued column over the run as (indptr, codes, keys): row r
        holds the values of codes[indptr[r]:indptr[r + 1]], and keys holds
        code * n + row of every value a row holds, sorted."""
        if column not in self._held:
            sizes, codes = self.table.sets(column, self.rows)
            keys = np.sort(codes.astype(np.int64) * self.n + np.repeat(np.arange(self.n), sizes))
            self._held[column] = (_indptr(sizes), codes, keys)
        return self._held[column]

    def groups(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows that hold a value of a same or overlap criterion, grouped
        by (block, value), each group in ascending order, with where each
        group starts and its size."""
        _, kind, column = _CRITERIA_TABLE[k]
        if kind == "same":
            codes = self.table.codes(column)[self.rows]
            rows = np.flatnonzero(codes >= 0)
            keys = np.sort(codes[rows].astype(np.int64) * self.n + rows)
        else:
            keys = self.held(column)[2]
        codes, rows = np.divmod(keys, self.n)
        block = self.block[rows]
        new = np.ones(len(rows), bool)
        new[1:] = (codes[1:] != codes[:-1]) | (block[1:] != block[:-1])
        starts = np.flatnonzero(new)
        return rows, starts, np.diff(starts, append=len(rows))

    def citations(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (a, b), a != b, of rows of one block where b's
        publication is among a's references."""
        indptr, codes, _ = self.held("references")
        rows = np.repeat(np.arange(self.n), np.diff(indptr))
        own = np.sort(self.table.pub[self.rows] * self.n + np.arange(self.n))
        start = codes.astype(np.int64) * self.n + self.bounds[self.block[rows]]
        left = np.searchsorted(own, start)
        counts = np.searchsorted(own, start + np.diff(self.bounds)[self.block[rows]]) - left
        a, b = np.repeat(rows, counts), own[_ranges(left, counts)] % self.n
        return a[a != b], b[a != b]

    def listing(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair a < b that satisfies criterion k, once or more, as
        (first, count, start, partners): entry e lists the pairs of first[e]
        with each of partners[start[e]:start[e] + count[e]]."""
        if _CRITERIA_TABLE[k][1] == "cites":
            a, b = self.citations()
            return np.minimum(a, b), np.ones(len(a), np.int64), np.arange(len(a)), np.maximum(a, b)
        # Each row with every later row of its group.
        rows, starts, sizes = self.groups(k)
        after = np.arange(1, len(rows) + 1)
        return rows, np.repeat(starts + sizes, sizes) - after, after, rows

    def holds(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each pair (a[p], b[p]) satisfies criterion k."""
        _, kind, column = _CRITERIA_TABLE[k]
        if kind == "same":
            codes = self.table.codes(column)
            x, y = codes[self.rows[a]], codes[self.rows[b]]
            return (x == y) & (x >= 0)
        indptr, codes, keys = self.held(column)
        if kind == "cites":
            pub = self.table.pub[self.rows]
            return _member(keys, pub[a] * self.n + b) | _member(keys, pub[b] * self.n + a)
        # Each value of the row with fewer of them, looked up among the other's.
        sizes = np.diff(indptr)
        a, b = np.where(sizes[a] <= sizes[b], a, b), np.where(sizes[a] <= sizes[b], b, a)
        probes = codes[_ranges(indptr[a], sizes[a])].astype(np.int64) * self.n + np.repeat(b, sizes[a])
        return np.bincount(np.repeat(np.arange(len(a)), sizes[a])[_member(keys, probes)], minlength=len(a)) > 0

    def forest(self, plan: _Plan) -> np.ndarray:
        """Each row's root in the forest of the pairs the plan links.

        Every pair that can link satisfies an anchor, so the anchors list
        the pairs to score, a chunk of rows at a time: a chunk takes the
        pairs whose smaller row is in it, about _RUN_PAIRS of them.
        """
        n = self.n
        parent = np.arange(n)
        listings = [self.listing(k) for k in plan.anchors]
        listed = np.zeros(n, np.int64)
        for first, count, _, _ in listings:
            np.add.at(listed, first, count)
        chunk = (np.cumsum(listed) - listed) // max(_RUN_PAIRS, 1)
        cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), n]
        for lo, hi in zip(cuts, cuts[1:]):
            # (a * n + b) << _SHIFT | k for each pair a < b an anchor k
            # lists, written in place, then sorted.
            keys = np.empty(int(listed[lo:hi].sum()), np.int64)
            if not len(keys):
                continue
            end = 0
            for k, (first, count, start, partners) in zip(plan.anchors, listings):
                at = np.flatnonzero((first >= lo) & (first < hi))
                part = keys[end:end + int(count[at].sum())]
                np.multiply(np.repeat(first[at], count[at]), n, out=part)
                part += partners[_ranges(start[at], count[at])]
                part <<= _SHIFT
                part |= k
                end += len(part)
            keys.sort()
            # Each pair once, with the bits of the anchors it satisfies.
            bits = keys & (1 << _SHIFT) - 1
            np.left_shift(1, bits, out=bits)
            keys >>= _SHIFT
            first = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
            mask = np.bitwise_or.reduceat(bits, first)
            del bits
            _merge(parent, *np.divmod(self.linking(plan, keys[first], mask), n))
        return parent

    def linking(self, plan: _Plan, pair: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The pairs a * n + b that link among the pairs given, each with
        the mask of the anchors it satisfies.

        A pair whose anchors link it, or that cannot link even with every
        other criterion, is decided; for the rest the other criteria are
        checked one at a time, each for the pairs still undecided.
        """
        linked, undecided = [], plan.others_mask
        for k in [*plan.others, None]:
            links = plan.links[mask]
            linked.append(pair[links])
            open_ = ~links & plan.links[mask | undecided]
            pair, mask = pair[open_], mask[open_]
            # With no criterion left undecided, no pair is open.
            if not len(pair):
                break
            undecided &= ~(1 << k)
            mask |= self.holds(k, *np.divmod(pair, self.n)).astype(np.int64) << k
        return np.concatenate(linked)


def _member(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Whether each probe is among the sorted keys."""
    at = np.searchsorted(keys, probes)
    found = at < len(keys)
    found[found] = keys[at[found]] == probes[found]
    return found


def _merge(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of every pair (a[k], b[k]) in the forest parent,
    whose roots stay the smallest index of their component."""
    while True:
        while not np.array_equal(grand := parent[parent], parent):
            parent[:] = grand
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def cluster_block(block: Block, rules: ScoringRuleTable) -> list[MentionCluster]:
    """Single-linkage clustering of one block: the connected components of
    the pairs whose satisfied criteria's weights, added largest first,
    reach the threshold.

    Weights are nonnegative, so a pair can link only if it satisfies an
    anchor criterion (_Plan). Only the pairs that share a value of an
    anchor in their block are listed, from the (block, value) groups of
    the mention table. A listed pair's satisfied criteria form a mask, and
    the rule table's subset table (_Plan.links) says whether the mask
    links; the other criteria are checked only for the pairs they can
    still decide. The forest is computed for a run of neighbouring blocks
    at once, on the first of them asked for (_Blocks.roots), and a run's
    pairs a chunk at a time, so memory grows with _RUN_PAIRS, not with the
    square of a block.
    """
    groups: dict[int, list[str]] = {}
    for root, mention_id in zip(block._blocks.roots(block._b, rules).tolist(), block.mention_ids):
        groups.setdefault(root, []).append(mention_id)
    clusters = [
        MentionCluster(author_id=min(ids), mention_ids=tuple(sorted(ids)))
        for ids in groups.values()
    ]
    clusters.sort(key=lambda c: c.author_id)
    return clusters


def disambiguate(corpus: Corpus, rules: ScoringRuleTable) -> list[MentionCluster]:
    """Block and cluster every mention in the corpus."""
    clusters: list[MentionCluster] = []
    for block in block_mentions(corpus).values():
        clusters.extend(cluster_block(block, rules))
    clusters.sort(key=lambda c: c.author_id)
    return clusters


@dataclass(frozen=True)
class DisambigEval:
    precision: float
    recall: float
    f1: float
    predicted_pairs: int
    truth_pairs: int
    matched_pairs: int
    flags: tuple[str, ...]


def _pairs(keys: Iterable[Hashable]) -> int:
    """The number of unordered pairs of items that share a key."""
    return sum(comb(n, 2) for n in Counter(keys).values())


def evaluate_disambiguation(
    clusters: Sequence[MentionCluster],
    truth: Mapping[str, str],
    blocks: Mapping[BlockKey, Iterable] | None = None,
) -> DisambigEval:
    """Pairwise precision/recall/F1 of predicted clusters against truth.

    When blocks are given, truth pairs are counted within blocks only
    (cross-block identity splits are a blocking trade-off, not a clustering
    one); otherwise all same-label pairs count. With zero predicted pairs
    precision is reported as 1.0 and flagged, likewise recall with zero
    truth pairs.
    """
    label_of: dict[str, str] = {}
    for cluster in clusters:
        for mid in cluster.mention_ids:
            if mid not in truth:
                raise DisambigError(f"mention not in truth labels: {mid}")
            label_of[mid] = truth[mid]

    predicted = _pairs(k for k, cluster in enumerate(clusters) for _ in cluster.mention_ids)
    matched = _pairs((k, label_of[mid]) for k, cluster in enumerate(clusters) for mid in cluster.mention_ids)
    if blocks is None:
        truth_pairs = _pairs(label_of.values())
    else:
        held = [(key, member.mention_id) for key, members in blocks.items() for member in members]
        missing = label_of.keys() - {mid for _, mid in held}
        if missing:
            raise DisambigError(f"clustered mention missing from blocks: {min(missing)}")
        truth_pairs = _pairs((key, label_of[mid]) for key, mid in held if mid in label_of)

    flags: list[str] = []

    def share(count: int, total: int, flag: str) -> float:
        if total:
            return count / total
        flags.append(flag)
        return 1.0

    precision = share(matched, predicted, "no_predicted_pairs")
    recall = share(matched, truth_pairs, "no_truth_pairs")
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return DisambigEval(
        precision=precision,
        recall=recall,
        f1=f1,
        predicted_pairs=predicted,
        truth_pairs=truth_pairs,
        matched_pairs=matched,
        flags=tuple(flags),
    )


def write_clusters(path: str | Path, clusters: Iterable[MentionCluster]) -> None:
    write_lines(path, clusters)


def read_clusters(path: str | Path) -> list[MentionCluster]:
    """The clusters of a JSON-lines file; a cluster with no mentions, or an
    author id or a mention id listed twice, raises DisambigError naming the line."""
    authors: set[str] = set()
    owner: dict[str, str] = {}

    def check(cluster: MentionCluster) -> None:
        if not cluster.mention_ids:
            raise DisambigError(f"cluster {cluster.author_id} lists no mentions")
        if cluster.author_id in authors:
            raise DisambigError(f"author_id {cluster.author_id} is listed twice")
        authors.add(cluster.author_id)
        for mid in cluster.mention_ids:
            if mid in owner:
                raise DisambigError(f"mention {mid} is already in cluster {owner[mid]}")
            owner[mid] = cluster.author_id

    return list(read_lines(path, MentionCluster, "cluster", DisambigError, check))


@dataclass(frozen=True)
class _TruthLabel:
    """One line of a truth file: the true author of a mention."""

    author_id: str
    mention_id: str


def write_truth(path: str | Path, truth: Mapping[str, str]) -> None:
    write_lines(path, ({"author_id": truth[mid], "mention_id": mid} for mid in sorted(truth)))


def read_truth(path: str | Path) -> dict[str, str]:
    """Each mention's true author; a mention id labelled twice raises
    DisambigError naming the line."""
    seen: set[str] = set()

    def check(label: _TruthLabel) -> None:
        if label.mention_id in seen:
            raise DisambigError(f"mention_id {label.mention_id} is labelled twice")
        seen.add(label.mention_id)

    labels = read_lines(path, _TruthLabel, "truth label", DisambigError, check)
    return {t.mention_id: t.author_id for t in labels}
