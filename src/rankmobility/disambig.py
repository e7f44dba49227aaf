"""Rule-based author name disambiguation.

Mentions are first blocked on (normalized surname, first given initial);
within a block every pair is scored against a weighted criterion table and
pairs at or above the threshold are linked. Identity clusters are the
connected components of the linked pairs (single linkage), so evidence
chains: A-B and B-C merge A, B and C even if A and C share nothing.
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

from .columns import _indptr
from .corpus import Corpus
from .jsonio import load, read_config, read_lines, write_lines

BlockKey = tuple[str, str]


class DisambigError(Exception):
    """Bad rule table or inconsistent cluster/truth inputs."""


# The pair criteria, one (criterion, kind, column) row each: column names
# the MentionTable column that holds the values the criterion compares, and
# kind how Block.operand encodes a block's codes for cluster_block's hit
# matrices: same (both set and equal), overlap (the sets intersect) or cites
# (one row's publication is among the other's references).
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
    def from_json(cls, path: str | Path) -> "ScoringRuleTable":
        return cls._from_payload(load(path, f"rule table {path}", DisambigError), str(path))

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
    """The blocks of a mention table, with what cluster_block scores them by.

    The rows are laid out block by block (in table order within a block), so
    that each block is a run bounds[b]:bounds[b + 1] of that layout. Each
    criterion's encoding of every block is prepared at once, on the first
    block that asks for it, so a block's operand is a few slices of it.
    """

    def __init__(self, table):
        key, keys = table.block_keys()
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        rank = np.empty(len(keys), np.int64)
        rank[ranked] = np.arange(len(keys))
        self.keys = [keys[k] for k in ranked]
        self.table = table
        self.block = rank[key]
        self.order = np.argsort(self.block, kind="stable")
        self.bounds = _indptr(np.bincount(self.block, minlength=len(keys)))
        # Each row's position in its block.
        self.local = np.empty(len(key), np.int64)
        self.local[self.order] = np.arange(len(key)) - self.bounds[self.block[self.order]]
        ids = table.ids
        self.ids = [ids[r] for r in self.order.tolist()]
        self._prepared: dict[tuple[str, str], tuple] = {}

    def by_key(self) -> dict[BlockKey, Block]:
        return {key: Block(self, b) for b, key in enumerate(self.keys)}

    def prepared(self, kind: str, column: str) -> tuple:
        """A criterion's encoding of every block.

        same: which blocks have two rows with one value, and every row's
        code in block layout, where a missing value gets a negative code of
        its own. overlap and cites: per block, its number of columns and
        where its (row, column) incidence entries start, then those entries
        as row positions in the block and column numbers; for cites also
        each row's publication column in block layout.
        """
        if (kind, column) not in self._prepared:
            self._prepared[kind, column] = self._prepare(kind, column)
        return self._prepared[kind, column]

    def _prepare(self, kind: str, column: str) -> tuple:
        block, n_blocks = self.block, len(self.keys)
        if kind == "same":
            codes = self.table.codes(column)
            held = codes >= 0
            span = int(codes.max(initial=0)) + 1
            groups, counts = np.unique(block[held] * span + codes[held], return_counts=True)
            shared = np.zeros(n_blocks, bool)
            shared[groups[counts > 1] // span] = True
            codes = np.where(held, codes, -1 - np.arange(len(codes)))
            return shared, codes[self.order]
        rows, codes = self.table.pairs(column)
        if kind == "cites":
            # A reference counts when it is to the publication of a row of the same block.
            pub = self.table.pub
            span = int(max(codes.max(initial=0), pub.max(initial=0))) + 1
            own = block * span + pub
            found = np.isin(block[rows] * span + codes, own)
            rows, codes = rows[found], codes[found]
        else:
            span = int(codes.max(initial=0)) + 1
        # A block's columns are the distinct codes of its rows' entries.
        groups, inverse, counts = np.unique(block[rows] * span + codes, return_inverse=True, return_counts=True)
        if kind == "overlap":
            # Only the values that at least two of the block's rows hold.
            kept = counts > 1
            rows, inverse = rows[kept[inverse]], (np.cumsum(kept) - 1)[inverse[kept[inverse]]]
            groups = groups[kept]
        width = np.bincount(groups // span, minlength=n_blocks)
        first = np.cumsum(width) - width
        entry_block = block[rows]
        sort = np.argsort(entry_block, kind="stable")
        starts = _indptr(np.bincount(entry_block, minlength=n_blocks))
        prepared = (width, starts, self.local[rows][sort], (inverse - first[entry_block])[sort])
        if kind == "overlap":
            return prepared
        # Each row's publication is its column, or else the block's empty last one.
        at = np.searchsorted(groups, own)
        found = at < len(groups)
        found[found] = groups[at[found]] == own[found]
        return (*prepared, np.where(found, at - first[block], width[block])[self.order])


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

    def operand(self, kind: str, column: str):
        """What the block's hit matrix for a criterion is computed from, or
        None when no pair of the block can satisfy it.

        same: one integer code per row, compared by broadcasting. overlap:
        an incidence matrix B of rows × the values that at least two of them
        hold, so B @ B.T is positive where two sets intersect. cites: an
        incidence R of rows × the block's publications that some row
        references, plus an empty last column, and each row's publication
        as a column of R; C = R[:, publication] is references × pub ids.
        """
        b, n = self._b, len(self)
        if kind == "same":
            shared, codes = self._blocks.prepared(kind, column)
            return codes[self._lo:self._hi] if shared[b] else None
        width, starts, rows, cols, *publication = self._blocks.prepared(kind, column)
        if not width[b]:
            return None
        entries = slice(starts[b], starts[b + 1])
        if kind == "overlap":
            matrix = np.zeros((n, width[b]), dtype=np.float32)
            matrix[rows[entries], cols[entries]] = 1.0
            return matrix
        matrix = np.zeros((n, width[b] + 1), dtype=bool)
        matrix[rows[entries], cols[entries]] = True
        return matrix, publication[0][self._lo:self._hi]


# Rows of a block that cluster_block scores at a time.
_TILE = 256


def _hits(kind: str, operand, rows: slice, cols: slice) -> np.ndarray:
    """Which pairs of rows × cols satisfy a criterion, from its operand."""
    if kind == "same":
        return operand[rows, None] == operand[None, cols]
    if kind == "overlap":
        return operand[rows] @ operand[cols].T > 0
    matrix, publication = operand
    return matrix[rows][:, publication[cols]] | matrix[cols][:, publication[rows]].T


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
    """Single-linkage clustering of one block.

    Each positively weighted criterion gives an n × n hit matrix, built by
    its kind from the block's codes (see Block.operand). The hits' weights
    are added largest first, so every pair's total and its linked/not
    decision equal the sum of the weights of the criteria it satisfies,
    taken largest first, which the tests compute one pair at a time as the
    oracle: adding 0.0 for a miss changes nothing. Rows are scored in tiles of _TILE against the rows
    from the tile on, so the score matrices take O(_TILE × n) memory (an
    incidence matrix takes n × the values at least two mentions share).
    Clusters are the connected components of the pairs at the threshold.
    """
    n = len(block)
    checks = []
    for name, kind, column in sorted(_CRITERIA_TABLE, key=lambda row: -rules.weight(row[0])):
        weight = rules.weight(name)
        if weight > 0 and (operand := block.operand(kind, column)) is not None:
            checks.append((weight, kind, operand))

    parent = np.arange(n)
    for start in range(0, n, _TILE):
        stop = min(start + _TILE, n)
        rows, cols = slice(start, stop), slice(start, n)
        total = np.zeros((stop - start, n - start))
        for weight, kind, operand in checks:
            np.add(total, weight, out=total, where=_hits(kind, operand, rows, cols))
        a, b = np.nonzero(total >= rules.threshold)
        _merge(parent, a + start, b + start)

    groups: dict[int, list[str]] = {}
    for root, mention_id in zip(parent.tolist(), block.mention_ids):
        groups.setdefault(root, []).append(mention_id)
    clusters = [
        MentionCluster(author_id=min(ids), mention_ids=tuple(sorted(ids)))
        for ids in groups.values()
    ]
    clusters.sort(key=lambda c: c.author_id)
    return clusters


def disambiguate(corpus: Corpus, rules: ScoringRuleTable | None = None) -> list[MentionCluster]:
    """Block and cluster every mention in the corpus."""
    if rules is None:
        rules = ScoringRuleTable.default()
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
