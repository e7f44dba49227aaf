"""Rule-based author name disambiguation.

Mentions are first blocked on (normalized surname, first given initial);
within a block every pair is scored against a weighted criterion table and
pairs at or above the threshold are linked. Identity clusters are the
connected components of the linked pairs (single linkage), so evidence
chains: A-B and B-C merge A, B and C even if A and C share nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import chain, count, repeat
from math import comb, inf
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AuthorMention, Corpus
from .jsonio import load, read_config, read_lines, write_lines

BlockKey = tuple[str, str]


class DisambigError(Exception):
    """Bad rule table or inconsistent cluster/truth inputs."""


# The pair criteria, one (criterion, kind, value) row each: value reads what
# the criterion compares from a mention. By kind, _holds compares two values
# and _operands encodes a block's values for cluster_block's hit matrices.
_CRITERIA_TABLE = (
    ("orcid_match", "same", attrgetter("orcid")),
    ("email_match", "same", attrgetter("email")),
    # Spelled-out given names agreeing beyond the blocking key.
    ("name_detail_match", "same", lambda m: m.given if m.full_given is not None else None),
    ("shared_affiliation", "same", attrgetter("affiliation")),
    ("shared_coauthor", "overlap", attrgetter("coauthor_names")),
    ("shared_grant", "overlap", attrgetter("grant_ids")),
    ("same_journal", "same", attrgetter("journal")),
    ("shared_discipline", "overlap", attrgetter("disciplines")),
    ("self_citation", "cites", attrgetter("pub_id", "references")),
    ("bibliographic_coupling", "overlap", attrgetter("references")),
    ("co_citation", "overlap", attrgetter("cited_by")),
)

CRITERIA = tuple(name for name, _, _ in _CRITERIA_TABLE)


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


def _holds(kind: str, x, y) -> bool:
    """Whether two mentions' values x and y match: for same, both are set and
    equal; for overlap, the sets intersect; for cites, one (pub_id,
    references) pair's pub_id is in the other's references. This scalar form
    is what cluster_block's matrices are tested against."""
    if kind == "same":
        return x is not None and x == y
    if kind == "overlap":
        return not x.isdisjoint(y)
    return x[0] in y[1] or y[0] in x[1]


def satisfied_criteria(a: AuthorMention, b: AuthorMention) -> tuple[str, ...]:
    """Names of all criteria the pair satisfies, in CRITERIA order."""
    return tuple(name for name, kind, value in _CRITERIA_TABLE if _holds(kind, value(a), value(b)))


def score_pair(a: AuthorMention, b: AuthorMention, rules: ScoringRuleTable) -> float:
    """Sum of the weights of every satisfied criterion (symmetric in a, b),
    added largest first as cluster_block adds them, so both round alike."""
    return sum(sorted((rules.weight(name) for name in satisfied_criteria(a, b)), reverse=True))


def block_key(mention: AuthorMention) -> BlockKey:
    return (mention.surname, mention.initials[:1])


def block_mentions(corpus: Corpus) -> dict[BlockKey, list[AuthorMention]]:
    """Group mentions by (surname, first initial), keys sorted."""
    blocks: dict[BlockKey, list[AuthorMention]] = {}
    for mention in corpus.mentions.values():
        blocks.setdefault(block_key(mention), []).append(mention)
    return dict(sorted(blocks.items()))


@dataclass(frozen=True)
class MentionCluster:
    """One inferred author identity; the id is the smallest mention id."""

    author_id: str
    mention_ids: tuple[str, ...]


# Rows of a block that cluster_block scores at a time.
_TILE = 256


def _operands(kind: str, values: list):
    """What a criterion's hit matrix is computed from, or None when no pair
    of the block can satisfy it.

    same: one integer code per mention, compared by broadcasting. overlap:
    an incidence matrix B of mentions × the values that at least two of
    them hold, so B @ B.T is positive where two sets intersect. cites: an
    incidence R of mentions × the block's publications that some mention
    references, plus an empty last column, and each mention's publication
    as a column of R; C = R[:, publication] is references × pub ids.
    """
    n = len(values)
    index: dict = {}
    if kind == "same":
        codes = np.fromiter(map(index.setdefault, values, count()), np.int64, n)
        missing = np.flatnonzero(codes == index.pop(None, -1))
        # None matches nothing: each gets a code of its own, below zero.
        codes[missing] = -1 - missing
        return codes if len(index) < n - len(missing) else None
    if kind == "overlap":
        sizes = np.fromiter(map(len, values), np.int64, n)
        codes = np.fromiter(map(index.setdefault, chain.from_iterable(values), count()), np.int64, sizes.sum())
        keep = np.bincount(codes, minlength=1) > 1
        if not keep.any():
            return None
        held = keep[codes]
        matrix = np.zeros((n, np.count_nonzero(keep)), dtype=np.float32)
        matrix[np.repeat(np.arange(n), sizes)[held], (np.cumsum(keep) - 1)[codes[held]]] = 1.0
        return matrix
    pub_ids, references = zip(*values) if values else ((), ())
    pub_codes = np.fromiter(map(index.setdefault, pub_ids, count()), np.int64, n)
    sizes = np.fromiter(map(len, references), np.int64, n)
    ref_codes = np.fromiter(map(index.get, chain.from_iterable(references), repeat(-1)), np.int64, sizes.sum())
    found = ref_codes >= 0
    if not found.any():
        return None
    cited = np.zeros(n, dtype=bool)
    cited[ref_codes[found]] = True
    column = np.where(cited, np.cumsum(cited) - 1, np.count_nonzero(cited))
    matrix = np.zeros((n, column.max() + 1), dtype=bool)
    matrix[np.repeat(np.arange(n), sizes)[found], column[ref_codes[found]]] = True
    return matrix, column[pub_codes]


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


def cluster_block(mentions: Sequence[AuthorMention], rules: ScoringRuleTable) -> list[MentionCluster]:
    """Single-linkage clustering of one block.

    Each positively weighted criterion gives an n × n hit matrix, built by
    its kind from the block's values (see _operands). The hits' weights are
    added largest first, the order score_pair adds them in, so every pair's
    total and its linked/not decision equal score_pair's: adding 0.0 for a
    miss changes nothing. Rows are scored in tiles of _TILE against the rows
    from the tile on, so the score matrices take O(_TILE × n) memory (an
    incidence matrix takes n × the values at least two mentions share).
    Clusters are the connected components of the pairs at the threshold.
    """
    n = len(mentions)
    checks = []
    for name, kind, value in sorted(_CRITERIA_TABLE, key=lambda row: -rules.weight(row[0])):
        weight = rules.weight(name)
        if weight > 0 and (operand := _operands(kind, list(map(value, mentions)))) is not None:
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
    for root, mention in zip(parent.tolist(), mentions):
        groups.setdefault(root, []).append(mention.mention_id)
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
    for _, members in block_mentions(corpus).items():
        clusters.extend(cluster_block(members, rules))
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


def evaluate_disambiguation(
    clusters: Sequence[MentionCluster],
    truth: Mapping[str, str],
    blocks: Mapping[BlockKey, Sequence[AuthorMention]] | None = None,
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

    predicted = sum(comb(len(c.mention_ids), 2) for c in clusters)
    matched = 0
    for cluster in clusters:
        counts: dict[str, int] = {}
        for mid in cluster.mention_ids:
            counts[label_of[mid]] = counts.get(label_of[mid], 0) + 1
        matched += sum(comb(cnt, 2) for cnt in counts.values())

    if blocks is None:
        group_counts: dict[str, int] = {}
        for mid in label_of:
            group_counts[label_of[mid]] = group_counts.get(label_of[mid], 0) + 1
        truth_pairs = sum(comb(cnt, 2) for cnt in group_counts.values())
    else:
        universe = set(label_of)
        truth_pairs = 0
        seen: set[str] = set()
        for key, members in blocks.items():
            counts = {}
            for mention in members:
                if mention.mention_id not in universe:
                    continue
                seen.add(mention.mention_id)
                lbl = label_of[mention.mention_id]
                counts[lbl] = counts.get(lbl, 0) + 1
            truth_pairs += sum(comb(cnt, 2) for cnt in counts.values())
        missing = universe - seen
        if missing:
            raise DisambigError(f"clustered mention missing from blocks: {sorted(missing)[0]}")

    flags: list[str] = []
    if predicted == 0:
        precision = 1.0
        flags.append("no_predicted_pairs")
    else:
        precision = matched / predicted
    if truth_pairs == 0:
        recall = 1.0
        flags.append("no_truth_pairs")
    else:
        recall = matched / truth_pairs
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
