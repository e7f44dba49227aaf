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
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import AuthorMention, Corpus
from .jsonio import read_config, read_lines, write_lines

CRITERIA = (
    "orcid_match",
    "email_match",
    "name_detail_match",
    "shared_affiliation",
    "shared_coauthor",
    "shared_grant",
    "same_journal",
    "shared_discipline",
    "self_citation",
    "bibliographic_coupling",
    "co_citation",
)

BlockKey = tuple[str, str]


class DisambigError(Exception):
    """Bad rule table or inconsistent cluster/truth inputs."""


def _orcid_match(a: AuthorMention, b: AuthorMention) -> bool:
    return a.orcid is not None and a.orcid == b.orcid


def _email_match(a: AuthorMention, b: AuthorMention) -> bool:
    return a.email is not None and a.email == b.email


def _name_detail_match(a: AuthorMention, b: AuthorMention) -> bool:
    # Spelled-out given names agreeing beyond the blocking key.
    return a.full_given is not None and b.full_given is not None and a.given == b.given


def _shared_affiliation(a: AuthorMention, b: AuthorMention) -> bool:
    return a.affiliation is not None and a.affiliation == b.affiliation


def _shared_coauthor(a: AuthorMention, b: AuthorMention) -> bool:
    return not a.coauthor_names.isdisjoint(b.coauthor_names)


def _shared_grant(a: AuthorMention, b: AuthorMention) -> bool:
    return not a.grant_ids.isdisjoint(b.grant_ids)


def _same_journal(a: AuthorMention, b: AuthorMention) -> bool:
    return a.journal is not None and a.journal == b.journal


def _shared_discipline(a: AuthorMention, b: AuthorMention) -> bool:
    return not a.disciplines.isdisjoint(b.disciplines)


def _self_citation(a: AuthorMention, b: AuthorMention) -> bool:
    return b.pub_id in a.references or a.pub_id in b.references


def _bibliographic_coupling(a: AuthorMention, b: AuthorMention) -> bool:
    return not a.references.isdisjoint(b.references)


def _co_citation(a: AuthorMention, b: AuthorMention) -> bool:
    return not a.cited_by.isdisjoint(b.cited_by)


_CHECKS: dict[str, Callable[[AuthorMention, AuthorMention], bool]] = {
    "orcid_match": _orcid_match,
    "email_match": _email_match,
    "name_detail_match": _name_detail_match,
    "shared_affiliation": _shared_affiliation,
    "shared_coauthor": _shared_coauthor,
    "shared_grant": _shared_grant,
    "same_journal": _same_journal,
    "shared_discipline": _shared_discipline,
    "self_citation": _self_citation,
    "bibliographic_coupling": _bibliographic_coupling,
    "co_citation": _co_citation,
}


@dataclass(frozen=True)
class ScoringRuleTable:
    """Criterion weights plus the linking threshold.

    Weights must be nonnegative and every criterion name must come from
    CRITERIA; the threshold must be positive. Criteria absent from the
    table contribute nothing. Weights and threshold are stored as floats.
    """

    weights: Mapping[str, float]
    threshold: float

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(CRITERIA)
        if unknown:
            raise DisambigError(f"unknown criteria: {', '.join(sorted(unknown))}")
        if any(w < 0 for w in self.weights.values()):
            raise DisambigError("criterion weights must be nonnegative")
        if not self.threshold > 0:
            raise DisambigError("threshold must be positive")
        object.__setattr__(self, "weights", {k: float(w) for k, w in self.weights.items()})
        object.__setattr__(self, "threshold", float(self.threshold))

    def weight(self, criterion: str) -> float:
        return self.weights.get(criterion, 0.0)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScoringRuleTable":
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls._from_payload(payload, str(path))

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


def satisfied_criteria(a: AuthorMention, b: AuthorMention) -> tuple[str, ...]:
    """Names of all criteria the pair satisfies, in CRITERIA order."""
    return tuple(name for name in CRITERIA if _CHECKS[name](a, b))


def score_pair(a: AuthorMention, b: AuthorMention, rules: ScoringRuleTable) -> float:
    """Sum of the weights of every satisfied criterion (symmetric in a, b)."""
    return sum(rules.weight(name) for name in CRITERIA if _CHECKS[name](a, b))


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


def cluster_block(mentions: Sequence[AuthorMention], rules: ScoringRuleTable) -> list[MentionCluster]:
    """Single-linkage clustering of one block.

    Runs the pairwise rules with checks ordered by descending weight and an
    early exit once the running sum reaches the threshold; the linked/not
    decision is unchanged because weights are nonnegative.
    """
    n = len(mentions)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    checks = sorted(
        ((rules.weight(name), _CHECKS[name]) for name in CRITERIA if rules.weight(name) > 0),
        key=lambda pair: -pair[0],
    )
    threshold = rules.threshold
    for i in range(n):
        mi = mentions[i]
        for j in range(i + 1, n):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            mj = mentions[j]
            total = 0.0
            for weight, check in checks:
                if check(mi, mj):
                    total += weight
                    if total >= threshold:
                        parent[ri] = rj
                        break

    groups: dict[int, list[str]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(mentions[i].mention_id)
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
    return list(read_lines(path, MentionCluster, "cluster", DisambigError))


@dataclass(frozen=True)
class _TruthLabel:
    """One line of a truth file: the true author of a mention."""

    author_id: str
    mention_id: str


def write_truth(path: str | Path, truth: Mapping[str, str]) -> None:
    write_lines(path, ({"author_id": truth[mid], "mention_id": mid} for mid in sorted(truth)))


def read_truth(path: str | Path) -> dict[str, str]:
    return {t.mention_id: t.author_id for t in read_lines(path, _TruthLabel, "truth label", DisambigError)}
