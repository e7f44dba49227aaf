import itertools
import json
import re
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmobility import disambig, synth
from rankmobility.disambig import (
    CRITERIA,
    DisambigError,
    DisambigEval,
    MentionCluster,
    ScoringRuleTable,
    block_mentions,
    cluster_block,
    disambiguate,
    evaluate_disambiguation,
    read_clusters,
    read_truth,
    write_clusters,
    write_truth,
)

from conftest import corpus_of, export_lines, make_record
from oracle import (
    VALUE,
    AuthorMention,
    block_key,
    build_mentions,
    dense_cluster_block,
    records_of,
    satisfied_criteria,
    score_pair,
)


def mention(mention_id="M:0", **overrides):
    base = dict(
        mention_id=mention_id,
        pub_id=mention_id.split(":")[0],
        position=0,
        name="Ada Park",
        given="ada",
        surname="park",
        initials="a",
        full_given="ada",
        affiliation=None,
        email=None,
        orcid=None,
        journal=None,
        grant_ids=frozenset(),
        references=frozenset(),
        coauthor_names=frozenset(),
        disciplines=frozenset(),
        cited_by=frozenset(),
    )
    base.update(overrides)
    return AuthorMention(**base)


class HandMadeTable:
    """What block_mentions reads from a MentionTable, over hand-made
    AuthorMentions whose values need come from no corpus: each column codes
    the values the criteria's oracles read from the mentions, and a
    reference to one of their publications has that publication's code."""

    def __init__(self, mentions):
        self.mentions = list(mentions)
        self.ids = [m.mention_id for m in self.mentions]
        self._pubs = {}
        self.pub = np.array([self._pubs.setdefault(m.pub_id, len(self._pubs)) for m in self.mentions], np.int64)
        # The code of each set value; a pub_id has its publication's code.
        self._codes = dict(self._pubs)

    def block_keys(self):
        keys = {}
        codes = [keys.setdefault(block_key(m), len(keys)) for m in self.mentions]
        return np.array(codes, np.int64), list(keys)

    def codes(self, column):
        value = next(VALUE[name] for name, kind, c in disambig._CRITERIA_TABLE if (kind, c) == ("same", column))
        index = {None: -1}
        return np.array([index.setdefault(value(m), len(index) - 1) for m in self.mentions], np.int64)

    def sets(self, column, rows):
        held = [[self._codes.setdefault(v, len(self._codes)) for v in getattr(self.mentions[r], column)] for r in rows]
        return np.array(list(map(len, held)), np.int64), np.array(list(itertools.chain(*held)), np.int64)


def as_block(mentions):
    """The one block of hand-made mentions that share a blocking key."""
    [block] = disambig._Blocks(HandMadeTable(mentions)).by_key().values()
    return block


def test_default_table_loads_and_orcid_is_decisive(default_rules):
    assert set(default_rules.weights) <= set(CRITERIA)
    assert default_rules.weight("orcid_match") >= default_rules.threshold


def test_orcid_match_alone_links(default_rules):
    a = mention("P1:0", orcid="0000-1")
    b = mention("P2:0", orcid="0000-1")
    assert score_pair(a, b, default_rules) >= default_rules.threshold


def test_email_plus_coauthor_scores_their_sum(default_rules):
    a = mention("P1:0", email="x@y.z", coauthor_names=frozenset({"bo li"}))
    b = mention(
        "P2:0",
        email="x@y.z",
        coauthor_names=frozenset({"bo li", "cy wu"}),
        given="a",
        full_given=None,
    )
    expected = default_rules.weight("email_match") + default_rules.weight("shared_coauthor")
    assert score_pair(a, b, default_rules) == expected


def test_no_environment_combo_reaches_threshold(default_rules):
    # Colleagues can share all four of these; they must never merge alone.
    environment = ("shared_affiliation", "shared_coauthor", "same_journal", "shared_discipline")
    total = sum(default_rules.weight(name) for name in environment)
    assert total < default_rules.threshold


def test_satisfied_criteria_order_and_content():
    a = mention("P1:0", orcid="x", journal="j", references=frozenset({"R1"}))
    b = mention("P2:0", orcid="x", journal="j", references=frozenset({"R1", "R2"}))
    names = satisfied_criteria(a, b)
    assert names == ("orcid_match", "name_detail_match", "same_journal", "bibliographic_coupling")


def test_self_citation_fires_both_directions(default_rules):
    a = mention("P1:0")
    b = mention("P2:0", references=frozenset({"P1"}))
    assert "self_citation" in satisfied_criteria(a, b)
    assert "self_citation" in satisfied_criteria(b, a)


def test_missing_attributes_never_match():
    a = mention("P1:0", full_given=None, given="a")
    b = mention("P2:0", full_given=None, given="a")
    assert satisfied_criteria(a, b) == ()


def test_rule_table_validation():
    with pytest.raises(DisambigError, match="unknown criteria"):
        ScoringRuleTable(weights={"psychic_match": 1}, threshold=1)
    with pytest.raises(DisambigError, match="nonnegative"):
        ScoringRuleTable(weights={"orcid_match": -1}, threshold=1)
    with pytest.raises(DisambigError, match="threshold must be positive"):
        ScoringRuleTable(weights={"orcid_match": 1}, threshold=0)
    # From Python, unlike from JSON, non-finite numbers reach the checks; a
    # NaN weight would make every pair's total NaN, which links nothing.
    with pytest.raises(DisambigError, match="weights must be finite and nonnegative"):
        ScoringRuleTable(weights={"orcid_match": float("nan")}, threshold=1)
    with pytest.raises(DisambigError, match="threshold must be positive and finite"):
        ScoringRuleTable(weights={"orcid_match": 1}, threshold=float("inf"))


def test_rule_table_from_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"weights": {"email_match": 5}, "threshold": 5}))
    rules = ScoringRuleTable.from_json(path)
    assert rules.weight("email_match") == 5
    assert rules.weight("orcid_match") == 0
    path.write_text(json.dumps({"weights": {"email_match": 5}}))
    with pytest.raises(DisambigError, match="needs 'weights' and 'threshold'"):
        ScoringRuleTable.from_json(path)


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"weights": {"email_match": 5}, "threshold": None}, "'threshold' must be a number"),
        ({"weights": {"email_match": None}, "threshold": 5}, "'weights' must be an object of numbers"),
        ({"weights": {"email_match": 5}, "threshold": "10"}, "'threshold' must be a number"),
        ({"weights": {"email_match": True}, "threshold": 5}, "'weights' must be an object of numbers"),
        ({"weights": {"orcid_match": float("nan")}, "threshold": 5}, "holds NaN, which is not a JSON number"),
        ({"weights": {"orcid_match": 10}, "threshold": float("inf")}, "holds Infinity, which is not a JSON number"),
        ({"weights": {"orcid_match": float("-inf")}, "threshold": 5}, "holds -Infinity, which is not a JSON number"),
    ],
)
def test_rule_table_from_json_rejects_wrong_types(tmp_path, payload, message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DisambigError, match=message):
        ScoringRuleTable.from_json(path)


def test_block_key_uses_surname_and_first_initial():
    assert block_key(mention(given="john r", initials="jr", surname="smith")) == ("smith", "j")


def test_blocking_groups_by_key():
    corpus = corpus_of(
        make_record("P1", authors=[{"name": "John Smith"}, {"name": "Ada Park"}]),
        make_record("P2", authors=[{"name": "J. Smith"}]),
        make_record("P3", authors=[{"name": "Jane Smith"}]),
    )
    blocks = block_mentions(corpus)
    assert set(blocks) == {("smith", "j"), ("park", "a")}
    assert {m.mention_id for m in blocks[("smith", "j")]} == {"P1:0", "P2:0", "P3:0"}


def test_single_linkage_chains_evidence():
    rules = ScoringRuleTable(
        weights={"email_match": 10, "shared_affiliation": 5, "shared_grant": 5}, threshold=10
    )
    a = mention("P1:0", email="e@x.y")
    b = mention("P2:0", email="e@x.y", affiliation="inst", grant_ids=frozenset({"g"}))
    c = mention("P3:0", affiliation="inst", grant_ids=frozenset({"g"}))
    clusters = cluster_block(as_block([a, b, c]), rules)
    assert len(clusters) == 1
    assert clusters[0].mention_ids == ("P1:0", "P2:0", "P3:0")
    assert clusters[0].author_id == "P1:0"


def test_no_links_means_singletons():
    rules = ScoringRuleTable(weights={"orcid_match": 10}, threshold=10)
    clusters = cluster_block(as_block([mention("P1:0"), mention("P2:0")]), rules)
    assert [c.mention_ids for c in clusters] == [("P1:0",), ("P2:0",)]


def test_clustering_is_order_independent():
    rules = ScoringRuleTable(weights={"email_match": 10}, threshold=10)
    ms = [
        mention("P1:0", email="a@x.y"),
        mention("P2:0", email="a@x.y"),
        mention("P3:0", email="b@x.y"),
        mention("P4:0", email="b@x.y"),
    ]
    forward = cluster_block(as_block(ms), rules)
    backward = cluster_block(as_block(list(reversed(ms))), rules)
    assert forward == backward


_ATTR_VALUES = {
    "orcid": st.sampled_from([None, "o1", "o2"]),
    "email": st.sampled_from([None, "e1", "e2"]),
    "affiliation": st.sampled_from([None, "i1", "i2"]),
    "journal": st.sampled_from([None, "j1"]),
    "grant_ids": st.sets(st.sampled_from(["g1", "g2"]), max_size=2).map(frozenset),
    "references": st.sets(st.sampled_from(["P1", "P2", "R1"]), max_size=2).map(frozenset),
    "coauthor_names": st.sets(st.sampled_from(["n1", "n2"]), max_size=2).map(frozenset),
    "disciplines": st.sets(st.sampled_from(["d1", "d2"]), max_size=2).map(frozenset),
    "cited_by": st.sets(st.sampled_from(["C1", "C2"]), max_size=2).map(frozenset),
    "full_given": st.sampled_from([None, "ada"]),
}
_ATTRS = st.fixed_dictionaries(_ATTR_VALUES)


@settings(max_examples=60, deadline=None)
@given(attrs_a=_ATTRS, attrs_b=_ATTRS)
def test_score_is_symmetric(attrs_a, attrs_b):
    rules = ScoringRuleTable.default()
    a = mention("P1:0", **attrs_a)
    b = mention("P2:0", **attrs_b)
    assert score_pair(a, b, rules) == score_pair(b, a, rules)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.lists(_ATTRS, min_size=1, max_size=5), min_size=1, max_size=3),
    low=st.integers(min_value=1, max_value=10),
    step=st.integers(min_value=1, max_value=10),
)
def test_raising_threshold_only_refines(blocks, low, step):
    weights = {
        "orcid_match": 10, "email_match": 8, "shared_affiliation": 4,
        "shared_grant": 4, "same_journal": 1, "shared_discipline": 1,
        "bibliographic_coupling": 3, "co_citation": 2, "shared_coauthor": 3,
        "name_detail_match": 3, "self_citation": 4,
    }
    coarse_rules = ScoringRuleTable(weights=weights, threshold=low)
    fine_rules = ScoringRuleTable(weights=weights, threshold=low + step)
    for block_no, attrs_list in enumerate(blocks):
        ms = [mention(f"P{block_no}x{k}:0", **attrs) for k, attrs in enumerate(attrs_list)]
        coarse = {m_id: c.author_id for c in cluster_block(as_block(ms), coarse_rules) for m_id in c.mention_ids}
        for cluster in cluster_block(as_block(ms), fine_rules):
            anchors = {coarse[m_id] for m_id in cluster.mention_ids}
            assert len(anchors) == 1


# Mentions P0:0 to P5:0 of one block, which cite each other's publications
# and differ in given names, spelled out or not.
_BLOCK_MEMBER_VALUES = {
    **_ATTR_VALUES,
    "given": st.sampled_from(["ada", "ann"]),
    "references": st.sets(st.sampled_from(["P0", "P1", "P2", "P3", "P4", "P5", "R1"]), max_size=3).map(frozenset),
}
_BLOCK_MEMBER = st.fixed_dictionaries(_BLOCK_MEMBER_VALUES)
# Weights whose float sums depend on the order they are added in.
_WEIGHTS = st.fixed_dictionaries({name: st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.1, 3.3, 10.0]) for name in CRITERIA})


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(_BLOCK_MEMBER, min_size=1, max_size=6),
    weights=_WEIGHTS,
    # Some thresholds that sums of those weights reach, some anywhere.
    threshold=st.one_of(st.sampled_from([0.3, 0.6, 3.4, 4.4, 11.6]), st.floats(0.01, 20.0)),
)
def test_cluster_block_gives_the_components_of_pairs_score_pair_links(members, weights, threshold):
    rules = ScoringRuleTable(weights=weights, threshold=threshold)
    ms = [mention(f"P{k}:0", **attrs) for k, attrs in enumerate(members)]
    component = {m.mention_id: {m.mention_id} for m in ms}
    for k, a in enumerate(ms):
        for b in ms[k + 1 :]:
            if score_pair(a, b, rules) >= rules.threshold and component[a.mention_id] is not component[b.mention_id]:
                merged = component[a.mention_id] | component[b.mention_id]
                for mention_id in merged:
                    component[mention_id] = merged
    expected = sorted({tuple(sorted(ids)) for ids in component.values()})
    assert [c.mention_ids for c in cluster_block(as_block(ms), rules)] == expected


def test_score_pair_adds_weights_as_cluster_block_does():
    # In criteria order these weights sum to 11.6, largest first to 11.599999999999998.
    weights = {
        "orcid_match": 0.2, "email_match": 1.1, "name_detail_match": 3.3, "shared_affiliation": 3.3,
        "shared_coauthor": 3.3, "shared_grant": 0.1, "same_journal": 0.3,
    }
    rules = ScoringRuleTable(weights=weights, threshold=11.6)
    shared = dict(orcid="o", email="e", affiliation="i", journal="j", grant_ids=frozenset({"g"}),
                  coauthor_names=frozenset({"n"}))
    a, b = mention("P1:0", **shared), mention("P2:0", **shared)
    assert satisfied_criteria(a, b) == tuple(weights)
    assert score_pair(a, b, rules) < rules.threshold
    assert len(cluster_block(as_block([a, b]), rules)) == 2


def _oracle_clusters(ms, rules):
    """The mention ids of each connected component of the pairs score_pair
    links, sorted as cluster_block sorts them."""
    component = {m.mention_id: {m.mention_id} for m in ms}
    for k, a in enumerate(ms):
        for b in ms[k + 1 :]:
            if score_pair(a, b, rules) >= rules.threshold:
                merged = component[a.mention_id] | component[b.mention_id]
                for mention_id in merged:
                    component[mention_id] = merged
    return sorted({tuple(sorted(ids)) for ids in component.values()})


def _ids(clusters):
    return [c.mention_ids for c in clusters]


# Mentions P0:0, P0:1, P1:0, ... of one block: pairs share a publication.
def _block_of(members):
    return [mention(f"P{k // 2}:{k % 2}", **attrs) for k, attrs in enumerate(members)]


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(_BLOCK_MEMBER, min_size=1, max_size=10),
    weights=_WEIGHTS,
    threshold=st.sampled_from([0.3, 3.4, 4.4, 10.0, 11.6]),
    data=st.data(),
)
def test_cluster_block_is_invariant_to_the_order_of_a_block(members, weights, threshold, data):
    rules = ScoringRuleTable(weights=weights, threshold=threshold)
    ms = _block_of(members)
    permuted = data.draw(st.permutations(ms))
    expected = _oracle_clusters(ms, rules)
    assert _ids(cluster_block(as_block(ms), rules)) == expected
    assert cluster_block(as_block(permuted), rules) == cluster_block(as_block(ms), rules)


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(_BLOCK_MEMBER, min_size=1, max_size=8),
    weights=_WEIGHTS,
    threshold=st.one_of(st.sampled_from([0.3, 0.6, 3.4, 4.4, 11.6]), st.floats(0.01, 20.0)),
)
def test_doubling_every_weight_and_the_threshold_keeps_the_clusters(members, weights, threshold):
    # Doubling is exact in binary floating point, so every comparison holds.
    rules = ScoringRuleTable(weights=weights, threshold=threshold)
    doubled = ScoringRuleTable(weights={k: 2 * w for k, w in weights.items()}, threshold=2 * threshold)
    ms = _block_of(members)
    assert _ids(cluster_block(as_block(ms), rules)) == _oracle_clusters(ms, rules)
    assert cluster_block(as_block(ms), doubled) == cluster_block(as_block(ms), rules)


# Mentions of up to three blocks, which cite each other's publications.
_MEMBER = st.fixed_dictionaries({**_BLOCK_MEMBER_VALUES, "surname": st.sampled_from(["park", "quinn", "ross"])})


@st.composite
def _rule_tables(draw):
    """Rule tables of three shapes: any weights and threshold; a threshold
    that every positive weight reaches alone, so that every criterion is an
    anchor; and one that no single weight reaches."""
    weights = draw(_WEIGHTS)
    shape = draw(st.sampled_from(["any", "every_anchor", "none_decisive"]))
    positive = [w for w in weights.values() if w > 0]
    if shape == "every_anchor" and positive:
        threshold = min(positive)
    elif shape == "none_decisive":
        threshold = max(weights.values()) + draw(st.sampled_from([0.1, 0.3, 1.1, 3.4]))
    else:
        threshold = draw(st.one_of(st.sampled_from([0.3, 0.6, 3.4, 4.4, 11.6]), st.floats(0.01, 20.0)))
    return ScoringRuleTable(weights=weights, threshold=threshold)


def test_the_rule_table_shapes_split_as_named(default_rules):
    every_anchor = disambig._plan(ScoringRuleTable(weights=dict.fromkeys(CRITERIA, 1.1), threshold=1.1))
    assert every_anchor.others == [] and sorted(every_anchor.decisive) == list(range(len(CRITERIA)))
    plan = disambig._plan(default_rules)
    names = lambda ks: {CRITERIA[k] for k in ks}
    assert names(plan.others) == {"shared_discipline", "same_journal", "co_citation", "name_detail_match"}
    assert names(plan.decisive) == {"orcid_match"}
    # Among equal weights a same criterion is left out of the anchors first.
    rules = ScoringRuleTable(weights={"shared_affiliation": 3, "shared_grant": 3, "email_match": 3}, threshold=7)
    assert names(disambig._plan(rules).others) == {"shared_affiliation", "email_match"}


def _blocks(mentions):
    """Each block of hand-made mentions, by mention id, in key order."""
    by_id = {m.mention_id: m for m in mentions}
    blocks = disambig._Blocks(HandMadeTable(mentions)).by_key().values()
    return [(block, [by_id[mid] for mid in block.mention_ids]) for block in blocks]


@settings(max_examples=200, deadline=None)
@given(members=st.lists(_MEMBER, min_size=1, max_size=14), tables=st.lists(_rule_tables(), min_size=1, max_size=2),
       data=st.data())
def test_cluster_block_gives_the_dense_clusters_and_the_score_pair_components(members, tables, data):
    blocks = _blocks(_block_of(members))
    # Blocks in any order, so that a block is asked for before and after
    # its run, each under every rule table in turn.
    for block, ms in data.draw(st.permutations(blocks)):
        for rules in tables:
            clusters = cluster_block(block, rules)
            assert _ids(clusters) == _oracle_clusters(ms, rules)
            assert clusters == dense_cluster_block(block, rules, tile=3)


@settings(max_examples=150, deadline=None)
@given(members=st.lists(_MEMBER, min_size=5, max_size=16), rules=_rule_tables(), bound=st.integers(0, 4))
def test_runs_of_one_block_or_a_few_pairs_give_the_components_score_pair_links(members, rules, bound):
    # Bound 0 makes every block with a pair a run of its own.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(disambig, "_RUN_PAIRS", bound)
        for block, ms in _blocks(_block_of(members)):
            assert _ids(cluster_block(block, rules)) == _oracle_clusters(ms, rules)


# Corpora for the mention table's oracle test. Optional fields may be null,
# empty or whitespace, which ingest leaves absent, or padded. Names include
# non-ASCII and comma-order forms that block together, and a publication may
# list two authors whose names normalize alike.
_PUB_IDS = ["P1", "P2", "Q:1", "Q:1:2", "R"]
_NAMES = ["José García", "Jose Garcia", "García, José", "J. García", "GARCIA,  J.", "Ada Park", "ada  park",
          "A. Park", "Park, Ada", "Ann Park", "Ångström, Åsa", "A Angstrom", "Park"]
_TEXT = st.sampled_from([None, "", "  ", "x1", " X1 ", "Ünï  Bonn", "uni bonn"])
_AUTHOR = st.fixed_dictionaries(
    {"name": st.sampled_from(_NAMES)},
    optional={
        "orcid": _TEXT, "email": _TEXT, "affiliation": _TEXT, "journal": _TEXT,
        "grants": st.lists(st.sampled_from(["g1", "g2", "G1"]), unique=True, max_size=2),
        # References to corpus publications, the citing one included, and to others.
        "references": st.lists(st.sampled_from(_PUB_IDS + ["X", "Q"]), unique=True, max_size=3),
    },
)


@st.composite
def _corpora(draw):
    pub_ids = draw(st.lists(st.sampled_from(_PUB_IDS), unique=True, min_size=1, max_size=len(_PUB_IDS)))
    return corpus_of(*(
        make_record(
            pub_id,
            disciplines=";".join(draw(st.lists(st.sampled_from(["A", "B", "C"]), unique=True, max_size=2))),
            authors=draw(st.lists(_AUTHOR, min_size=1, max_size=4)),
        )
        for pub_id in pub_ids
    ))


def _decoded(table, column, rows):
    """The values each of the rows holds of a set-valued column, as a list
    per row in the order the table gives them."""
    sizes, codes = table.sets(column, np.array(rows, np.int64))
    values = list(map(table.values(column).__getitem__, codes.tolist()))
    bounds = np.cumsum(sizes).tolist()
    return [values[end - size:end] for size, end in zip(sizes.tolist(), bounds)]


# One corpus with every case above, so that each run checks all of them.
_EVERY_CASE = corpus_of(
    make_record("Q:1", 2000, "A", [
        {"name": "José García", "orcid": " x1 ", "email": "  ", "affiliation": "Ünï  Bonn",
         "references": ["Q:1", "X"]},
        {"name": "García, José", "journal": "", "grants": ["g1"]},
        {"name": "Jose  Garcia", "affiliation": "uni bonn", "grants": ["g1", "g2"]},
    ]),
    make_record("P1", 2001, "B;A", [
        {"name": "J. Garcia", "orcid": "x1", "email": "", "references": ["Q:1", "Q"]},
        {"name": "Ada Park", "references": ["P1"]},
    ]),
)


@settings(max_examples=150, deadline=None)
@given(corpus=_corpora(), weights=_WEIGHTS, threshold=st.sampled_from([0.3, 3.4, 4.4, 10.0, 11.6]))
@example(corpus=_EVERY_CASE, weights=dict.fromkeys(CRITERIA, 1.1), threshold=3.4)
def test_mention_table_codes_what_the_oracle_mentions_hold(corpus, weights, threshold):
    records = records_of(corpus)
    mentions = build_mentions(records)
    table = corpus.mentions
    assert table.ids == list(mentions)
    pub_ids = list(records)
    key, keys = table.block_keys()
    rows = range(len(table))
    sets = {column: list(map(set, _decoded(table, column, rows)))
            for _, kind, column in disambig._CRITERIA_TABLE if kind != "same"}
    for row, m in enumerate(mentions.values()):
        assert (pub_ids[table.pub[row]], keys[key[row]]) == (m.pub_id, block_key(m))
        for name, kind, column in disambig._CRITERIA_TABLE:
            if kind == "same":
                code = table.codes(column)[row]
                decoded = None if code < 0 else table.values(column)[code]
            elif kind == "overlap":
                decoded = sets[column][row]
            else:
                decoded = (pub_ids[table.pub[row]], sets[column][row])
            assert decoded == VALUE[name](m), (name, m)

    rules = ScoringRuleTable(weights=weights, threshold=threshold)
    blocks = {}
    for m in mentions.values():
        blocks.setdefault(block_key(m), []).append(m)
    expected = sorted(ids for ms in blocks.values() for ids in _oracle_clusters(ms, rules))
    clusters = disambiguate(corpus, rules)
    assert _ids(clusters) == expected
    assert [c.author_id for c in clusters] == [ids[0] for ids in expected]


# The set-valued columns, each once.
_SET_COLUMNS = sorted({column for _, kind, column in disambig._CRITERIA_TABLE if kind != "same"})


@settings(max_examples=150, deadline=None)
@given(corpus=_corpora(), order=st.lists(st.integers(0, 4 * len(_PUB_IDS) - 1), unique=True))
@example(corpus=_EVERY_CASE, order=[4, 0, 3, 1, 2])
def test_set_columns_are_gathered_for_rows_in_any_order(corpus, order):
    # A run asks for its rows in block layout, not ascending.
    mentions = list(build_mentions(records_of(corpus)).values())
    rows = [row for row in order if row < len(mentions)]
    for column in _SET_COLUMNS:
        held = _decoded(corpus.mentions, column, rows)
        assert [len(set(values)) for values in held] == list(map(len, held)), column
        assert [frozenset(values) for values in held] == [getattr(mentions[row], column) for row in rows], column


def _listed_pairs(ms, rules):
    """The pairs of the mentions that an anchor criterion of the rules
    lists, counted once for each value they share: for same and overlap
    criteria C(g, 2) per group of g mentions that hold one value, and for
    self_citation one per reference to another mention's publication."""
    plan = disambig._plan(rules)
    pubs = Counter(m.pub_id for m in ms)
    listed = 0
    for k in plan.anchors:
        name, kind, _ = disambig._CRITERIA_TABLE[k]
        if kind == "cites":
            listed += sum(pubs[ref] - (ref == m.pub_id) for m in ms for ref in m.references)
            continue
        values = [VALUE[name](m) for m in ms]
        held = Counter(v for v in values if v is not None) if kind == "same" else Counter(itertools.chain(*values))
        listed += sum(comb(g, 2) for g in held.values())
    return listed


def test_a_large_block_is_scored_in_memory_far_below_its_candidate_pairs(default_rules):
    # Mentions renamed into one block of 4,800 with their fields kept, as
    # when a common name meets many authors: most of its pairs share an
    # affiliation, a coauthor or a reference.
    corpus, _ = synth.generate_corpus(synth.SynthConfig(n_authors=500, seed=1))
    records = [json.loads(line) for line in export_lines(corpus)]
    renamed = itertools.islice((a for r in records for a in r["authors"]), 4800)
    for author in renamed:
        author["name"] = "Ada Probe"
    corpus = corpus_of(*records)
    blocks = block_mentions(corpus)
    large = blocks[("probe", "a")]
    assert len(large) == 4800
    # The corpus's set columns are built on the first block clustered; the
    # last block's run holds no earlier block.
    last = list(blocks.values())[-1]
    assert last is not large
    cluster_block(last, default_rules)
    mentions = build_mentions(records_of(corpus))
    listed = _listed_pairs([mentions[mid] for mid in large.mention_ids], default_rules)
    assert listed > 2_000_000

    tracemalloc.start()
    try:
        clusters = cluster_block(large, default_rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Listing every candidate pair at once would take 8 bytes per pair for
    # its key alone; scoring them a chunk at a time takes under half that.
    assert peak < 4 * listed, (peak, listed)
    assert sum(len(c.mention_ids) for c in clusters) == len(large)


def test_empty_and_single_mention_blocks(default_rules):
    assert disambiguate(corpus_of(), default_rules) == []
    assert _ids(cluster_block(as_block([mention("P1:0")]), default_rules)) == [("P1:0",)]


def test_readme_lists_every_criterion_with_its_kind_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert rows == [(name, kind) for name, kind, *_ in disambig._CRITERIA_TABLE]
    assert tuple(name for name, _ in rows) == CRITERIA


def test_disambiguate_end_to_end_on_tiny_corpus(default_rules):
    corpus = corpus_of(
        make_record("P1", authors=[{"name": "Ada Park", "orcid": "0-1"}]),
        make_record("P2", authors=[{"name": "A. Park", "orcid": "0-1"}]),
        make_record("P3", authors=[{"name": "Ann Park", "orcid": "0-2"}]),
    )
    clusters = disambiguate(corpus, default_rules)
    grouped = {c.mention_ids for c in clusters}
    assert ("P1:0", "P2:0") in grouped
    assert ("P3:0",) in grouped


def test_evaluation_worked_example():
    clusters = [MentionCluster(author_id="a", mention_ids=("a", "b", "c"))]
    truth = {"a": "X", "b": "X", "c": "Y"}
    result = evaluate_disambiguation(clusters, truth)
    assert result.predicted_pairs == 3
    assert result.matched_pairs == 1
    assert result.truth_pairs == 1
    assert result.precision == pytest.approx(1 / 3)
    assert result.recall == 1.0
    assert result.f1 == pytest.approx(0.5)
    assert result.flags == ()


def test_evaluation_all_singletons_flags_precision():
    clusters = [MentionCluster("a", ("a",)), MentionCluster("b", ("b",))]
    result = evaluate_disambiguation(clusters, {"a": "X", "b": "X"})
    assert result.precision == 1.0
    assert result.recall == 0.0
    assert "no_predicted_pairs" in result.flags


def test_evaluation_restricts_truth_pairs_to_blocks():
    # a/b share a block; c is the same true author in another block, so the
    # a-c and b-c truth pairs are blocking losses, not clustering ones.
    a = mention("a", surname="park")
    b = mention("b", surname="park")
    c = mention("c", surname="quinn")
    blocks = {("park", "a"): [a, b], ("quinn", "a"): [c]}
    clusters = [MentionCluster("a", ("a", "b")), MentionCluster("c", ("c",))]
    truth = {"a": "X", "b": "X", "c": "X"}
    unrestricted = evaluate_disambiguation(clusters, truth)
    restricted = evaluate_disambiguation(clusters, truth, blocks=blocks)
    assert unrestricted.truth_pairs == 3
    assert unrestricted.recall == pytest.approx(1 / 3)
    assert restricted.truth_pairs == 1
    assert restricted.recall == 1.0


def test_evaluation_errors():
    clusters = [MentionCluster("a", ("a", "b"))]
    with pytest.raises(DisambigError, match="not in truth"):
        evaluate_disambiguation(clusters, {"a": "X"})
    with pytest.raises(DisambigError, match="missing from blocks"):
        evaluate_disambiguation(clusters, {"a": "X", "b": "X"}, blocks={})


def evaluation_by_pairs(clusters, truth, blocks=None):
    """The counts, scores and flags of evaluate_disambiguation, from every
    pair of clustered mentions one at a time."""
    cluster_of = {mid: k for k, cluster in enumerate(clusters) for mid in cluster.mention_ids}
    block_of = None if blocks is None else {m.mention_id: key for key, ms in blocks.items() for m in ms}
    predicted = truth_pairs = matched = 0
    for a, b in itertools.combinations(sorted(cluster_of), 2):
        same_cluster = cluster_of[a] == cluster_of[b]
        same_author = truth[a] == truth[b]
        predicted += same_cluster
        matched += same_cluster and same_author
        truth_pairs += same_author and (block_of is None or block_of[a] == block_of[b])
    flags = []
    precision = matched / predicted if predicted else 1.0
    if not predicted:
        flags.append("no_predicted_pairs")
    recall = matched / truth_pairs if truth_pairs else 1.0
    if not truth_pairs:
        flags.append("no_truth_pairs")
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return DisambigEval(precision, recall, f1, predicted, truth_pairs, matched, tuple(flags))


@st.composite
def evaluation_inputs(draw):
    """Clusters over up to 12 mentions, truth labels for them and for up to
    two unclustered mentions, and, in some draws, blocks holding all of them
    except, in some of those, one clustered mention."""
    n = draw(st.integers(min_value=0, max_value=12))
    ids = [f"m{k:02d}" for k in range(n)]
    groups = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    clusters = [
        MentionCluster(f"c{g}", tuple(mid for mid, h in zip(ids, groups) if h == g)) for g in sorted(set(groups))
    ]
    ids += [f"u{k}" for k in range(draw(st.integers(0, 2)))]
    truth = {mid: f"T{draw(st.integers(0, 3))}" for mid in ids}
    if draw(st.booleans()):
        return clusters, truth, None
    if n and draw(st.booleans()):
        ids.remove(draw(st.sampled_from(ids[:n])))
    blocks = {}
    for mid in ids:
        blocks.setdefault(draw(st.sampled_from(["park", "quinn", "ross"])), []).append(SimpleNamespace(mention_id=mid))
    return clusters, truth, blocks


@settings(max_examples=300, deadline=None)
@given(evaluation_inputs())
@example(([], {}, None))
@example(([], {}, {}))
@example(([MentionCluster("c", ("a", "b"))], {"a": "X", "b": "Y"}, None))
def test_evaluation_equals_the_pair_by_pair_count(inputs):
    clusters, truth, blocks = inputs
    clustered = {mid for cluster in clusters for mid in cluster.mention_ids}
    missing = clustered - {m.mention_id for ms in (blocks or {}).values() for m in ms}
    if blocks is not None and missing:
        with pytest.raises(DisambigError, match=f"missing from blocks: {min(missing)}$"):
            evaluate_disambiguation(clusters, truth, blocks=blocks)
        return
    assert evaluate_disambiguation(clusters, truth, blocks=blocks) == evaluation_by_pairs(clusters, truth, blocks)


def test_cluster_and_truth_files_round_trip(tmp_path):
    clusters = [
        MentionCluster("P1:0", ("P1:0", "P2:0")),
        MentionCluster("P3:0", ("P3:0",)),
    ]
    truth = {"P1:0": "A1", "P2:0": "A1", "P3:0": "A2"}
    cpath = tmp_path / "clusters.jsonl"
    tpath = tmp_path / "truth.jsonl"
    write_clusters(cpath, clusters)
    write_truth(tpath, truth)
    assert read_clusters(cpath) == clusters
    assert read_truth(tpath) == truth


@pytest.mark.parametrize(
    "reader,valid,line,message",
    [
        (read_clusters, '{"author_id": "a", "mention_ids": ["a"]}', "[1]", "cluster must be a JSON object"),
        (
            read_clusters,
            '{"author_id": "a", "mention_ids": ["a"]}',
            '{"author_id": 1, "mention_ids": 5}',
            "'author_id' must be a string",
        ),
        (read_truth, '{"author_id": "A", "mention_id": "a"}', "null", "truth label must be a JSON object"),
        (
            read_truth,
            '{"author_id": "A", "mention_id": "a"}',
            '{"author_id": 1, "mention_id": 2}',
            "'author_id' must be a string",
        ),
        (
            read_clusters,
            '{"author_id": "a", "mention_ids": ["a"]}',
            '{"author_id": "b", "mention_ids": []}',
            "cluster b lists no mentions",
        ),
        (
            read_clusters,
            '{"author_id": "a", "mention_ids": ["a"]}',
            '{"author_id": "a", "mention_ids": ["b"]}',
            "author_id a is listed twice",
        ),
        (
            read_clusters,
            '{"author_id": "a", "mention_ids": ["a"]}',
            '{"author_id": "b", "mention_ids": ["b", "a"]}',
            "mention a is already in cluster a",
        ),
        (
            read_truth,
            '{"author_id": "A", "mention_id": "a"}',
            '{"author_id": "B", "mention_id": "a"}',
            "mention_id a is labelled twice",
        ),
    ],
)
def test_cluster_and_truth_files_reject_malformed_lines(tmp_path, reader, valid, line, message):
    path = tmp_path / "lines.jsonl"
    path.write_text(f"{valid}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(DisambigError, match=f"line 3: {message}"):
        reader(path)
