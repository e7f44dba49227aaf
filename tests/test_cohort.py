import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.cohort import build_profiles, cohort_impacts, population_impacts
from rankmobility.disambig import DisambigError, MentionCluster
from rankmobility.inequality import cohort_gini_series, gini

from conftest import careers_of, corpus_of, make_record
from oracle import build_mentions, c5, records_of


def members_of(careers, discipline, start_year):
    return cohort_impacts(careers, discipline, start_year)[0]


def test_windows_are_five_years_each():
    # One Chemistry paper in each year 2000..2010 with c5 = 2^(year - 2000).
    careers = careers_of(("A1", [(year, "Chemistry", 1 << (year - 2000)) for year in range(2000, 2011)]))
    assert cohort_impacts(careers, "Chemistry", 2000) == (["A1"], [0b11111], [0b1111100000])


def test_build_profiles_from_corpus():
    corpus = corpus_of(
        make_record("P1", year=2001, citing_years=[2001, 2002, 2009]),
        make_record("P2", year=2003, disciplines="Biology"),
        make_record("P3", year=1999, disciplines="History", authors=[{"name": "Other One"}]),
    )
    clusters = [
        MentionCluster("A2", ("P3:0",)),
        MentionCluster("A1", ("P1:0", "P2:0")),
    ]
    careers = build_profiles(corpus, clusters)
    pub_ids = list(records_of(corpus))
    assert careers.author_ids == ("A1", "A2")
    assert len(careers) == 2
    assert careers.start.tolist() == [2001, 1999]
    assert [pub_ids[k] for k in careers.pub[careers.author == 0]] == ["P1", "P2"]
    assert careers.c5[pub_ids.index("P1")] == 2  # 2009 falls outside [2001, 2005]
    assert not careers.start.flags.writeable


def test_build_profiles_deduplicates_shared_publications():
    corpus = corpus_of(
        make_record("P1", authors=[{"name": "Ada Park"}, {"name": "A. Park"}]),
    )
    careers = build_profiles(corpus, [MentionCluster("A1", ("P1:0", "P1:1"))])
    assert careers.author.tolist() == [0]
    assert careers.pub.tolist() == [0]


@pytest.mark.parametrize("mention_id", ["P9:0", "P1:1", "P1:01", "P1:+0", "P1: 0", "P1:", "P1", "A:P1:1", "A:0"])
def test_build_profiles_unknown_mention(mention_id):
    corpus = corpus_of(make_record("P1"), make_record("A:P1"))
    careers = build_profiles(corpus, [MentionCluster("A1", ("A:P1:0", "P1:0"))])
    assert careers.pub.tolist() == [0, 1]
    with pytest.raises(DisambigError, match=re.escape(f"cluster A2 references unknown mention {mention_id}")):
        build_profiles(corpus, [MentionCluster("A1", ("P1:0",)), MentionCluster("A2", (mention_id,))])


def test_career_start_is_global_across_disciplines():
    # First paper in another field sets the clock; the author is not in the
    # 2002 chemistry cohort even though chemistry starts for them in 2002.
    careers = careers_of(("A1", [(2000, "History", 0), (2002, "Chemistry", 1), (2007, "Chemistry", 2)]))
    assert members_of(careers, "Chemistry", 2002) == []
    assert members_of(careers, "Chemistry", 2000) == ["A1"]


def test_membership_requires_discipline_papers_in_both_windows():
    careers = careers_of(
        ("A1", [(2000, "Chemistry", 1)]),
        ("A2", [(2000, "Biology", 1), (2006, "Chemistry", 1)]),
        ("A3", [(2000, "Chemistry", 1), (2005, "Chemistry", 1)]),
        ("A4", [(2000, "Chemistry", 1), (2006, "Biology", 1)]),
    )
    assert members_of(careers, "Chemistry", 2000) == ["A3"]


def test_window_edges_are_inclusive():
    edges = careers_of(("A1", [(2000, "Chemistry", 1), (2004, "Chemistry", 1), (2009, "Chemistry", 1)]))
    assert members_of(edges, "Chemistry", 2000) == ["A1"]
    outside = careers_of(("A2", [(2000, "Chemistry", 1), (2010, "Chemistry", 1)]))
    assert members_of(outside, "Chemistry", 2000) == []


def test_aggregate_impact_sums_windowed_c5():
    careers = careers_of(
        (
            "A1",
            [
                (2000, "Chemistry", 3),
                (2002, "Chemistry;Biology", 5),
                (2004, "Biology", 7),
                (2006, "Chemistry", 11),
            ],
        )
    )
    years = careers.year[careers.pub]
    assert careers.c5[careers.pub[(2000 <= years) & (years <= 2004)]].sum() == 15
    assert careers.impacts("Chemistry", 2000, 2004)[1].tolist() == [8]
    assert careers.impacts("Chemistry", 2005, 2009)[1].tolist() == [11]
    active, total = careers.impacts("History", 2005, 2009)
    assert total.tolist() == [0]
    assert active.tolist() == [False]
    assert total.dtype == np.int64


def test_cohort_impacts_are_sorted_and_aligned():
    careers = careers_of(
        ("B", [(2000, "Chemistry", 2), (2006, "Chemistry", 4)]),
        ("A", [(2000, "Chemistry", 1), (2005, "Chemistry", 3)]),
        ("C", [(2001, "Chemistry", 9), (2006, "Chemistry", 9)]),
    )
    members, impact1, impact2 = cohort_impacts(careers, "Chemistry", 2000)
    assert members == ["A", "B"]
    assert impact1 == [1, 2]
    assert impact2 == [3, 4]


@st.composite
def corpora_and_clusters(draw):
    """A small corpus, and clusters over some of its mentions in shuffled
    order; a cluster may hold several mentions of one publication."""
    pubs = draw(
        st.lists(
            st.tuples(
                st.integers(2000, 2012),
                st.sampled_from(["A", "B", "A;B"]),
                st.lists(st.integers(0, 7), max_size=4),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    corpus = corpus_of(
        *(
            make_record(
                f"P{k}",
                year=year,
                disciplines=disciplines,
                citing_years=[year + d for d in delays],
                authors=[{"name": "Ada Park"}] * n_authors,
            )
            for k, (year, disciplines, delays, n_authors) in enumerate(pubs)
        )
    )
    labels = draw(st.lists(st.integers(-1, 5), min_size=len(corpus.mentions), max_size=len(corpus.mentions)))
    groups: dict[int, list[str]] = {}
    for mid, label in zip(corpus.mentions.ids, labels):
        if label >= 0:
            groups.setdefault(label, []).append(mid)
    clusters = [MentionCluster(min(mids), tuple(mids)) for mids in groups.values()]
    return corpus, draw(st.permutations(clusters))


def scan(records, mentions, cluster, discipline, lo, hi):
    """Whether the cluster's author publishes in the discipline in [lo, hi],
    and the c5 sum of those publications, by a plain scan."""
    pub_ids = {mentions[mid].pub_id for mid in cluster.mention_ids}
    hits = [pid for pid in pub_ids if lo <= records[pid].year <= hi and discipline in records[pid].disciplines]
    return bool(hits), sum(c5(records[pid]) for pid in hits)


@settings(max_examples=80, deadline=None)
@given(corpora_and_clusters(), st.sampled_from(["A", "B", "C"]), st.integers(2000, 2004))
def test_cohort_and_population_impacts_match_a_plain_scan(data, discipline, year):
    corpus, clusters = data
    careers = build_profiles(corpus, clusters)
    assert len(careers) == len(clusters)

    records = records_of(corpus)
    mentions = build_mentions(records)
    expected = ([], [], [])
    for cluster in sorted(clusters, key=lambda c: c.author_id):
        start = min(records[mentions[mid].pub_id].year for mid in cluster.mention_ids)
        active1, impact1 = scan(records, mentions, cluster, discipline, year, year + 4)
        active2, impact2 = scan(records, mentions, cluster, discipline, year + 5, year + 9)
        if start == year and active1 and active2:
            for column, value in zip(expected, (cluster.author_id, impact1, impact2)):
                column.append(value)
    assert cohort_impacts(careers, discipline, year) == expected

    windows = range(1998, 2012)
    series = cohort_gini_series({lo: population_impacts(careers, discipline, lo) for lo in windows}, min_cohort=2)
    points, skipped = [], []
    for lo in windows:
        scans = (scan(records, mentions, c, discipline, lo, lo + 4) for c in clusters)
        impacts = [total for active, total in scans if active]
        if len(impacts) < 2 or not any(impacts):
            skipped.append(lo)
        else:
            points.append((lo, gini(impacts), len(impacts)))
    assert list(zip(series.years.tolist(), series.values.tolist(), series.n_authors.tolist())) == points
    assert series.skipped == tuple(skipped)
