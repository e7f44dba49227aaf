import gc
import json
from contextlib import contextmanager

import pytest

from rankmobility.cohort import build_profiles
from rankmobility.corpus import _lines, ingest_lines
from rankmobility.disambig import MentionCluster, ScoringRuleTable


# Generator settings that are module constants of rankmobility.synth, not
# SynthConfig fields, with their values; a config naming one is rejected.
REMOVED_SYNTH_SETTINGS = {
    "career_years": 10,
    "paper_rate": 0.8,
    "productivity_sigma": 0.6,
    "p_missing_email": 0.4,
    "p_missing_affiliation": 0.3,
    "p_missing_grants": 0.5,
    "p_second_discipline": 0.1,
    "collaborators": [2, 4],
    "group_size": 6,
    "max_coauthors": 3,
    "p_collab_reference": 0.4,
    "late_citation_rate": 0.05,
    "updates_per_year": 10,
}


def make_record(
    pub_id,
    year=2000,
    disciplines="Chemistry",
    authors=None,
    citing_years=(),
    **extra,
):
    record = {
        "pub_id": pub_id,
        "year": year,
        "disciplines": disciplines,
        "authors": authors if authors is not None else [{"name": "Ada Park"}],
        "citing_years": list(citing_years),
    }
    record.update(extra)
    return record


def corpus_of(*records):
    return ingest_lines(json.dumps(r) for r in records)


def export_lines(corpus):
    """The lines export writes for a corpus, without the newlines."""
    return [line[:-1] for line in _lines(corpus._columns)]


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the cyclic garbage collector disabled, so a
    leaked pause shows up in the test that leaked it, not in later ones."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@contextmanager
def collector_set(enabled):
    """Switch the cyclic garbage collector on or off for the block, and back
    on after it."""
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def default_rules():
    return ScoringRuleTable.default()


def careers_of(*authors):
    """Careers of (author_id, [(year, disciplines, c5), ...]) authors, built
    from a corpus with one single-author publication per entry whose c5
    citations all come in its own year. Disciplines are ';'-separated."""
    records, clusters = [], []
    for author_id, pubs in authors:
        pub_ids = [f"{author_id}-{k}" for k in range(len(pubs))]
        records += [
            make_record(pid, year=year, disciplines=disciplines, citing_years=[year] * c5)
            for pid, (year, disciplines, c5) in zip(pub_ids, pubs)
        ]
        clusters.append(MentionCluster(author_id, tuple(f"{pid}:0" for pid in pub_ids)))
    return build_profiles(corpus_of(*records), clusters)
