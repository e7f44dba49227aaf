import json

import pytest

from rankmobility.corpus import ingest_lines, record_to_json
from rankmobility.disambig import ScoringRuleTable


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
    return [record_to_json(pub) for pub in corpus.publications.values()]


@pytest.fixture
def default_rules():
    return ScoringRuleTable.default()
