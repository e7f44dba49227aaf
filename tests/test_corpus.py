import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.corpus import (
    Corpus,
    CorpusError,
    CorpusFilterConfig,
    export,
    filter_corpus,
    ingest,
    ingest_lines,
    record_to_json,
)

from conftest import corpus_of, export_lines, make_record


def test_ingest_accepts_minimal_record():
    corpus = corpus_of(make_record("P1"))
    assert len(corpus) == 1
    assert corpus.stats.accepted == 1
    assert corpus.stats.rejected == []


@pytest.mark.parametrize(
    "mutation, reason_part",
    [
        (lambda r: r.pop("year"), "missing required field: year"),
        (lambda r: r.pop("citing_years"), "missing required field: citing_years"),
        (lambda r: r.__setitem__("year", "2000"), "year must be an integer"),
        (lambda r: r.__setitem__("year", True), "year must be an integer"),
        (lambda r: r.__setitem__("pub_id", ""), "pub_id must be a non-empty string"),
        (lambda r: r.__setitem__("authors", []), "authors must be a non-empty array"),
        (lambda r: r.__setitem__("authors", [{"name": "  "}]), "missing a name"),
        (lambda r: r.__setitem__("disciplines", ["Chemistry"]), "semicolon-separated"),
        (lambda r: r.__setitem__("citing_years", [1999]), "citation precedes publication"),
        (lambda r: r.__setitem__("citing_years", ["2001"]), "array of integers"),
    ],
)
def test_ingest_rejects_bad_records(mutation, reason_part):
    record = make_record("P1", year=2000)
    mutation(record)
    corpus = corpus_of(record)
    assert len(corpus) == 0
    assert len(corpus.stats.rejected) == 1
    line, reason = corpus.stats.rejected[0]
    assert line == 1
    assert reason_part in reason


def test_ingest_rejects_invalid_json_line_but_continues():
    lines = ["{not json", json.dumps(make_record("P2"))]
    corpus = ingest_lines(lines)
    assert corpus.stats.lines_read == 2
    assert corpus.stats.accepted == 1
    assert corpus.stats.rejected[0][0] == 1
    assert "invalid JSON" in corpus.stats.rejected[0][1]


def test_blank_lines_are_not_counted():
    lines = ["", json.dumps(make_record("P1")), "   "]
    corpus = ingest_lines(lines)
    assert corpus.stats.lines_read == 1


def test_duplicate_pub_id_aborts():
    with pytest.raises(CorpusError, match="duplicate pub_id: P1"):
        corpus_of(make_record("P1"), make_record("P1"))


def test_ingest_missing_file():
    with pytest.raises(CorpusError, match="cannot read corpus"):
        ingest("/nonexistent/corpus.jsonl")


def test_c5_counts_five_calendar_years_inclusive():
    corpus = corpus_of(make_record("P1", year=2000, citing_years=[2000, 2003, 2004, 2006]))
    assert corpus.c5("P1") == 3


def test_c5_zero_without_citations():
    corpus = corpus_of(make_record("P1"))
    assert corpus.c5("P1") == 0


def test_mention_derivation():
    corpus = corpus_of(
        make_record(
            "P1",
            authors=[
                {
                    "name": "José García",
                    "affiliation": "  MPI  Leipzig ",
                    "email": "JG@Example.EDU",
                    "journal": "Journal of Tests",
                    "grants": ["g2", "g1", "g1"],
                    "references": ["P0"],
                },
                {"name": "B. Quick"},
            ],
        ),
        make_record("P0", year=1999),
        make_record("P2", year=2001, authors=[{"name": "C. Citer", "references": ["P1"]}]),
    )
    m = corpus.mentions["P1:0"]
    assert m.surname == "garcia"
    assert m.given == "jose"
    assert m.initials == "j"
    assert m.full_given == "jose"
    assert m.affiliation == "mpi leipzig"
    assert m.email == "jg@example.edu"
    assert m.journal == "journal of tests"
    assert m.grant_ids == frozenset({"g1", "g2"})
    assert m.coauthor_names == frozenset({"b quick"})
    assert m.cited_by == frozenset({"P2"})
    second = corpus.mentions["P1:1"]
    assert second.full_given is None
    assert second.cited_by == frozenset({"P2"})
    assert corpus.mentions["P0:0"].cited_by == frozenset({"P1"})


def test_filter_rules_and_counters():
    config = CorpusFilterConfig(
        max_authors=2, year_range=(2000, 2005), disciplines=frozenset({"Chemistry"})
    )
    corpus = corpus_of(
        make_record("KEEP", year=2001),
        make_record("LONG", authors=[{"name": f"A{k} B"} for k in range(3)]),
        make_record("OLD", year=1990),
        make_record("OTHER", disciplines="History"),
        make_record("BOTH", year=1990, disciplines="History"),
    )
    kept, stats = filter_corpus(corpus, config)
    assert set(kept.publications) == {"KEEP"}
    assert stats.kept == 1
    assert stats.removed == 4
    assert stats.by_rule == {
        "too_many_authors": 1,
        "year_out_of_range": 2,
        "discipline_excluded": 2,
    }


def test_filter_is_idempotent():
    config = CorpusFilterConfig(year_range=(2000, 2001))
    corpus = corpus_of(make_record("P1"), make_record("P2", year=1999))
    once, _ = filter_corpus(corpus, config)
    twice, stats = filter_corpus(once, config)
    assert export_lines(once) == export_lines(twice)
    assert stats.removed == 0


def test_filter_with_no_disciplines_applies_no_discipline_filter():
    corpus = corpus_of(make_record("P1"), make_record("P2", disciplines="History"))
    for disciplines in (None, frozenset()):
        config = CorpusFilterConfig(disciplines=disciplines)
        assert config.disciplines is None
        kept, stats = filter_corpus(corpus, config)
        assert set(kept.publications) == {"P1", "P2"}
        assert stats.removed == 0


def test_filter_config_validation():
    with pytest.raises(ValueError):
        CorpusFilterConfig(max_authors=0)
    with pytest.raises(ValueError):
        CorpusFilterConfig(year_range=(2005, 2000))


def test_export_after_ingest_is_byte_stable(tmp_path):
    record = make_record(
        "P1",
        disciplines="Biology; Chemistry",
        authors=[{"name": "Ada Park", "grants": ["g2", "g1"], "references": ["P9", "P2"]}],
        citing_years=[2005, 2001],
    )
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    export(corpus_of(record), first)
    export(ingest(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_unicode_preserved_in_export():
    corpus = corpus_of(make_record("P1", authors=[{"name": "José García"}]))
    (line,) = export_lines(corpus)
    assert "José García" in line


_AUTHOR = st.fixed_dictionaries(
    {"name": st.text(st.characters(categories=("Lu", "Ll"), max_codepoint=0x2FF), min_size=1, max_size=12)},
    optional={
        "email": st.emails(),
        "affiliation": st.text(min_size=1, max_size=20),
        "grants": st.lists(st.text(min_size=1, max_size=6), max_size=3),
        "references": st.lists(st.text(min_size=1, max_size=6), max_size=3),
    },
)

_RECORD = st.builds(
    make_record,
    pub_id=st.text(min_size=1, max_size=8),
    year=st.integers(min_value=1900, max_value=2100),
    disciplines=st.sampled_from(["Chemistry", "Biology; Physics", "  ", "A;B;C"]),
    authors=st.lists(_AUTHOR, min_size=1, max_size=4),
    citing_years=st.lists(st.integers(min_value=2100, max_value=2120), max_size=4),
)


@settings(max_examples=40, deadline=None)
@given(record=_RECORD)
def test_roundtrip_property(record):
    corpus = corpus_of(record)
    if len(corpus) == 0:
        return
    first = export_lines(corpus)
    assert export_lines(ingest_lines(first)) == first


def test_generated_records_conform_to_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("rankmobility.data")
        .joinpath("publication-record.schema.json")
        .read_text("utf-8")
    )
    validator = jsonschema.Draft202012Validator(schema)
    corpus = corpus_of(
        make_record("P1", citing_years=[2001]),
        make_record(
            "P2",
            authors=[{"name": "Ada Park", "grants": ["g1"], "references": ["P1"], "email": "a@b.se"}],
        ),
    )
    for line in export_lines(corpus):
        validator.validate(json.loads(line))


def test_corpus_equality_ignores_stats():
    a = corpus_of(make_record("P1"))
    b = Corpus(a.publications.values())
    assert a == b


def test_record_to_json_is_canonical():
    corpus = corpus_of(make_record("P1", disciplines="B; A"))
    pub = corpus.publications["P1"]
    line = record_to_json(pub)
    assert '"disciplines":"A;B"' in line
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
