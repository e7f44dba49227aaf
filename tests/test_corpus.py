import copy
import gc
import itertools
import json
import sys
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmobility import columns as columns_module
from rankmobility import corpus as corpus_module
from rankmobility.columns import _code, _Coder, _unique
from rankmobility.corpus import (
    CorpusError,
    CorpusFilterConfig,
    _RecordError,
    _validate_record,
    export,
    filter_corpus,
    ingest,
    ingest_lines,
)

from rankmobility.synth import SynthConfig, generate_corpus

from conftest import collector_set, corpus_of, export_lines, make_record
from oracle import build_mentions, c5, filter_records, ingest_records, record_to_json, records_of


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


@pytest.mark.parametrize(
    "edit",
    [{"year": 2**62 + 1}, {"year": -(2**62) - 1}, {"year": 2**63, "citing_years": []}, {"citing_years": [2**62 + 1]}],
)
def test_years_beyond_what_the_columns_hold_are_rejected(edit, record_schema):
    record = make_record("P1", year=2000)
    record.update(edit)
    corpus = corpus_of(record)
    assert corpus.stats.rejected == [(1, "year out of range")]
    assert not record_schema.is_valid(record)
    record.update(year=2**62, citing_years=[2**62])
    assert len(corpus_of(record)) == 1 and record_schema.is_valid(record)


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


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize(
    "records,error",
    [
        ([make_record("P1"), make_record("P2")], None),
        ([make_record("P1"), make_record("P1")], "duplicate pub_id"),
        (None, "cannot read corpus"),
    ],
    ids=["ingested", "duplicate", "unreadable"],
)
def test_ingest_keeps_the_collector_state(tmp_path, records, error, enabled):
    path = tmp_path / "corpus.jsonl"
    if records is not None:
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with collector_set(enabled):
        if error is None:
            assert len(ingest(path)) == 2
        else:
            with pytest.raises(CorpusError, match=error):
                ingest(path)
        assert gc.isenabled() is enabled


def test_c5_counts_five_calendar_years_inclusive():
    corpus = corpus_of(make_record("P1", year=2000, citing_years=[2000, 2003, 2004, 2006]))
    assert corpus.c5.tolist() == [3]


def test_c5_zero_without_citations():
    corpus = corpus_of(make_record("P1"))
    assert corpus.c5.tolist() == [0]


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
    mentions = build_mentions(records_of(corpus))
    m = mentions["P1:0"]
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
    second = mentions["P1:1"]
    assert second.full_given is None
    assert second.cited_by == frozenset({"P2"})
    assert mentions["P0:0"].cited_by == frozenset({"P1"})


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
    assert set(records_of(kept)) == {"KEEP"}
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
        assert set(records_of(kept)) == {"P1", "P2"}
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


@pytest.fixture(scope="module")
def record_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("rankmobility.data")
        .joinpath("publication-record.schema.json")
        .read_text("utf-8")
    )
    return jsonschema.Draft202012Validator(schema)


def test_generated_records_conform_to_schema(record_schema):
    corpus = corpus_of(
        make_record("P1", citing_years=[2001]),
        make_record(
            "P2",
            authors=[{"name": "Ada Park", "grants": ["g1"], "references": ["P1"], "email": "a@b.se"}],
        ),
    )
    for line in export_lines(corpus):
        record_schema.validate(json.loads(line))


_RECORD_KEYS = ("pub_id", "year", "disciplines", "authors", "citing_years")
_MENTION_KEYS = ("name", "affiliation", "email", "orcid", "journal", "grants", "references")
# Where an edit lands: a top-level field, the first author, or one of its fields.
_PATHS = (
    *(("record", k) for k in (*_RECORD_KEYS, "extra")),
    ("authors", 0),
    *(("author", k) for k in (*_MENTION_KEYS, "extra")),
)
_DELETE = object()
# Values at the validator's and the schema's edges: each JSON type, empty and
# whitespace-only strings, years as floats, early citations, bad list items.
_EDGES = (_DELETE, None, True, 0, 1999, 2000.0, 2000.5, "", " ", "x", [], [""], ["G"], [1999], [2001.0],
          [True], [{}], {}, {"name": "x"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(1890, 2130) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# The five differences the README lists, each as an edit of a well-formed
# record, with whether the validator accepts the result (the schema does not
# when the validator does, and the other way round).
_DIFFERENCES = {
    "unknown_field": (lambda raw, author: raw.update(note="x"), True),
    "null_mention_field": (lambda raw, author: author.update(orcid=None), True),
    "whitespace_name": (lambda raw, author: author.update(name=" "), False),
    "early_citation": (lambda raw, author: raw["citing_years"].append(raw["year"] - 1), False),
    "float_year": (lambda raw, author: raw.update(year=float(raw["year"])), False),
}


def _edit(raw, path, value) -> None:
    """Set or delete the field at path, where raw still has a place for it."""
    where, key = path
    if where == "record":
        target = raw
    else:
        authors = raw.get("authors")
        if not isinstance(authors, list) or not authors:
            return
        target = authors if where == "authors" else authors[0]
        if where == "author" and not isinstance(target, dict):
            return
    if value is not _DELETE:
        target[key] = value
    elif isinstance(target, list) or key in target:
        del target[key]


def _full_record():
    return make_record(
        "P1",
        year=2000,
        disciplines="Chemistry;Biology",
        authors=[
            {"name": "Ada Park", "affiliation": "KTH", "email": "a@b.se", "orcid": "0000-0001", "journal": "J",
             "grants": ["G1"], "references": ["P0"]},
            {"name": "Bo Lind"},
        ],
        citing_years=[2000, 2003],
    )


@st.composite
def _raw_records(draw):
    """Well-formed records with some of the listed differences, then up to
    three fields deleted, replaced or added."""
    raw = copy.deepcopy(draw(_RECORD))
    for difference, _ in draw(st.lists(st.sampled_from(list(_DIFFERENCES.values())), max_size=2)):
        difference(raw, draw(st.sampled_from(raw["authors"])))
    for _ in range(draw(st.integers(0, 3))):
        _edit(raw, draw(st.sampled_from(_PATHS)), draw(st.sampled_from(_EDGES) | _JSON))
    return raw


def _accepts(raw) -> bool:
    try:
        _validate_record(raw)
    except _RecordError:
        return False
    return True


def _without_schema_only_rejections(raw):
    """raw without what only the schema rejects: unknown fields, and null
    for an optional mention field."""
    if not isinstance(raw, dict):
        return raw
    record = {k: v for k, v in raw.items() if k in _RECORD_KEYS}
    if isinstance(record.get("authors"), list):
        record["authors"] = [
            {k: v for k, v in a.items() if k in _MENTION_KEYS and (k == "name" or v is not None)}
            if isinstance(a, dict) else a
            for a in record["authors"]
        ]
    return record


def _has_validator_only_rejection(record) -> bool:
    """Whether a record the schema accepts has what only the validator
    rejects: a whitespace-only name, a year or citing year written as a
    float, or a citation year before the publication year."""
    years = [record["year"], *record["citing_years"]]
    return (
        any(not a["name"].strip() for a in record["authors"])
        or any(isinstance(y, float) for y in years)
        or any(y < record["year"] for y in record["citing_years"])
    )


def _differs_only_in_the_listed_ways(raw, schema) -> bool:
    """Whether the validator's verdict on raw is the schema's, up to the
    five listed differences."""
    record = _without_schema_only_rejections(raw)
    return _accepts(raw) == _accepts(record) == (schema.is_valid(record) and not _has_validator_only_rejection(record))


def test_validator_matches_schema_on_single_edits(record_schema):
    for path, value in itertools.product(_PATHS, _EDGES):
        raw = _full_record()
        _edit(raw, path, value)
        assert _differs_only_in_the_listed_ways(raw, record_schema), (path, value)


@settings(max_examples=300, deadline=None)
@given(raw=_raw_records())
def test_validator_matches_schema_on_generated_records(raw, record_schema):
    assert _differs_only_in_the_listed_ways(raw, record_schema)


@pytest.mark.parametrize("difference", _DIFFERENCES)
def test_each_listed_difference_between_validator_and_schema(difference, record_schema):
    raw = _full_record()
    edit, validator_accepts = _DIFFERENCES[difference]
    edit(raw, raw["authors"][0])
    assert _accepts(raw) is validator_accepts
    assert record_schema.is_valid(raw) is not validator_accepts


def test_a_rejected_line_changes_the_stats_not_the_corpus():
    a = corpus_of(make_record("P1"))
    b = ingest_lines(["{bad", json.dumps(make_record("P1"))])
    assert a.stats != b.stats
    assert export_lines(a) == export_lines(b)


def test_record_to_json_is_canonical():
    corpus = corpus_of(make_record("P1", disciplines="B; A"))
    (line,) = export_lines(corpus)
    assert line == record_to_json(records_of(corpus)["P1"])
    assert '"disciplines":"A;B"' in line
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# Pub ids of the corpora below, and ids that no corpus publication has.
_POOL = ["P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"]
_OUTSIDE = ["X1", "Ω2"]
# Blank, padded, non-ASCII and escaped strings.
_STRINGS = st.sampled_from(["", "  ", " Ünï  Bonn ", 'say "hi"\\', "tab\tnew\nline", "日本", " "]) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=5
)
_MENTION = st.fixed_dictionaries(
    {"name": st.sampled_from(["Ada Park", "José García", "A. Park", 'Å "Q" Öl']) | _STRINGS.filter(str.strip)},
    optional={
        **dict.fromkeys(("affiliation", "email", "orcid", "journal"), st.none() | _STRINGS),
        # Unsorted, with repeats; references to corpus publications and to others.
        "grants": st.lists(st.sampled_from(["g2", "g1", "G1", " "]), max_size=4),
        "references": st.lists(st.sampled_from(_POOL + _OUTSIDE), max_size=4),
    },
)
_PUBLICATION = st.fixed_dictionaries(
    {
        "pub_id": st.sampled_from(_POOL),
        "year": st.integers(1998, 2003),
        # Blank labels and repeated ones.
        "disciplines": st.sampled_from(["A", "B;A", " ; A;A ;", "", "C; B", "  ", "Ä;B"]),
        "authors": st.lists(_MENTION, min_size=1, max_size=4),
        "citing_years": st.lists(st.integers(2003, 2010), max_size=5),
    }
)
# Lines that ingest rejects or skips.
_OTHER_LINES = st.sampled_from(["{bad", "", "  ", "[]", '{"pub_id": "P9"}', json.dumps(make_record("P9", year=2001.0))])


@st.composite
def _corpus_lines(draw):
    """Corpus lines: publications with distinct ids, some in escaped ASCII,
    a few other lines, and now and then a repeated pub_id."""
    publications = draw(st.lists(_PUBLICATION, max_size=6, unique_by=lambda p: p["pub_id"]))
    lines = [json.dumps(p, ensure_ascii=draw(st.booleans())) for p in publications]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_OTHER_LINES))
    if publications and draw(st.integers(0, 9)) == 0:
        lines.append(json.dumps(draw(st.sampled_from(publications))))
    return lines


_FILTERS = st.tuples(
    st.integers(1, 4),
    st.tuples(st.integers(1998, 2003), st.integers(0, 3)).map(lambda lo_width: (lo_width[0], sum(lo_width))),
    st.sets(st.sampled_from(["A", "B", "C", "Ä", "D"]), min_size=1),
).map(lambda rules: [
    CorpusFilterConfig(max_authors=rules[0]),
    CorpusFilterConfig(year_range=rules[1]),
    CorpusFilterConfig(disciplines=frozenset(rules[2])),
    CorpusFilterConfig(max_authors=rules[0], year_range=rules[1], disciplines=frozenset(rules[2])),
])


def _plain(columns):
    """A corpus's columns as lists, for comparing two of them."""
    if isinstance(columns, np.ndarray):
        return columns.tolist()
    if isinstance(columns, dict):
        return {key: _plain(value) for key, value in columns.items()}
    if isinstance(columns, (tuple, list)):
        return [_plain(value) for value in columns]
    return columns


@settings(max_examples=200, deadline=None)
@given(lines=_corpus_lines(), configs=_FILTERS)
def test_columns_ingest_filter_and_export_as_the_record_path(lines, configs):
    try:
        records, stats = ingest_records(lines)
    except CorpusError as exc:
        with pytest.raises(CorpusError) as columnar:
            ingest_lines(lines)
        assert str(columnar.value) == str(exc)
        return
    corpus = ingest_lines(lines)
    assert corpus.stats == stats
    assert export_lines(corpus) == list(map(record_to_json, records.values()))
    assert corpus.c5.tolist() == list(map(c5, records.values()))
    for config in configs:
        kept, filter_stats = filter_corpus(corpus, config)
        kept_records, expected_stats = filter_records(records.values(), config)
        assert filter_stats == expected_stats
        kept_lines = export_lines(kept)
        assert kept_lines == list(map(record_to_json, kept_records))
        # The kept publications are coded as a corpus of just them codes them.
        assert _plain(kept._columns) == _plain(ingest_lines(kept_lines)._columns)


# Publications whose fields are absent, blank, escaped and non-ASCII.
_ODD_FIELDS = [
    make_record("P1", disciplines="", authors=[{"name": "Ada Park", "affiliation": "  ", "grants": []}]),
    make_record("P2", disciplines="Ä; B", authors=[
        {"name": 'Å "Q" Öl', "email": "tab\tnew\nline", "orcid": None, "references": ["P1", "Ω2", "P1"]},
        {"name": "José García", "journal": "日本", "grants": ["g2", " ", "g1"]},
    ], citing_years=[2004, 2003]),
    make_record("P3", authors=[{"name": "A. Park", "affiliation": 'say "hi"\\', "references": []}]),
    make_record("P4", disciplines="  ", authors=[{"name": "Bo Li", "email": "", "references": ["P3"]}]),
]


@pytest.mark.parametrize("batch", [1, 2, 3])
@settings(max_examples=50, deadline=None)
@given(publications=st.lists(_PUBLICATION, min_size=1, max_size=6, unique_by=lambda p: p["pub_id"]))
@example(publications=_ODD_FIELDS)
def test_export_across_batch_boundaries_writes_what_one_batch_does(batch, publications):
    lines = list(map(json.dumps, publications))
    default = export_lines(ingest_lines(lines))
    # Ingest and export both code a batch at a time.
    with mock.patch.object(columns_module, "_BATCH", batch), mock.patch.object(corpus_module, "_BATCH", batch):
        batched = export_lines(ingest_lines(lines))
    assert batched == default == list(map(record_to_json, ingest_records(lines)[0].values()))


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_authors=150, seed=4, name_collision_rate=0.2),
        SynthConfig(n_authors=150, seed=5, disciplines=("Physics", "Biology", "Chemistry"), start_years=(2000, 2001)),
    ],
    ids=["collisions", "three_disciplines"],
)
def test_generated_columns_are_those_of_their_export_ingested(config):
    corpus, _ = generate_corpus(config)
    assert _plain(corpus._columns) == _plain(ingest_lines(export_lines(corpus))._columns)


# Values a column may code: strings, tuples, frozensets and ints, and the
# missing values None and -1.
_VALUES = (st.text(max_size=2) | st.tuples(st.text(max_size=1), st.integers(0, 2))
           | st.frozensets(st.sampled_from("ab")) | st.integers(-2, 4) | st.none())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coder_numbers_values_by_first_appearance(data):
    stream = data.draw(st.lists(_VALUES, max_size=30))
    seed = data.draw(st.lists(_VALUES.filter(lambda value: value is not None and value != -1), unique=True,
                              max_size=4))
    # The oracle: the seed first, then the rest as first seen; missing values -1.
    index = {value: k for k, value in enumerate(seed)}
    expected = ([-1 if value is None or value == -1 else index.setdefault(value, len(index)) for value in stream],
                list(index))
    coder = _Coder(seed)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=4)))
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        batch = stream[lo:hi]
        coder.add(iter(batch), len(batch) if data.draw(st.booleans()) else -1)
    codes, values = coder.codes()
    assert (codes.tolist(), values) == expected
    codes, values = _code(stream, seed)
    assert (codes.tolist(), values) == expected


def test_ingest_keeps_the_bytes_of_its_columns_per_mention():
    """What ingest keeps, as tracemalloc counts it, stays below a bound worked
    out from the columns, and the record path keeps at least three times it."""
    generated, _ = generate_corpus(SynthConfig(n_authors=300, seed=3, name_collision_rate=0.2))
    lines = export_lines(generated)
    del generated
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        corpus = ingest_lines(lines)
        kept = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        records = ingest_records(lines)
        kept_by_records = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    del records
    n_mentions, n_pubs = len(corpus.mentions), len(corpus)
    columns = corpus._columns
    entries = sum(len(codes) for _, codes, _ in columns.lists.values())
    # Each distinct string once, and a list slot for it.
    distinct = [*(values for _, values in columns.fields.values()), columns.lists["grants"][2],
                columns.lists["references"][2][n_pubs:], columns.pub_ids]
    strings = sum(sys.getsizeof(value) + 8 for values in distinct for value in values)
    # Per mention: five field codes (int32), its row's publication (int64)
    # and two list offsets (int64). Per list entry a code (int32). Per
    # publication: year, c5, citing and mention offsets (int64), a
    # discipline-set code (int32) and a slot in two lists of pub_ids. Per
    # citing year an int64.
    arithmetic = (n_mentions * (5 * 4 + 8 + 2 * 8) + entries * 4 + n_pubs * (4 * 8 + 4 + 2 * 8)
                  + len(columns.citing) * 8 + strings)
    bound = 1.5 * arithmetic + 64 * 1024
    assert kept < bound
    assert kept_by_records > 3 * bound


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), max_size=30))
def test_unique_gives_what_numpy_unique_gives(keys):
    keys = np.array(keys, np.int64)
    assert np.array_equal(_unique(keys), np.unique(keys))
