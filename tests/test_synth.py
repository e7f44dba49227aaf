import gc
import json
import re
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

from rankmobility.disambig import (
    ScoringRuleTable,
    block_mentions,
    disambiguate,
    evaluate_disambiguation,
)
from rankmobility.inequality import gini
from rankmobility.jsonio import plain
from rankmobility import synth
from rankmobility.synth import SynthConfig, generate_corpus, sample_transitions

from conftest import REMOVED_SYNTH_SETTINGS, collector_set, export_lines
from oracle import build_mentions, records_of, simulate_citations


def small_config(**overrides):
    base = dict(
        n_authors=60,
        seed=1,
        disciplines=("Chemistry",),
        start_years=(2000, 2001),
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_same_config_reproduces_corpus_bit_for_bit():
    first_corpus, first_truth = generate_corpus(small_config())
    second_corpus, second_truth = generate_corpus(small_config())
    assert export_lines(first_corpus) == export_lines(second_corpus)
    assert first_truth == second_truth


def test_different_seeds_differ():
    a, _ = generate_corpus(small_config(seed=1))
    b, _ = generate_corpus(small_config(seed=2))
    assert export_lines(a) != export_lines(b)


def test_truth_covers_every_mention():
    corpus, truth = generate_corpus(small_config())
    expected = {
        f"{pub.pub_id}:{pos}"
        for pub in records_of(corpus).values()
        for pos in range(len(pub.authors))
    }
    assert set(truth) == expected
    assert all(re.fullmatch(r"A\d{6}", label) for label in truth.values())


def test_every_author_leads_at_least_one_paper():
    corpus, truth = generate_corpus(small_config())
    leads = {
        truth[f"{pub.pub_id}:0"] for pub in records_of(corpus).values()
    }
    assert leads == set(truth.values())


def test_zero_collision_rate_means_names_identify_authors():
    corpus, truth = generate_corpus(
        small_config(name_collision_rate=0.0, p_initials_only=0.0)
    )
    mentions = build_mentions(records_of(corpus))
    labels_by_name: dict[str, set[str]] = {}
    for mid, label in truth.items():
        labels_by_name.setdefault(mentions[mid].name, set()).add(label)
    assert all(len(labels) == 1 for labels in labels_by_name.values())
    assert len(labels_by_name) == len(set(truth.values()))


def test_high_collision_rate_produces_shared_names():
    corpus, truth = generate_corpus(
        small_config(n_authors=80, name_collision_rate=0.5, p_initials_only=0.0)
    )
    mentions = build_mentions(records_of(corpus))
    labels_by_name: dict[str, set[str]] = {}
    for mid, label in truth.items():
        labels_by_name.setdefault(mentions[mid].name, set()).add(label)
    assert max(len(labels) for labels in labels_by_name.values()) >= 2


def test_generated_lines_conform_to_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("rankmobility.data")
        .joinpath("publication-record.schema.json")
        .read_text("utf-8")
    )
    validator = jsonschema.Draft202012Validator(schema)
    corpus, _ = generate_corpus(small_config(n_authors=30))
    for line in export_lines(corpus):
        validator.validate(json.loads(line))


def test_full_orcid_coverage_allows_exact_recovery():
    corpus, truth = generate_corpus(small_config(p_missing_orcid=0.0))
    rules = ScoringRuleTable(weights={"orcid_match": 10.0}, threshold=10.0)
    clusters = disambiguate(corpus, rules)
    result = evaluate_disambiguation(clusters, truth, blocks=block_mentions(corpus))
    assert result.precision == 1.0
    assert result.recall == 1.0
    assert result.f1 == 1.0


def test_references_point_at_real_publications():
    corpus, _ = generate_corpus(small_config())
    records = records_of(corpus)
    for pub in records.values():
        for mention in pub.authors:
            for ref in mention.get("references", ()):
                assert ref in records
                assert ref != pub.pub_id


def test_years_disciplines_and_citations_in_range():
    config = small_config(disciplines=("Chemistry", "Biology"))
    corpus, _ = generate_corpus(config)
    lo = config.start_years[0]
    hi = config.start_years[1] + synth.CAREER_YEARS - 1
    for pub in records_of(corpus).values():
        assert lo <= pub.year <= hi
        assert pub.disciplines <= set(config.disciplines)
        assert list(pub.citing_years) == sorted(pub.citing_years)
        assert all(year >= pub.year for year in pub.citing_years)


def test_some_citations_arrive_after_the_impact_window():
    corpus, _ = generate_corpus(small_config(n_authors=80, seed=3))
    assert any(
        year > pub.year + 4
        for pub in records_of(corpus).values()
        for year in pub.citing_years
    )


def author_citation_totals(corpus, truth):
    totals: dict[str, int] = {}
    for pub in records_of(corpus).values():
        weight = len(pub.citing_years)
        for pos in range(len(pub.authors)):
            label = truth[f"{pub.pub_id}:{pos}"]
            totals[label] = totals.get(label, 0) + weight
    return totals


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_authors=300, seed=1, name_collision_rate=0.2),
        small_config(n_authors=200, alpha=0.0, start_years=(2000, 2000)),
        small_config(n_authors=200, alpha=1.26, start_years=(2000, 2000)),
        small_config(citation_rate=0.0),
        SynthConfig(n_authors=1, seed=4),
        small_config(n_authors=150, seed=5, start_years=(1990, 2004)),
        SynthConfig(n_authors=2, seed=2, start_years=(1980, 2010)),
        SynthConfig(n_authors=5, seed=3, citation_rate=0.05),
        SynthConfig(n_authors=5, seed=3, citation_rate=1e-6),
    ],
    ids=[
        "collisions", "alpha-0", "alpha-1.26", "no-citations", "one-author", "spread-starts",
        "year-gap", "sparse-citations", "none-drawn",
    ],
)
def test_citation_arrival_matches_the_per_hit_oracle(config):
    rng = np.random.default_rng(config.seed)
    journals = {d: [f"Journal of {d} {k + 1}" for k in range(6)] for d in config.disciplines}
    authors = synth._make_authors(config, rng, journals)
    papers = synth._make_papers(config, rng, authors, journals)
    synth._add_references(rng, authors, papers)
    oracle_rng = np.random.default_rng()
    oracle_rng.bit_generator.state = rng.bit_generator.state
    oracle_papers = [replace(paper, citing_years=[]) for paper in papers]

    synth._simulate_citations(config, rng, authors, papers)
    simulate_citations(config, oracle_rng, authors, oracle_papers)

    assert [p.citing_years for p in papers] == [p.citing_years for p in oracle_papers]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if config.start_years == (1990, 2004):
        assert any(year - p.year >= 5 for p in papers for year in p.citing_years)
    # The years with a citable paper, and those a citation arrived in.
    citable = {year for p in papers for year in range(p.year, p.year + 5)}
    cited = {year for p in papers for year in p.citing_years}
    if config.start_years == (1980, 2010):
        # A year with nothing to cite, and a citable year that drew no citation.
        assert set(range(papers[0].year, papers[-1].year + 5)) - citable and citable - cited
    if config.citation_rate == 0.05:
        assert cited and citable - cited
    if config.citation_rate == 1e-6:
        assert not cited


def test_concentration_rises_with_alpha():
    ginis = []
    for alpha in (0.0, 1.0, 2.0):
        corpus, truth = generate_corpus(small_config(n_authors=120, seed=9, alpha=alpha))
        totals = author_citation_totals(corpus, truth)
        ginis.append(gini(list(totals.values())))
    assert ginis[0] < ginis[1] < ginis[2]


def test_sample_transitions_needs_enough_authors():
    with pytest.raises(ValueError, match="need at least 1000 authors"):
        sample_transitions(0.5, 999, seed=0)


def test_sample_transitions_balanced_first_window():
    table = sample_transitions(0.5, 2000, seed=4)
    assert np.bincount(table.q1, minlength=11)[1:].tolist() == [200] * 10


def test_sample_transitions_small_d_pins_ranks():
    table = sample_transitions(0.01, 2000, seed=4)
    np.testing.assert_array_equal(table.q2, table.q1)


def test_sample_transitions_large_d_spreads_ranks():
    table = sample_transitions(1e6, 2000, seed=4)
    counts = np.bincount(table.q2, minlength=11)[1:]
    assert np.abs(counts - 200).max() < 70


def test_sample_transitions_seeded():
    a = sample_transitions(0.5, 1500, seed=7)
    b = sample_transitions(0.5, 1500, seed=7)
    c = sample_transitions(0.5, 1500, seed=8)
    np.testing.assert_array_equal(a.q2, b.q2)
    assert not np.array_equal(a.q2, c.q2)


def test_sample_transitions_custom_bins():
    table = sample_transitions(0.5, 1000, seed=2, n_bins=5)
    assert set(table.q1.tolist()) == {1, 2, 3, 4, 5}
    assert table.n_bins == 5
    assert table.author_ids[0] == "S0000"


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"n_authors": 0}, "n_authors must be positive"),
        ({"seed": -3}, "seed must be nonnegative"),
        ({"alpha": -0.1}, "alpha must be nonnegative"),
        ({"name_collision_rate": 1.5}, "name_collision_rate must lie in"),
        ({"p_initials_only": -0.2}, "p_initials_only must lie in"),
        ({"start_years": (2002, 2000)}, "start_years must be a nondecreasing pair"),
        ({"citation_rate": -1.0}, "citation_rate must be nonnegative"),
        ({"disciplines": ()}, "at least one discipline is required"),
        ({"disciplines": ("Chemistry", "")}, "discipline label '' must be"),
        ({"disciplines": ("  ",)}, "discipline label '  ' must be"),
        ({"disciplines": (" Physics ",)}, "discipline label ' Physics ' must be"),
        ({"disciplines": ("Chem;Bio", "Physics")}, "discipline label 'Chem;Bio' must be"),
        ({"disciplines": ("A", "A", "B")}, "'disciplines' lists 'A' twice"),
        ({"surname_pool": 0}, "surname_pool and given_pool must be positive"),
        ({"given_pool": 0}, "surname_pool and given_pool must be positive"),
        ({"alpha": float("nan")}, "alpha must be finite"),
        ({"zipf_exponent": float("inf")}, "zipf_exponent must be finite"),
        ({"citation_rate": float("-inf")}, "citation_rate must be finite"),
    ],
)
def test_config_validation(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_config(**overrides)


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown generator config keys: frobnicate"):
        SynthConfig.from_json({"n_authors": 10, "seed": 1, "frobnicate": True})


def test_config_from_json_accepts_lists_and_files(tmp_path):
    payload = {
        "n_authors": 10,
        "seed": 1,
        "start_years": [2000, 2001],
        "disciplines": ["Chemistry"],
    }
    from_mapping = SynthConfig.from_json(payload)
    assert from_mapping.start_years == (2000, 2001)
    assert from_mapping.disciplines == ("Chemistry",)

    path = tmp_path / "synth.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert SynthConfig.from_json(path) == from_mapping


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"disciplines": "Chemistry"}, "'disciplines' must be a list of strings"),
        ({"n_authors": "50"}, "'n_authors' must be an integer"),
        ({"start_years": 2000}, "'start_years' must be a list of two integers"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"alpha": float("nan")}, "holds NaN, which is not a JSON number"),
        ({"alpha": float("inf")}, "holds Infinity, which is not a JSON number"),
    ],
)
def test_config_from_json_rejects_wrong_types(tmp_path, overrides, message):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"n_authors": 10, "seed": 1, **overrides}), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        SynthConfig.from_json(path)


def test_config_from_json_rejects_a_null_payload(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text("null", encoding="utf-8")
    with pytest.raises(ValueError, match="generator config must be a JSON object"):
        SynthConfig.from_json(path)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_authors=10, seed=1),
        SynthConfig(n_authors=10, seed=1, alpha=2, start_years=(2001, 2003), disciplines=("B", "A")),
    ],
)
def test_config_round_trips_through_plain(config):
    assert SynthConfig.from_json(plain(config)) == config


def test_removed_settings_are_module_constants():
    assert not REMOVED_SYNTH_SETTINGS.keys() & {f.name for f in fields(SynthConfig)}
    for key, value in REMOVED_SYNTH_SETTINGS.items():
        assert getattr(synth, key.upper()) == (tuple(value) if isinstance(value, list) else value)


def test_surname_pool_counts_indices_not_distinct_surnames():
    assert len({synth._surname(k) for k in range(SynthConfig.surname_pool)}) == 1950


def test_fresh_authors_can_take_every_name():
    # 5 surnames x 5 given names; one more author fails (test_cli.py).
    _, truth = generate_corpus(SynthConfig(n_authors=25, seed=1, surname_pool=5, given_pool=5))
    assert len(set(truth.values())) == 25


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_failed_generation_keeps_the_collector_state(enabled):
    with collector_set(enabled):
        with pytest.raises(ValueError, match="no unused full name"):
            generate_corpus(SynthConfig(n_authors=300, seed=1, surname_pool=5, given_pool=5))
        assert gc.isenabled() is enabled
