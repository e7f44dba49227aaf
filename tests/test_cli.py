import json

import numpy as np
import pytest

from rankmobility.cli import main
from rankmobility.mobility import read_rank_table_csv, write_matrix_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_prints_help(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage:" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "--bogus")
    assert code == 1
    assert err.startswith("usage error:")


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("usage error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("rankmobility ")


def test_bare_synth_needs_a_subcommand(capsys):
    code, _, err = run_cli(capsys, "synth")
    assert code == 1
    assert "synth needs a subcommand" in err


def test_run_requires_config(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "run requires --config" in err


def test_run_requires_out_dir(capsys, tmp_path):
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": "x", "disciplines": ["A"], "cohort_years": [2000]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "--config", str(config), "run")
    assert code == 1
    assert "run requires --out-dir" in err


def test_missing_input_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "ingest", "--in", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert err.startswith("data error:")


def test_bad_year_range_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "filter",
        "--in", str(tmp_path / "absent.jsonl"),
        "--out", str(tmp_path / "o"),
        "--years", "friday",
    )
    assert code == 1
    assert "expected a year range" in err


def test_malformed_rank_table_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("year,gini,n_authors\n2000,0.5,40\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "mobility", "--cohort", str(path), "--out", str(tmp_path / "m"))
    assert code == 2
    assert err.startswith("data error:")


def test_unconverged_fit_exits_3(capsys, tmp_path):
    path = tmp_path / "uniform.csv"
    write_matrix_csv(path, np.full((10, 10), 0.1))
    code, out, err = run_cli(capsys, "fit-d", "--matrix", str(path))
    assert code == 3
    assert "did not converge" in err
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["d_star"] == 10.0


def test_full_command_chain(capsys, tmp_path):
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(
        json.dumps(
            {
                "n_authors": 200,
                "seed": 5,
                "disciplines": ["Chemistry"],
                "start_years": [2000, 2000],
            }
        ),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus.jsonl"
    truth = tmp_path / "corpus.truth.jsonl"

    code, out, _ = run_cli(
        capsys, "synth", "corpus", "--config", str(synth_config), "--out", str(corpus)
    )
    assert code == 0
    synth_info = json.loads(out)
    assert synth_info["authors"] == 200
    assert truth.is_file()

    canonical = tmp_path / "canonical.jsonl"
    code, out, _ = run_cli(capsys, "ingest", "--in", str(corpus), "--out", str(canonical))
    assert code == 0
    ingest_info = json.loads(out)
    assert ingest_info["rejected"] == 0
    assert ingest_info["accepted"] == ingest_info["lines_read"]
    assert canonical.read_bytes() == corpus.read_bytes()

    filtered = tmp_path / "filtered.jsonl"
    code, out, _ = run_cli(
        capsys,
        "filter",
        "--in", str(canonical),
        "--out", str(filtered),
        "--max-authors", "25",
        "--years", "1990:2020",
    )
    assert code == 0
    assert json.loads(out)["removed"] == 0

    clusters = tmp_path / "clusters.jsonl"
    code, out, _ = run_cli(
        capsys, "disambiguate", "--corpus", str(canonical), "--out", str(clusters)
    )
    assert code == 0
    assert json.loads(out)["clusters"] >= 200

    code, out, _ = run_cli(
        capsys,
        "disambig-eval",
        "--pred", str(clusters),
        "--truth", str(truth),
        "--corpus", str(canonical),
    )
    assert code == 0
    scores = json.loads(out)
    assert scores["precision"] >= 0.9
    assert scores["recall"] >= 0.9

    code, out, _ = run_cli(
        capsys, "disambig-eval", "--pred", str(clusters), "--truth", str(truth)
    )
    assert code == 0

    rank_table = tmp_path / "rank_table.csv"
    code, out, _ = run_cli(
        capsys,
        "cohort",
        "--corpus", str(canonical),
        "--clusters", str(clusters),
        "--discipline", "Chemistry",
        "--start-year", "2000",
        "--out", str(rank_table),
    )
    assert code == 0
    assert json.loads(out)["size"] > 50

    transition = tmp_path / "transition.csv"
    delta_q = tmp_path / "delta_q.csv"
    code, out, _ = run_cli(
        capsys,
        "mobility",
        "--cohort", str(rank_table),
        "--out", str(transition),
        "--delta-q-out", str(delta_q),
    )
    assert code == 0
    assert transition.is_file() and delta_q.is_file()

    null_dq = tmp_path / "null_delta_q.csv"
    null_matrix = tmp_path / "null_transition.csv"
    args = (
        "null",
        "--cohort", str(rank_table),
        "--reps", "20",
        "--out", str(null_dq),
        "--matrix-out", str(null_matrix),
    )
    code, _, _ = run_cli(capsys, "--seed", "3", *args)
    assert code == 0
    first = null_dq.read_bytes()
    code, _, _ = run_cli(capsys, "--seed", "3", *args)
    assert code == 0
    assert null_dq.read_bytes() == first

    fit_json = tmp_path / "fit.json"
    code, out, _ = run_cli(
        capsys, "fit-d", "--matrix", str(transition), "--out", str(fit_json)
    )
    assert code == 0
    fit = json.loads(out)
    assert fit["converged"] is True
    assert 0.001 < fit["d_star"] < 10.0
    assert json.loads(fit_json.read_text(encoding="utf-8")) == fit

    code, out, _ = run_cli(
        capsys, "fit-d-pooled", "--matrices", str(transition), str(transition)
    )
    assert code == 0
    pooled = json.loads(out)
    assert pooled["n_matrices"] == 2
    assert pooled["d_star"] == pytest.approx(fit["d_star"], abs=1e-6)

    code, out, _ = run_cli(capsys, "gini", "--cohort", str(rank_table), "--window", "1")
    assert code == 0
    assert 0.0 < json.loads(out)["gini"] < 1.0

    gini_series = tmp_path / "gini_series.csv"
    code, out, _ = run_cli(
        capsys,
        "gini-series",
        "--corpus", str(canonical),
        "--clusters", str(clusters),
        "--discipline", "Chemistry",
        "--mode", "cohort",
        "--years", "2000:2000",
        "--min-size", "30",
        "--out", str(gini_series),
    )
    assert code == 0
    assert json.loads(out)["points"] == 1

    population_series = tmp_path / "population_series.csv"
    code, out, _ = run_cli(
        capsys,
        "gini-series",
        "--corpus", str(canonical),
        "--clusters", str(clusters),
        "--discipline", "Chemistry",
        "--mode", "population",
        "--years", "2000:2004",
        "--min-size", "30",
        "--out", str(population_series),
    )
    assert code == 0
    assert json.loads(out)["points"] == 5

    code, out, _ = run_cli(capsys, "trend", "--series", str(population_series))
    assert code == 0
    trend = json.loads(out)
    assert trend["n"] == 5
    assert set(trend) == {"n", "r", "p", "slope", "intercept"}

    sample_a = tmp_path / "a.csv"
    sample_b = tmp_path / "b.csv"
    sample_a.write_text("value\n1\n2\n3\n4\n", encoding="utf-8")
    sample_b.write_text("value\n3\n4\n5\n6\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "compare", "--a", str(sample_a), "--b", str(sample_b))
    assert code == 0
    compared = json.loads(out)
    assert compared["t"] < 0
    assert 0.0 < compared["p"] <= 1.0

    pipeline_config = tmp_path / "pipeline.json"
    pipeline_config.write_text(
        json.dumps(
            {
                "corpus": str(canonical),
                "disciplines": ["Chemistry"],
                "cohort_years": [2000],
                "null_reps": 5,
                "min_cohort_size": 30,
                "seed": 7,
            }
        ),
        encoding="utf-8",
    )
    bundle = tmp_path / "bundle"
    code, out, _ = run_cli(
        capsys, "--config", str(pipeline_config), "--out-dir", str(bundle), "run"
    )
    assert code == 0
    assert (bundle / "manifest.json").is_file()

    code, _, err = run_cli(
        capsys, "run", "--config", str(pipeline_config), "--out-dir", str(bundle)
    )
    assert code == 2
    assert "output directory is not empty" in err

    code, out, _ = run_cli(capsys, "report", "--bundle", str(bundle))
    assert code == 0
    report = json.loads(out)
    assert report["mobility"]["ranking"][0]["discipline"] == "Chemistry"

    sampled = tmp_path / "sampled.csv"
    code, out, _ = run_cli(
        capsys,
        "synth", "transitions",
        "--d", "0.5",
        "--n", "1200",
        "--seed", "2",
        "--out", str(sampled),
    )
    assert code == 0
    assert len(read_rank_table_csv(sampled)) == 1200


def test_short_rank_table_row_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("author_id,impact1,impact2,q1,q2\na,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "mobility", "--cohort", str(path), "--out", str(tmp_path / "m"))
    assert code == 2
    assert "line 2: 2 fields, header has 5" in err


def test_short_trend_series_row_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("x,y\n1,2\n1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "trend", "--series", str(path))
    assert code == 2
    assert "line 3: 1 fields, header has 2" in err


def test_gini_series_skips_years_with_all_zero_impacts(capsys, tmp_path):
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(
        json.dumps(
            {
                "n_authors": 120,
                "seed": 5,
                "disciplines": ["Chemistry"],
                "start_years": [2000, 2000],
                "citation_rate": 0.0,
            }
        ),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus.jsonl"
    clusters = tmp_path / "clusters.jsonl"
    assert run_cli(capsys, "synth", "corpus", "--config", str(synth_config), "--out", str(corpus))[0] == 0
    assert run_cli(capsys, "disambiguate", "--corpus", str(corpus), "--out", str(clusters))[0] == 0
    for mode, years in (("cohort", "2000:2000"), ("population", "2000:2001")):
        code, out, err = run_cli(
            capsys,
            "gini-series",
            "--corpus", str(corpus),
            "--clusters", str(clusters),
            "--discipline", "Chemistry",
            "--mode", mode,
            "--years", years,
            "--min-size", "20",
            "--out", str(tmp_path / f"{mode}.csv"),
        )
        assert code == 0, err
        assert json.loads(out)["points"] == 0
        assert json.loads(out)["skipped_years"] == list(range(2000, int(years[-4:]) + 1))
