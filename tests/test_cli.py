import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankmobility
from rankmobility.cli import main
from rankmobility.corpus import export
from rankmobility.disambig import disambiguate, write_clusters, write_truth
from rankmobility.mobility import read_rank_table_csv, transition_matrix, write_matrix_csv, write_rank_table_csv
from rankmobility.synth import SynthConfig, generate_corpus, sample_transitions

from conftest import collector_set


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


@pytest.mark.parametrize("what", ["transitions", "corpus"])
def test_global_seed_reaches_the_synth_commands(capsys, tmp_path, what):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_authors": 40, "seed": 0}), encoding="utf-8")
    options = ["--d", "0.5", "--n", "1000"] if what == "transitions" else ["--config", str(config)]
    written = {}
    for label, before, after in (("global", ["--seed", "5"], []), ("own", [], ["--seed", "5"]), ("unseeded", [], [])):
        out = tmp_path / f"{label}.out"
        code, _, _ = run_cli(capsys, *before, "synth", what, *after, *options, "--out", str(out))
        assert code == 0
        written[label] = out.read_bytes()
    assert written["global"] == written["own"]
    assert written["global"] != written["unseeded"]


def test_command_triggers_no_garbage_collection(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    export(generate_corpus(SynthConfig(n_authors=150, seed=3))[0], corpus)
    events = []
    disable, enable = gc.disable, gc.enable

    def count(phase, info):
        if phase == "start":
            events.append("collection")

    def record(event, switch):
        def recorded():
            events.append(event)
            switch()
        return recorded

    monkeypatch.setattr(gc, "disable", record("disable", disable))
    monkeypatch.setattr(gc, "enable", record("enable", enable))
    gc.callbacks.append(count)
    try:
        code = main(["disambiguate", "--corpus", str(corpus), "--out", str(tmp_path / "clusters.jsonl")])
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    # From the first pause on, the collector comes back on once, when the
    # command is done; at most the one collection the paused allocations
    # defer may follow. Parsing the arguments comes before the pause.
    paused = [event for event in events[events.index("disable"):] if event != "disable"]
    assert paused in (["enable"], ["enable", "collection"])
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_failed_command_keeps_the_collector_state(capsys, tmp_path, enabled):
    with collector_set(enabled):
        code, _, err = run_cli(
            capsys, "disambiguate", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")
        )
        assert gc.isenabled() is enabled
    assert code == 2
    assert err.startswith("data error:")


@pytest.mark.parametrize(
    "config,message",
    [
        (
            {"n_authors": 300, "seed": 1, "surname_pool": 5, "given_pool": 5},
            "fresh author 25: 25 of the 25 distinct full names",
        ),
        # Zipf weights this steep leave only the first surname reachable.
        (
            {"n_authors": 6, "seed": 1, "surname_pool": 5, "given_pool": 5, "zipf_exponent": 60},
            "fresh author 5: 5 of the 25 distinct full names",
        ),
    ],
    ids=["names_used_up", "names_unreachable"],
)
def test_synth_corpus_without_a_fresh_name_exits_2_in_seconds(tmp_path, config, message):
    # A child process, so that a hang fails the test instead of stalling it.
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(rankmobility.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "rankmobility.cli", "synth", "corpus", "--config", str(path),
            "--out", str(tmp_path / "corpus.jsonl")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert f"data error: no unused full name found for {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def rank_table_text(bad_row=None, column=3, value=None):
    # 20 authors, two per decile, staying put; one cell may be overwritten.
    rows = [[f"A{k:02d}", f"{k}.0", f"{k}.0", str(k // 2 + 1), str(k // 2 + 1)] for k in range(20)]
    if bad_row is not None:
        rows[bad_row][column] = value
    return "author_id,impact1,impact2,q1,q2\n" + "".join(",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("command", ["mobility", "null", "gini"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("year,gini,n_authors\n2000,0.5,40\n", "not a rank table file"),
        (rank_table_text(6, 3, "0"), "line 8: decile outside 1..10"),
        (rank_table_text(6, 3, "12"), "line 8: decile outside 1..10"),
        (rank_table_text(19, 4, "11"), "line 21: decile outside 1..10"),
        (rank_table_text(0, 4, "-1"), "line 2: decile outside 1..10"),
        (rank_table_text(3, 3, "2.5"), "line 5: invalid literal"),
        (rank_table_text(4, 1, "nan"), "line 6: not a finite number: 'nan'"),
        (rank_table_text(4, 1, "inf"), "line 6: not a finite number: 'inf'"),
        (rank_table_text(4, 2, "nan"), "line 6: not a finite number: 'nan'"),
        (rank_table_text(4, 2, "-inf"), "line 6: not a finite number: '-inf'"),
    ],
    ids=[
        "other-header", "q1=0", "q1=12", "q2=11", "q2=-1", "q1=2.5",
        "impact1=nan", "impact1=inf", "impact2=nan", "impact2=-inf",
    ],
)
def test_malformed_rank_table_is_a_data_error(capsys, tmp_path, command, text, message):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    outputs = {"mobility": ["--out", str(tmp_path / "m")], "null": ["--reps", "2", "--out", str(tmp_path / "n")]}
    code, out, err = run_cli(capsys, command, "--cohort", str(path), *outputs.get(command, []))
    assert code == 2
    assert out == ""
    assert err.startswith("data error:")
    assert message in err


def test_well_formed_rank_table_passes_each_command(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(rank_table_text(), encoding="utf-8")
    assert run_cli(capsys, "mobility", "--cohort", str(path), "--out", str(tmp_path / "m"))[0] == 0
    assert run_cli(capsys, "null", "--cohort", str(path), "--reps", "2", "--out", str(tmp_path / "n"))[0] == 0
    assert run_cli(capsys, "gini", "--cohort", str(path))[0] == 0


def test_null_without_a_seed_uses_seed_0(capsys, tmp_path):
    table = tmp_path / "table.csv"
    write_rank_table_csv(table, sample_transitions(1.0, 1000, 4))
    written = []
    for k, seed in enumerate([[], [], ["--seed", "0"], ["--seed", "1"]]):
        out, matrix = tmp_path / f"null{k}.csv", tmp_path / f"matrix{k}.csv"
        code, _, err = run_cli(
            capsys, *seed, "null", "--cohort", str(table), "--reps", "5", "--out", str(out), "--matrix-out", str(matrix)
        )
        assert (code, err) == (0, "")
        written.append((out.read_bytes(), matrix.read_bytes()))
    assert written[0] == written[1] == written[2]
    assert written[3] != written[0]


@pytest.mark.parametrize("command", ["fit-d", "fit-d-pooled"])
def test_non_finite_matrix_entry_is_a_data_error(capsys, tmp_path, command):
    good = tmp_path / "good.csv"
    write_matrix_csv(good, np.full((10, 10), 0.1))
    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text(encoding="utf-8").replace("0.1", "nan", 1), encoding="utf-8")
    flags = ["--matrix", str(bad)] if command == "fit-d" else ["--matrices", str(good), str(bad)]
    code, out, err = run_cli(capsys, command, *flags)
    assert code == 2
    assert out == ""
    assert "transition matrix has non-finite entries" in err


def _numeric_inputs(tmp_path, command, cell):
    """The flags of a numeric command whose last input file has cell in
    line 3 (None: a well-formed file), and that file."""
    if command in ("fit-d", "fit-d-pooled"):
        matrix = np.full((10, 10), 0.5 / 9) + np.eye(10) * (0.5 - 0.5 / 9)
        good = tmp_path / "good.csv"
        write_matrix_csv(good, matrix)
        text = good.read_text(encoding="utf-8")
    elif command == "trend":
        text = "x,y\n2000,0.1\n2001,0.3\n2002,0.2\n2003,0.6\n"
    else:
        good = tmp_path / "good.csv"
        good.write_text("v\n1.5\n2.5\n0.5\n", encoding="utf-8")
        text = "v\n2.0\n3.5\n1.0\n"
    lines = text.splitlines(keepends=True)
    if cell is not None:
        fields = lines[2].rstrip("\r\n").split(",")
        fields[-1] = cell
        lines[2] = ",".join(fields) + "\r\n"
    path = tmp_path / "input.csv"
    path.write_text("".join(lines), encoding="utf-8")
    flags = {
        "fit-d": ["--matrix", str(path)],
        "fit-d-pooled": ["--matrices", str(tmp_path / "good.csv"), str(path)],
        "trend": ["--series", str(path)],
        "compare": ["--a", str(tmp_path / "good.csv"), "--b", str(path)],
    }
    return flags[command], path


@pytest.mark.parametrize("cell", [None, "abc", "nan", "inf"], ids=["well-formed", "abc", "nan", "inf"])
@pytest.mark.parametrize("command", ["fit-d", "fit-d-pooled", "trend", "compare"])
def test_bad_numeric_cell_is_a_data_error_naming_its_line(capsys, tmp_path, command, cell):
    flags, path = _numeric_inputs(tmp_path, command, cell)
    code, out, err = run_cli(capsys, command, *flags)
    if cell is None:
        assert (code, err) == (0, "")
        assert json.loads(out)
        return
    assert code == 2
    assert out == ""
    assert err.startswith("data error:")
    if command.startswith("fit-d") and cell != "abc":
        # A matrix cell may be any float; the fit rejects non-finite ones.
        assert "transition matrix has non-finite entries" in err
    else:
        assert f"{path}, line 3:" in err


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


def test_filter_with_an_empty_disciplines_file_applies_no_discipline_filter(capsys, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    export(generate_corpus(SynthConfig(n_authors=40, seed=3))[0], corpus)
    labels = tmp_path / "labels.txt"
    labels.write_text("\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "filter", "--in", str(corpus), "--out", str(tmp_path / "o"), "--disciplines", str(labels)
    )
    assert code == 0
    assert "discipline_excluded" not in json.loads(out)["by_rule"]


# Each input-file flag of each subcommand: the kind of file it takes, and
# the arguments, with FUZZED where the fuzzed file goes. Every other input
# is valid. The fuzzed file is also the summary of {bundle}.
FUZZED = "<fuzzed>"
_COHORT = ["--discipline", "Chemistry", "--start-year", "2000", "--out", "{out}"]
_SERIES = ["--discipline", "Chemistry", "--years", "2000:2001", "--min-size", "10", "--out", "{out}"]
_FLAGS = {
    "ingest --in": ("corpus", ["ingest", "--in", FUZZED, "--out", "{out}"]),
    "filter --in": ("corpus", ["filter", "--in", FUZZED, "--out", "{out}"]),
    "filter --disciplines": ("labels", ["filter", "--in", "{corpus}", "--out", "{out}", "--disciplines", FUZZED]),
    "disambiguate --corpus": ("corpus", ["disambiguate", "--corpus", FUZZED, "--out", "{out}"]),
    "disambiguate --rules": ("rules", ["disambiguate", "--corpus", "{corpus}", "--rules", FUZZED, "--out", "{out}"]),
    "disambig-eval --pred": ("clusters", ["disambig-eval", "--pred", FUZZED, "--truth", "{truth}"]),
    "disambig-eval --truth": ("truth", ["disambig-eval", "--pred", "{clusters}", "--truth", FUZZED]),
    "disambig-eval --corpus": (
        "corpus",
        ["disambig-eval", "--pred", "{clusters}", "--truth", "{truth}", "--corpus", FUZZED],
    ),
    "cohort --corpus": ("corpus", ["cohort", "--corpus", FUZZED, "--clusters", "{clusters}", *_COHORT]),
    "cohort --clusters": ("clusters", ["cohort", "--corpus", "{corpus}", "--clusters", FUZZED, *_COHORT]),
    "mobility --cohort": ("rank table", ["mobility", "--cohort", FUZZED, "--out", "{out}"]),
    "null --cohort": ("rank table", ["null", "--cohort", FUZZED, "--reps", "2", "--out", "{out}"]),
    "fit-d --matrix": ("matrix", ["fit-d", "--matrix", FUZZED]),
    "fit-d-pooled --matrices": ("matrix", ["fit-d-pooled", "--matrices", "{matrix}", FUZZED]),
    "gini --cohort": ("rank table", ["gini", "--cohort", FUZZED]),
    "gini-series --corpus": ("corpus", ["gini-series", "--corpus", FUZZED, "--clusters", "{clusters}", *_SERIES]),
    "gini-series --clusters": ("clusters", ["gini-series", "--corpus", "{corpus}", "--clusters", FUZZED, *_SERIES]),
    "trend --series": ("series", ["trend", "--series", FUZZED]),
    "compare --a": ("sample", ["compare", "--a", FUZZED, "--b", "{sample}"]),
    "compare --b": ("sample", ["compare", "--a", "{sample}", "--b", FUZZED]),
    "synth corpus --config": ("generator config", ["synth", "corpus", "--config", FUZZED, "--out", "{out}"]),
    "run --config": ("pipeline config", ["run", "--config", FUZZED, "--out-dir", "{out}"]),
    "report --bundle": ("report summary", ["report", "--bundle", "{bundle}"]),
}

# Per kind of file: an object whose keys fit that kind but whose values
# have the wrong JSON types.
_WRONGLY_TYPED = {
    "corpus": {"pub_id": 1, "year": "2000", "disciplines": ["A"], "authors": "Ada Park", "citing_years": 2001},
    "labels": {"Chemistry": True},
    "rules": {"weights": {"orcid_match": "10"}, "threshold": True},
    "clusters": {"author_id": 1, "mention_ids": 5},
    "truth": {"author_id": 1, "mention_id": 2},
    "rank table": {"author_id": 1, "impact1": "x"},
    "matrix": {"1": "x"},
    "series": {"x": "1", "y": None},
    "sample": {"value": "a"},
    "generator config": {"n_authors": "50", "seed": True, "disciplines": "Chemistry"},
    "pipeline config": {"corpus": 5, "disciplines": "Chemistry", "cohort_years": 2000},
    "report summary": {"per_discipline": [{"discipline": "Chemistry", "pooled_d": "x", "mean_gini": None}]},
}

_BODIES = {
    "empty": "",
    "truncated JSON": '{"a": ',
    "null": "null",
    "list": "[1]",
    "wrongly typed object": None,
    "CSV with a short row": "a,b\n1,2\n3\n",
    "non-numeric CSV": "a,b\nx,y\n",
}


def _expected_exit(flag: str, kind: str, body: str) -> int | None:
    """0 or 2 where the body is valid input for the flag; None where it is
    not, and the exit code must be 1 or 2."""
    if kind == "labels" or (kind == "corpus" and flag.split()[0] in ("ingest", "filter", "disambiguate")):
        return 0  # any text is a label list; corpus readers report bad lines and go on
    if kind in ("clusters", "truth") and body == "empty":
        # An empty file is a valid clusters or truth file; cohort then has
        # no members, and disambig-eval has predicted mentions without labels.
        return 2 if flag in ("cohort --clusters", "disambig-eval --truth") else 0
    return None


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """One valid file of each kind."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, truth = generate_corpus(
        SynthConfig(n_authors=60, seed=2, disciplines=("Chemistry",), start_years=(2000, 2000))
    )
    table = sample_transitions(0.5, 1000, seed=1)
    paths = {name: root / name for name in ("corpus", "clusters", "truth", "table", "matrix", "sample")}
    export(corpus, paths["corpus"])
    write_clusters(paths["clusters"], disambiguate(corpus))
    write_truth(paths["truth"], truth)
    write_rank_table_csv(paths["table"], table)
    write_matrix_csv(paths["matrix"], transition_matrix(table).matrix)
    paths["sample"].write_text("value\n1\n2\n3\n", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("body_name", list(_BODIES))
@pytest.mark.parametrize("flag", list(_FLAGS))
def test_malformed_input_files_exit_with_a_message_not_a_traceback(
    capsys, tmp_path, fuzz_inputs, flag, body_name
):
    kind, argv = _FLAGS[flag]
    body = _BODIES[body_name]
    bundle = tmp_path / "bundle"
    fuzzed = bundle / "summary" / "correlation.json"
    fuzzed.parent.mkdir(parents=True)
    fuzzed.write_text(json.dumps(_WRONGLY_TYPED[kind]) if body is None else body, encoding="utf-8")
    args = [
        str(fuzzed) if a == FUZZED else a.format(out=tmp_path / "out", bundle=bundle, **fuzz_inputs)
        for a in argv
    ]
    code, _, err = run_cli(capsys, *args)
    expected = _expected_exit(flag, kind, body_name)
    if expected is None:
        assert code in (1, 2), err
    else:
        assert code == expected, err
    if code != 0:
        assert err.startswith(("usage error: ", "data error: ")), err
