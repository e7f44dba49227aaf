import gc
import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rankmobility
from rankmobility import corpus as corpus_module
from rankmobility.cli import main
from rankmobility.corpus import export
from rankmobility.disambig import MentionCluster, ScoringRuleTable, disambiguate, write_clusters, write_truth
from rankmobility.jsonio import undecodable
from rankmobility.mobility import read_rank_table_csv, transition_matrix, write_matrix_csv, write_rank_table_csv
from rankmobility.synth import SynthConfig, generate_corpus, sample_transitions

from conftest import REMOVED_SYNTH_SETTINGS, collector_set, make_record


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


@pytest.mark.parametrize("key", sorted(REMOVED_SYNTH_SETTINGS))
def test_synth_corpus_rejects_a_removed_generator_key(capsys, tmp_path, key):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_authors": 20, "seed": 0, key: REMOVED_SYNTH_SETTINGS[key]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "synth", "corpus", "--config", str(config), "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert f"unknown generator config keys: {key}" in err


def test_synth_corpus_rejects_labels_that_do_not_read_back(capsys, tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_authors": 20, "seed": 0, "disciplines": ["Chem;Bio", " Physics "]}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", "corpus", "--config", str(config), "--out", str(tmp_path / "c.jsonl"))
    assert (code, out) == (2, "")
    assert "discipline label 'Chem;Bio' must be non-blank, unpadded and free of ';'" in err
    assert not (tmp_path / "c.jsonl").exists()


def test_synth_corpus_rejects_a_repeated_label(capsys, tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_authors": 20, "seed": 0, "disciplines": ["A", "A", "B"]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "synth", "corpus", "--config", str(config), "--out", str(tmp_path / "c.jsonl"))
    assert (code, out) == (2, "")
    assert "'disciplines' lists 'A' twice" in err
    assert not (tmp_path / "c.jsonl").exists()


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


@pytest.mark.parametrize("threads", [["--threads", "0", "run"], ["run", "--threads", "-4"]], ids=["zero", "negative"])
def test_run_with_fewer_than_one_thread_is_a_usage_error(capsys, tmp_path, threads):
    corpus, _ = generate_corpus(SynthConfig(n_authors=40, seed=1, disciplines=("Chemistry",), start_years=(2000, 2000)))
    export(corpus, tmp_path / "corpus.jsonl")
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": str(tmp_path / "corpus.jsonl"), "disciplines": ["Chemistry"], "cohort_years": [2000],
                    "null_reps": 5, "min_cohort_size": 10, "seed": 7}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, *threads, "--config", str(config), "--out-dir", str(tmp_path / "bundle"))
    assert (code, out) == (1, "")
    assert "--threads must be at least 1" in err
    assert not (tmp_path / "bundle").exists()


def test_every_command_needs_at_least_one_thread(capsys, tmp_path):
    corpus, _ = generate_corpus(SynthConfig(n_authors=20, seed=1, disciplines=("Chemistry",), start_years=(2000, 2000)))
    export(corpus, tmp_path / "corpus.jsonl")
    code, out, err = run_cli(capsys, "--threads", "0", "ingest", "--in", str(tmp_path / "corpus.jsonl"),
                             "--out", str(tmp_path / "out.jsonl"))
    assert (code, out) == (1, "")
    assert "--threads must be at least 1" in err
    assert not (tmp_path / "out.jsonl").exists()



def _two_cpus(monkeypatch):
    """Let an ingest split its file in two, whatever the machine's CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(scope="module")
def ingest_inputs(tmp_path_factory):
    """A generated corpus, its truth labels and the clusters it gets."""
    root = tmp_path_factory.mktemp("ingest_inputs")
    corpus, truth = generate_corpus(SynthConfig(n_authors=120, seed=3, name_collision_rate=0.2))
    export(corpus, root / "corpus.jsonl")
    write_truth(root / "truth.jsonl", truth)
    write_clusters(root / "clusters.jsonl", disambiguate(corpus, ScoringRuleTable.default()))
    return root


# Every command that ingests a corpus; {out} is the file it writes.
_INGESTING_ARGV = {
    "ingest": ["ingest", "--in", "{corpus}", "--out", "{out}"],
    "filter": ["filter", "--in", "{corpus}", "--out", "{out}", "--years", "2001:2006"],
    "disambiguate": ["disambiguate", "--corpus", "{corpus}", "--out", "{out}"],
    "disambig-eval": ["disambig-eval", "--pred", "{clusters}", "--truth", "{truth}", "--corpus", "{corpus}"],
    "cohort": ["cohort", "--corpus", "{corpus}", "--clusters", "{clusters}", "--discipline", "Chemistry",
               "--start-year", "2000", "--out", "{out}"],
    "gini-series": ["gini-series", "--corpus", "{corpus}", "--clusters", "{clusters}", "--discipline", "Chemistry",
                    "--years", "2000:2002", "--out", "{out}"],
}


@pytest.mark.parametrize("command", list(_INGESTING_ARGV))
def test_a_command_ingests_in_threads_parts_with_the_same_output(capsys, tmp_path, monkeypatch, ingest_inputs,
                                                                  command):
    _two_cpus(monkeypatch)
    started = []

    class Counted(corpus_module._Worker):
        def __init__(self, path, start, stop):
            super().__init__(path, start, stop)
            started.append((start, stop))

    monkeypatch.setattr(corpus_module, "_Worker", Counted)
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = [arg.format(corpus=ingest_inputs / "corpus.jsonl", clusters=ingest_inputs / "clusters.jsonl",
                           truth=ingest_inputs / "truth.jsonl", out=out) for arg in _INGESTING_ARGV[command]]
        code, stdout, err = run_cli(capsys, "--threads", threads, *argv)
        assert (code, err) == (0, "")
        written[threads] = (stdout.replace(str(out), "OUT"), out.read_bytes() if out.exists() else None)
        assert len(started) == int(threads) - 1
    assert written["2"] == written["1"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_threads_beyond_the_cpus_start_a_worker_per_cpu_but_one(capsys, tmp_path, monkeypatch, ingest_inputs):
    corpus = str(ingest_inputs / "corpus.jsonl")
    code, expected, _ = run_cli(capsys, "ingest", "--in", corpus, "--out", str(tmp_path / "one.jsonl"))
    assert code == 0
    started = []

    class Counter:
        """Starts no process: parses its range here, when it is made."""

        def __init__(self, path, start, stop):
            started.append((start, stop))
            self._part = corpus_module._parse_range(path, start, stop)

        def part(self):
            return self._part

        def stop(self):
            pass

    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(corpus_module, "_Worker", Counter)
    monkeypatch.setattr(os, "fork", fork)
    code, out, err = run_cli(capsys, "--threads", "4096", "ingest", "--in", corpus, "--out", str(tmp_path / "many.jsonl"))
    assert (code, out, err) == (0, expected, "")
    assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    cpus = len(os.sched_getaffinity(0))
    assert len(started) <= cpus - 1
    assert cpus == 1 or started


def test_a_fifo_corpus_is_read_in_one_part(capsys, tmp_path, monkeypatch, ingest_inputs):
    _two_cpus(monkeypatch)
    data = (ingest_inputs / "corpus.jsonl").read_bytes()
    code, expected, _ = run_cli(capsys, "ingest", "--in", str(ingest_inputs / "corpus.jsonl"),
                                "--out", str(tmp_path / "file.jsonl"))
    assert code == 0

    def refuse(path, start, stop):
        raise AssertionError("a stream was split")

    monkeypatch.setattr(corpus_module, "_Worker", refuse)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    code, out, err = run_cli(capsys, "--threads", "2", "ingest", "--in", str(fifo), "--out", str(tmp_path / "fifo.jsonl"))
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert (code, out, err) == (0, expected, "")
    assert (tmp_path / "fifo.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()


def _failing_worker(failure, tmp_path, monkeypatch):
    """A corpus whose ingest in two parts fails in the second one as
    failure says, and the message it fails with."""
    _two_cpus(monkeypatch)
    lines = [json.dumps(make_record(f"P{k:02}", authors=[{"name": "Zoë Park"}]), ensure_ascii=False) for k in range(40)]
    if failure == "duplicate":
        lines[35] = lines[0]
    if failure == "first-part-duplicate":
        # This process fails in its own part, while the worker may still run.
        lines[5] = lines[0]
    data = bytearray("".join(line + "\n" for line in lines).encode())
    bad = len("".join(line + "\n" for line in lines[:35]).encode()) + lines[35].encode().index("ë".encode())
    if failure == "utf-8":
        data[bad] = 0xFF
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    # ingest cuts just after the newline that follows the middle byte.
    cut = data.index(b"\n", len(data) // 2) + 1
    assert cut < bad

    def raising(path, start, stop):
        raise ValueError("the part could not be parsed")

    def killed(path, start, stop):
        os.kill(os.getpid(), signal.SIGKILL)

    class KilledWhenPickled:
        def __reduce__(self):
            os.kill(os.getpid(), signal.SIGKILL)

    def killed_writing(path, start, stop):
        # A megabyte of the part reaches the pipe before the worker is killed.
        return [bytes(1 << 20), KilledWhenPickled()]

    stand_ins = {"raises": raising, "killed": killed, "killed-writing": killed_writing}
    if failure in stand_ins:
        monkeypatch.setattr(corpus_module, "_parse_range", stand_ins[failure])
    return corpus, {
        "duplicate": f"duplicate pub_id: P00 ({corpus} line 36)",
        "first-part-duplicate": f"duplicate pub_id: P00 ({corpus} line 6)",
        "raises": "the part could not be parsed",
        "killed": f"the worker reading bytes {cut} to {len(data)} of {corpus} was killed by signal 9",
        "killed-writing": f"the worker reading bytes {cut} to {len(data)} of {corpus} was killed by signal 9",
        "utf-8": f"invalid UTF-8 byte 0xff at offset {bad} ({corpus} line 36)",
    }[failure]


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("failure", ["duplicate", "first-part-duplicate", "raises", "killed", "killed-writing",
                                     "utf-8"])
def test_a_failed_part_exits_2_and_leaves_no_process_and_no_bundle(capsys, tmp_path, monkeypatch, failure, command):
    corpus, message = _failing_worker(failure, tmp_path, monkeypatch)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"corpus": str(corpus), "disciplines": ["Chemistry"], "cohort_years": [2000]}),
                      encoding="utf-8")
    if command == "ingest":
        argv = ["ingest", "--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
    else:
        argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "bundle")]
    code, out, err = run_cli(capsys, "--threads", "2", *argv)
    assert (code, out, err) == (2, "", f"data error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl", "pipeline.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "ingest", "--in", "{corpus}", "--out", "{out}"],
    ["synth", "corpus", "--seed", "-3", "--config", "{config}", "--out", "{out}"],
    ["--seed", "-2", "synth", "transitions", "--d", "0.5", "--n", "100", "--out", "{out}"],
    ["--seed", "-1", "null", "--cohort", "{corpus}", "--out", "{out}"],
], ids=["ingest", "synth-corpus", "synth-transitions", "null"])
def test_a_negative_seed_is_a_usage_error(capsys, tmp_path, argv):
    corpus, config, out = tmp_path / "corpus.jsonl", tmp_path / "synth.json", tmp_path / "out"
    corpus.write_text(json.dumps(make_record("P1")) + "\n", encoding="utf-8")
    config.write_text(json.dumps({"n_authors": 20, "seed": 0}), encoding="utf-8")
    code, out_text, err = run_cli(capsys, *(arg.format(corpus=corpus, config=config, out=out) for arg in argv))
    assert (code, out_text) == (1, "")
    assert "--seed must be nonnegative" in err
    assert not out.exists()


def test_a_seed_is_a_usage_error_where_nothing_is_drawn(capsys, tmp_path):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out.jsonl"
    corpus.write_text(json.dumps(make_record("P1")) + "\n", encoding="utf-8")
    code, out_text, err = run_cli(capsys, "--seed", "5", "ingest", "--in", str(corpus), "--out", str(out))
    assert (code, out_text) == (1, "")
    assert "--seed applies only to null, synth corpus, synth transitions and run" in err
    assert not out.exists()
    # Where a seed is drawn from it is taken (run: test_run_seed_flag_matches_a_config_seed).
    table, null = tmp_path / "table.csv", tmp_path / "null.csv"
    assert run_cli(capsys, "--seed", "5", "synth", "transitions", "--d", "0.5", "--n", "1000", "--out", str(table))[0] == 0
    assert run_cli(capsys, "--seed", "5", "null", "--cohort", str(table), "--reps", "2", "--out", str(null))[0] == 0
    assert null.is_file()


@pytest.mark.parametrize("corpus_exists", [False, True], ids=["absent-corpus", "every-cohort-skipped"])
def test_a_negative_config_seed_is_a_data_error_before_any_work(capsys, tmp_path, corpus_exists):
    corpus = tmp_path / "corpus.jsonl"
    if corpus_exists:
        corpus.write_text(json.dumps(make_record("P1", year=2000)) + "\n", encoding="utf-8")
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": str(corpus), "disciplines": ["Chemistry"], "cohort_years": [1990], "seed": -1}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--out-dir", str(tmp_path / "bundle"))
    assert (code, out) == (2, "")
    assert "seed must be nonnegative" in err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("epoch", ["100000000000000000000", "abc"])
def test_a_bad_source_date_epoch_is_a_data_error_before_any_work(capsys, tmp_path, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": str(tmp_path / "corpus.jsonl"), "disciplines": ["Chemistry"], "cohort_years": [2000]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--out-dir", str(tmp_path / "bundle"))
    assert (code, out) == (2, "")
    assert f"data error: SOURCE_DATE_EPOCH is not a valid timestamp: {epoch!r}" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["pipeline.json"]


def _rules_argv(tmp_path, command, corpus, rules) -> list[str]:
    """Arguments that make command cluster corpus under the rule table at rules."""
    if command == "disambiguate":
        return ["disambiguate", "--corpus", str(corpus), "--rules", rules, "--out", str(tmp_path / "clusters.jsonl")]
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": str(corpus), "rules": rules, "disciplines": ["Chemistry"], "cohort_years": [2000]}),
        encoding="utf-8",
    )
    return ["run", "--config", str(config), "--out-dir", str(tmp_path / "bundle")]


@pytest.mark.parametrize("command", ["run", "disambiguate"])
def test_the_rule_table_is_read_before_the_corpus(capsys, tmp_path, command):
    # The corpus is missing too; only the rule table is reported.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"weights": {"orcid_match": "10"}, "threshold": 10}), encoding="utf-8")
    argv = _rules_argv(tmp_path, command, tmp_path / "absent.jsonl", str(rules))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"data error: 'weights' must be an object of numbers in rule table {rules}\n"


@pytest.mark.parametrize("command", ["run", "disambiguate"])
def test_a_config_that_is_not_json_is_a_data_error_naming_it(capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n", encoding="utf-8")
    if command == "run":
        argv, label = ["run", "--config", str(bad), "--out-dir", str(tmp_path / "bundle")], "pipeline config"
    else:
        argv, label = _rules_argv(tmp_path, command, tmp_path / "absent.jsonl", str(bad)), "rule table"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"data error: {label} {bad}: "
                   "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)\n")


@pytest.mark.parametrize("command", ["run", "disambiguate"])
def test_an_empty_rule_table_path_is_a_data_error(capsys, tmp_path, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(make_record("P1", year=2000)) + "\n", encoding="utf-8")
    argv = _rules_argv(tmp_path, command, corpus, "")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "data error: [Errno 2] No such file or directory: ''\n"
    inputs = {"corpus.jsonl", "pipeline.json"} if command == "run" else {"corpus.jsonl"}
    assert {p.name for p in tmp_path.iterdir()} == inputs


_CLUSTERS_ARGV = {
    "cohort": ["--discipline", "Chemistry", "--start-year", "2000"],
    "gini-series": ["--discipline", "Chemistry", "--years", "2000:2001"],
}


@pytest.mark.parametrize("command", list(_CLUSTERS_ARGV))
def test_the_clusters_file_is_read_before_the_corpus(capsys, tmp_path, command):
    # The corpus is missing too; only the clusters file is reported.
    clusters = tmp_path / "clusters.jsonl"
    clusters.write_text("[1]\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, command, "--corpus", str(tmp_path / "absent.jsonl"), "--clusters", str(clusters),
        *_CLUSTERS_ARGV[command], "--out", str(tmp_path / "out.csv"),
    )
    assert (code, out) == (2, "")
    assert err == f"data error: {clusters}, line 1: cluster must be a JSON object\n"


@pytest.mark.parametrize("command", list(_CLUSTERS_ARGV))
def test_a_cluster_with_an_unknown_mention_is_a_data_error(capsys, tmp_path, command):
    corpus, clusters = tmp_path / "corpus.jsonl", tmp_path / "clusters.jsonl"
    corpus.write_text(json.dumps(make_record("P1", year=2000)) + "\n", encoding="utf-8")
    clusters.write_text(json.dumps({"author_id": "zz", "mention_ids": ["NOPE:0"]}) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, command, "--corpus", str(corpus), "--clusters", str(clusters),
        *_CLUSTERS_ARGV[command], "--out", str(tmp_path / "out.csv"),
    )
    assert (code, out) == (2, "")
    assert err == "data error: cluster zz references unknown mention NOPE:0\n"


def test_a_negative_cohort_year_runs_through_the_null(capsys, tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(
        json.dumps({"n_authors": 300, "seed": 5, "disciplines": ["Chemistry"], "start_years": [-5, -5]}),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(capsys, "synth", "corpus", "--config", str(synth), "--out", str(corpus))[0] == 0
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({"corpus": str(corpus), "disciplines": ["Chemistry"], "cohort_years": [-5],
                    "min_cohort_size": 20, "null_reps": 5}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "run", "--config", str(config), "--out-dir", str(tmp_path / "bundle"))
    assert code == 0, err
    assert (tmp_path / "bundle" / "chemistry" / "-5" / "null_delta_q.csv").is_file()


def test_missing_input_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "ingest", "--in", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert err.startswith("data error:")


# Commands with one empty input or output path, "" below; every other path
# names a file in the test's directory, written by _empty_path_inputs.
_EMPTY_PATH_ARGV = {
    "ingest --in": ["ingest", "--in", "", "--out", "out.jsonl"],
    "ingest --out": ["ingest", "--in", "corpus.jsonl", "--out", ""],
    "filter --disciplines": ["filter", "--in", "corpus.jsonl", "--out", "out.jsonl", "--disciplines", ""],
    "cohort --clusters": [
        "cohort", "--corpus", "corpus.jsonl", "--clusters", "", "--discipline", "Chemistry",
        "--start-year", "2000", "--out", "out.csv",
    ],
    "gini --cohort": ["gini", "--cohort", ""],
    "disambig-eval --pred": ["disambig-eval", "--pred", "", "--truth", "truth.jsonl"],
    "disambig-eval --corpus": ["disambig-eval", "--pred", "clusters.jsonl", "--truth", "truth.jsonl", "--corpus", ""],
    "disambiguate --out": ["disambiguate", "--corpus", "corpus.jsonl", "--out", ""],
    "mobility --delta-q-out": ["mobility", "--cohort", "rank.csv", "--out", "out.csv", "--delta-q-out", ""],
    "null --matrix-out": ["null", "--cohort", "rank.csv", "--reps", "2", "--out", "out.csv", "--matrix-out", ""],
    "fit-d --out": ["fit-d", "--matrix", "matrix.csv", "--out", ""],
    "trend --out": ["trend", "--series", "series.csv", "--out", ""],
    "synth corpus --truth-out": ["synth", "corpus", "--config", "synth.json", "--out", "out.jsonl", "--truth-out", ""],
    "synth transitions --out": ["synth", "transitions", "--d", "0.1", "--n", "1000", "--out", ""],
    "report --bundle": ["report", "--bundle", ""],
}


def _empty_path_inputs(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(json.dumps(make_record("P1", year=2000)) + "\n", encoding="utf-8")
    write_clusters(tmp_path / "clusters.jsonl", [MentionCluster("P1:0", ("P1:0",))])
    write_truth(tmp_path / "truth.jsonl", {"P1:0": "a"})
    table = sample_transitions(1.0, 1000, 0)
    write_rank_table_csv(tmp_path / "rank.csv", table)
    write_matrix_csv(tmp_path / "matrix.csv", transition_matrix(table).matrix)
    (tmp_path / "series.csv").write_text("x,y\n1,2\n2,3\n3,5\n", encoding="utf-8")
    (tmp_path / "synth.json").write_text(json.dumps({"n_authors": 40, "seed": 3}), encoding="utf-8")
    # The working directory holds a bundle summary, which an empty --bundle must not read.
    (tmp_path / "summary").mkdir()
    (tmp_path / "summary" / "correlation.json").write_text(json.dumps({"per_discipline": []}), encoding="utf-8")


@pytest.mark.parametrize("flag", list(_EMPTY_PATH_ARGV))
def test_an_empty_path_is_a_data_error_naming_it(capsys, tmp_path, monkeypatch, flag):
    _empty_path_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".jsonl", ".csv")) else arg for arg in _EMPTY_PATH_ARGV[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("data error: ")
    assert err.endswith("[Errno 2] No such file or directory: ''\n")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "command, years",
    [("filter", "friday"), ("filter", "2005:2000"), ("gini-series", "2005:2000")],
)
def test_bad_year_range_is_a_usage_error(capsys, tmp_path, command, years):
    absent = str(tmp_path / "absent.jsonl")
    inputs = ["--in", absent] if command == "filter" else [
        "--corpus", absent, "--clusters", absent, "--discipline", "Chemistry"
    ]
    code, _, err = run_cli(capsys, command, *inputs, "--out", str(tmp_path / "o"), "--years", years)
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
        (rank_table_text(7, 0, "A03"), "line 9: repeated author_id 'A03'"),
        (rank_table_text(19, 0, "A00"), "line 21: repeated author_id 'A00'"),
        ("author_id,impact1,impact2,q1,q2\n", "cohort too small to rank: 0 authors < 10 bins"),
        ("".join(rank_table_text().splitlines(keepends=True)[:10]), "cohort too small to rank: 9 authors < 10 bins"),
    ],
    ids=[
        "other-header", "q1=0", "q1=12", "q2=11", "q2=-1", "q1=2.5",
        "impact1=nan", "impact1=inf", "impact2=nan", "impact2=-inf",
        "repeated-id", "repeated-first-id", "header-only", "9-rows",
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


def test_blank_rank_table_line_is_skipped_and_later_lines_keep_their_numbers(capsys, tmp_path):
    path = tmp_path / "table.csv"
    for text, expected, message in ((rank_table_text(), 0, ""), (rank_table_text(6, 3, "0"), 2, "line 9: decile")):
        lines = text.splitlines(keepends=True)
        path.write_text("".join(lines[:4] + ["\n"] + lines[4:]), encoding="utf-8")
        code, _, err = run_cli(capsys, "mobility", "--cohort", str(path), "--out", str(tmp_path / "m"))
        assert code == expected
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


@pytest.mark.parametrize("d", ["inf", "1e400"])
def test_synth_transitions_rejects_non_finite_d(capsys, tmp_path, d):
    out = tmp_path / "sampled.csv"
    code, _, err = run_cli(capsys, "synth", "transitions", "--d", d, "--n", "1000", "--out", str(out))
    assert code == 2
    assert "diffusion coefficient must be positive and finite" in err
    assert not out.exists()


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


def test_one_column_trend_series_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("x\n1\n2\n3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "trend", "--series", str(path))
    assert code == 2
    assert f"series file needs an x and a y column: {path}" in err


def test_report_on_a_summary_with_a_non_object_row_is_a_data_error(capsys, tmp_path):
    summary = tmp_path / "bundle" / "summary" / "correlation.json"
    summary.parent.mkdir(parents=True)
    summary.write_text(json.dumps({"per_discipline": [5]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "report", "--bundle", str(tmp_path / "bundle"))
    assert code == 2
    assert f"{summary}: per_discipline row must be a JSON object" in err


def test_run_seed_flag_matches_a_config_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    corpus = tmp_path / "corpus.jsonl"
    synthetic, _ = generate_corpus(
        SynthConfig(n_authors=120, seed=3, disciplines=("Chemistry",), start_years=(2000, 2000))
    )
    export(synthetic, corpus)

    def bundle(label, seed, before=(), after=()):
        config = tmp_path / f"{label}.json"
        config.write_text(
            json.dumps({"corpus": str(corpus), "disciplines": ["Chemistry"], "cohort_years": [2000],
                        "null_reps": 3, "min_cohort_size": 10, "seed": seed}),
            encoding="utf-8",
        )
        out = tmp_path / label
        code, _, err = run_cli(capsys, *before, "run", "--config", str(config), "--out-dir", str(out), *after)
        assert code == 0, err
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    reference = bundle("config", 9)
    assert bundle("before", 0, before=["--seed", "9"]) == reference
    assert bundle("after", 0, after=["--seed", "9"]) == reference
    assert bundle("unseeded", 0) != reference


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


def test_gini_series_skips_a_year_with_one_author(capsys, tmp_path):
    # Ann starts in 2000 alone and is the only author active from 2007 on;
    # Bob and Cy start in 2001. Every paper is cited the next year.
    papers = [
        ("P1", 2000, "Ann Lee"), ("P2", 2005, "Ann Lee"), ("P3", 2010, "Ann Lee"),
        ("P4", 2001, "Bob Ray"), ("P5", 2006, "Bob Ray"),
        ("P6", 2001, "Cy Tam"), ("P7", 2006, "Cy Tam"),
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps(make_record(pub, year, authors=[{"name": name}], citing_years=[year + 1])) + "\n"
            for pub, year, name in papers
        ),
        encoding="utf-8",
    )
    clusters = tmp_path / "clusters.jsonl"
    clusters.write_text(
        "".join(
            json.dumps({"author_id": name, "mention_ids": [f"{p}:0" for p, _, n in papers if n == name]}) + "\n"
            for name in ("Ann Lee", "Bob Ray", "Cy Tam")
        ),
        encoding="utf-8",
    )
    for mode, years, skipped in (("cohort", "2000:2001", [2000]), ("population", "2006:2010", [2007, 2008, 2009, 2010])):
        for min_size in ("0", "1"):
            code, out, err = run_cli(
                capsys,
                "gini-series",
                "--corpus", str(corpus),
                "--clusters", str(clusters),
                "--discipline", "Chemistry",
                "--mode", mode,
                "--years", years,
                "--min-size", min_size,
                "--out", str(tmp_path / f"{mode}.csv"),
            )
            assert code == 0, err
            assert json.loads(out)["points"] == 1
            assert json.loads(out)["skipped_years"] == skipped


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
    "bad UTF-8": b'{"a": 1}\n\xff\n',
    # Deeper than json decodes; as CSV, a field over csv's size limit.
    "deeply nested JSON": "[" * 200_000,
}


def _expected_exit(flag: str, kind: str, body: str) -> int | None:
    """0 or 2 where the body is valid input for the flag, and 2 for a byte
    that is not UTF-8, which no reader takes; None where the exit code must
    be 1 or 2."""
    if body == "bad UTF-8":
        return 2
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
    write_clusters(paths["clusters"], disambiguate(corpus, ScoringRuleTable.default()))
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
    text = json.dumps(_WRONGLY_TYPED[kind]) if body is None else body
    fuzzed.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
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
    if body_name == "bad UTF-8":
        assert all(part in err for part in (str(fuzzed), "line 2", "invalid UTF-8 byte 0xff at offset 9")), err
    elif body_name == "deeply nested JSON" and code != 0 and kind != "corpus":
        assert str(fuzzed) in err, err


def _bad_byte_far_in(path: Path, lines: list[str]) -> tuple[int, int]:
    """Write lines to path with the first byte of the first line that
    starts 10,000 bytes or more into the file, past the first read of a
    text-mode handle, made 0xff; return that line's number and offset."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    offset = data.index(b"\n", 10_000) + 1
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    return data[:offset].count(b"\n") + 1, offset


# Per reader: the lines of a valid file it reads, the arguments that read it
# from {path}, and how its message names the file.
_TEXT_READERS = {
    "disambig-eval --pred": (
        [json.dumps({"author_id": f"a{k}", "mention_ids": [f"P{k}:0"]}) for k in range(1000)],
        ["disambig-eval", "--pred", "{path}", "--truth", "{truth}"],
        "{path}",
    ),
    "cohort --clusters": (
        [json.dumps({"author_id": f"a{k}", "mention_ids": [f"P{k}:0"]}) for k in range(1000)],
        ["cohort", "--corpus", "{corpus}", "--clusters", "{path}", *_COHORT],
        "{path}",
    ),
    "trend --series": (["x,y", *(f"{k},{k}" for k in range(3000))], ["trend", "--series", "{path}"], "series file {path}"),
    "gini --cohort": (
        ["author_id,impact1,impact2,q1,q2", *(f"A{k:04},{k % 10}.0,{k % 10}.0,{k % 10 + 1},{k % 10 + 1}" for k in range(2000))],
        ["gini", "--cohort", "{path}"],
        "rank table file {path}",
    ),
    "filter --disciplines": (
        [f"Discipline {k}" for k in range(3000)],
        ["filter", "--in", "{corpus}", "--out", "{out}", "--disciplines", "{path}"],
        "disciplines file {path}",
    ),
    "run --config": (
        json.dumps({"corpus": "{corpus}", "disciplines": [f"D{k}" for k in range(3000)], "cohort_years": [2000]},
                   indent=1).splitlines(),
        ["run", "--config", "{path}", "--out-dir", "{out}"],
        "pipeline config {path}",
    ),
}


@pytest.mark.parametrize("reader", list(_TEXT_READERS))
def test_a_byte_that_is_not_utf8_is_named_by_file_line_and_offset(capsys, tmp_path, fuzz_inputs, reader):
    """The offset counts from the start of the file, not from the start of
    the block that was being decoded."""
    lines, argv, named = _TEXT_READERS[reader]
    path = tmp_path / "input"
    line, offset = _bad_byte_far_in(path, lines)
    code, out, err = run_cli(capsys, *(a.format(path=path, out=tmp_path / "out", **fuzz_inputs) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"data error: {named.format(path=path)}, line {line}: invalid UTF-8 byte 0xff at offset {offset}\n"


def test_a_stream_that_cannot_be_read_again_names_the_byte_alone():
    class Stream(io.BytesIO):
        def seekable(self):
            return False

    handle = io.TextIOWrapper(io.BufferedReader(Stream(b"ok\n\xff\n")), encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as error:
        handle.read()
    assert undecodable(handle, error.value) == "invalid UTF-8 byte 0xff"


@pytest.mark.parametrize("reader, text, message", [
    ("cohort --clusters", '{"author_id": "a", "mention_ids": ["P0:0"]}\n' + "[" * 200_000 + "\n",
     "{path}, line 2: JSON nested too deeply"),
    ("disambig-eval --truth", "\n" + "[" * 200_000, "{path}, line 2: JSON nested too deeply"),
    ("run --config", "[" * 200_000, "pipeline config {path}: JSON nested too deeply"),
    ("disambiguate --rules", '{"weights":' * 200_000, "rule table {path}: JSON nested too deeply"),
    ("gini --cohort", "author_id,impact1,impact2,q1,q2\n" + "A" * 200_000 + ",1,1,1,1\n",
     "rank table file {path}, line 2: field larger than field limit (131072)"),
    # Longer than Python converts to an int (sys.get_int_max_str_digits).
    ("run --config", '{"seed": ' + "9" * 5000 + "}", "pipeline config {path} holds an integer of more than 4300 digits"),
    ("cohort --clusters", '{"author_id": "a", "mention_ids": ["P0:0"]}\n{"author_id": ' + "9" * 5000 + "}\n",
     "{path}, line 2: cluster holds an integer of more than 4300 digits"),
], ids=["clusters-line", "truth-line", "config", "rules", "csv-field", "config-integer", "clusters-integer"])
def test_input_beyond_a_parser_limit_is_a_data_error_naming_the_file(capsys, tmp_path, fuzz_inputs, reader,
                                                                     text, message):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = {
        "cohort --clusters": ["cohort", "--corpus", "{corpus}", "--clusters", "{path}", *_COHORT],
        "disambig-eval --truth": ["disambig-eval", "--pred", "{clusters}", "--truth", "{path}"],
        "run --config": ["run", "--config", "{path}", "--out-dir", "{out}"],
        "disambiguate --rules": ["disambiguate", "--corpus", "{corpus}", "--rules", "{path}", "--out", "{out}"],
        "gini --cohort": ["gini", "--cohort", "{path}"],
    }[reader]
    code, out, err = run_cli(capsys, *(a.format(path=path, out=tmp_path / "out", **fuzz_inputs) for a in argv))
    assert (code, out, err) == (2, "", f"data error: {message.format(path=path)}\n")


def _rejected_for_any_part_count(capsys, tmp_path, monkeypatch, bad_line):
    """The rejected lines of ingest, in one part and in two, of a corpus
    whose line 36 is bad_line; the worker of two parts reads that line."""
    _two_cpus(monkeypatch)
    lines = [json.dumps(make_record(f"P{k:02}", authors=[{"name": "Ada " + "Park" * 1000}])) for k in range(40)]
    lines[35] = bad_line
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    # With two parts, the worker reads the bad line: ingest cuts just
    # after the newline that follows the middle byte.
    assert data.index(b"\n", len(data) // 2) + 1 <= data.index(bad_line.encode())
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.jsonl"
        code, stdout, err = run_cli(capsys, "--threads", threads, "ingest", "--in", str(corpus), "--out", str(out))
        assert (code, err) == (0, "")
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
    return json.loads(outputs[0][0])["rejected_detail"]


def test_a_corpus_line_nested_too_deeply_is_rejected_for_any_part_count(capsys, tmp_path, monkeypatch):
    rejected = _rejected_for_any_part_count(capsys, tmp_path, monkeypatch, "[" * 100_000)
    assert rejected == [{"line": 36, "reason": "invalid JSON: nested too deeply"}]


def test_a_corpus_line_with_an_integer_too_long_to_convert_is_rejected_for_any_part_count(capsys, tmp_path,
                                                                                          monkeypatch):
    line = json.dumps(make_record("P35")).replace('"year": 2000', '"year": ' + "9" * 5000)
    rejected = _rejected_for_any_part_count(capsys, tmp_path, monkeypatch, line)
    assert rejected == [{"line": 36, "reason": "invalid JSON: integer of more than 4300 digits"}]
