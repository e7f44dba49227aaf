import fcntl
import gc
import hashlib
import importlib.util
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import rankmobility
from rankmobility import cli, cohort, corpus, inequality, pipeline
from rankmobility.corpus import CorpusError, CorpusFilterConfig, export, filter_corpus, ingest
from rankmobility.disambig import block_mentions, read_clusters
from rankmobility.jsonio import dumps
from rankmobility.pipeline import (
    PipelineConfig,
    PipelineError,
    config_hash,
    report_summary,
    run_pipeline,
    slugify,
)
from rankmobility.synth import SynthConfig, generate_corpus

from conftest import collector_set

COHORT_YEARS = (2000, 2001)


def make_corpus_file(path: Path, **overrides) -> Path:
    settings = dict(
        n_authors=320,
        seed=6,
        disciplines=("Chemistry", "Biology"),
        start_years=COHORT_YEARS,
    )
    settings.update(overrides)
    corpus, _ = generate_corpus(SynthConfig(**settings))
    export(corpus, path)
    return path


def pipeline_config(corpus_path: Path, **overrides) -> PipelineConfig:
    payload = {
        "corpus": str(corpus_path),
        "disciplines": ["Chemistry", "Biology"],
        "cohort_years": list(COHORT_YEARS),
        "null_reps": 10,
        "min_cohort_size": 30,
        "seed": 13,
    }
    payload.update(overrides)
    return PipelineConfig.from_json(payload)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    corpus_path = make_corpus_file(root / "corpus.jsonl")
    config = pipeline_config(corpus_path)
    result = run_pipeline(config, root / "out")
    return config, result


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(PipelineError, match="unknown pipeline config keys: bogus"):
        PipelineConfig.from_json(
            {"corpus": "x", "disciplines": ["A"], "cohort_years": [2000], "bogus": 1}
        )


def test_config_from_json_requires_core_keys():
    with pytest.raises(PipelineError, match="pipeline config is missing 'corpus'"):
        PipelineConfig.from_json({"disciplines": ["A"], "cohort_years": [2000]})


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"disciplines": []}, "config needs at least one discipline"),
        ({"cohort_years": []}, "config needs at least one cohort year"),
        ({"null_reps": 0}, "null_reps must be at least 1"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"gini_window": 3}, "gini_window must be 1 or 2"),
        ({"min_cohort_size": 5}, "min_cohort_size must be at least 10"),
        ({"fit_bracket": [10.0, 1.0]}, "fit_bracket must satisfy 0 < lo < hi"),
        ({"fit_bracket": [1e-3, float("inf")]}, "fit_bracket must satisfy 0 < lo < hi < inf"),
        ({"fit_grid_points": 1}, "fit_grid_points must be at least 2"),
    ],
)
def test_config_validation(overrides, message):
    payload = {"corpus": "x", "disciplines": ["A"], "cohort_years": [2000]}
    payload.update(overrides)
    with pytest.raises(PipelineError, match=message):
        PipelineConfig.from_json(payload)


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"disciplines": "Chemistry"}, "'disciplines' must be a list of strings"),
        ({"disciplines": ["A", 7]}, "'disciplines' must be a list of strings"),
        ({"disciplines": ["Chemistry", "Chemistry"]}, "'disciplines' lists 'Chemistry' twice"),
        ({"cohort_years": 2000}, "'cohort_years' must be a list of integers"),
        ({"cohort_years": [2000.5]}, "'cohort_years' must be a list of integers"),
        ({"cohort_years": [2000, 2000]}, "'cohort_years' lists 2000 twice"),
        ({"fit_bracket": 5}, "'fit_bracket' must be a list of two numbers"),
        ({"fit_bracket": [0.1, "10"]}, "'fit_bracket' must be a list of two numbers"),
        ({"null_reps": "5"}, "'null_reps' must be an integer"),
        ({"rules": 3}, "'rules' must be a path or null"),
        ({"filter": [1]}, "'filter' must be an object"),
        ({"filter": {"max_author": 5}}, "unknown filter keys: max_author"),
        ({"filter": {"disciplines": "Chemistry"}}, "'disciplines' must be a list of strings"),
        ({"filter": {"year_range": [2000]}}, "'year_range' must be a list of two integers"),
        ({"corpus": 5}, "'corpus' must be a path"),
        # A mismatch names the object that holds the key.
        ({"disciplines": "Chemistry"}, "^'disciplines' must be a list of strings in pipeline config$"),
        ({"filter": {"disciplines": "Chemistry"}}, "^'disciplines' must be a list of strings or null in filter$"),
    ],
)
def test_config_types_and_duplicates_are_rejected(overrides, message):
    payload = {"corpus": "x", "disciplines": ["A"], "cohort_years": [2000]}
    payload.update(overrides)
    with pytest.raises(PipelineError, match=message):
        PipelineConfig.from_json(payload)


def test_config_filter_parsing_and_canonical_round_trip():
    config = PipelineConfig.from_json(
        {
            "corpus": "x",
            "disciplines": ["A"],
            "cohort_years": [2000],
            "filter": {
                "max_authors": 5,
                "year_range": [1995, 2015],
                "disciplines": ["Chemistry"],
            },
        }
    )
    assert config.filter.max_authors == 5
    assert config.filter.year_range == (1995, 2015)
    assert config.filter.disciplines == frozenset({"Chemistry"})
    assert PipelineConfig.from_json(config.canonical_dict()) == config


def test_config_hash_is_stable_and_sensitive():
    base = {"corpus": "x", "disciplines": ["A"], "cohort_years": [2000]}
    first = config_hash(PipelineConfig.from_json(base))
    second = config_hash(PipelineConfig.from_json(dict(base)))
    shifted = config_hash(PipelineConfig.from_json({**base, "seed": 99}))
    assert first == second
    assert first != shifted
    assert len(first) == 64


@pytest.mark.parametrize(
    "payload,digest",
    [
        (
            {
                "corpus": "x",
                "disciplines": ["A", "B"],
                "cohort_years": [2001, 2000],
                "fit_bracket": [1, 10],
                "filter": {"max_authors": 20},
            },
            "d7914ed47df6a5254394eb0e4343698c1ab8be151daf3f24c7a58fc5fcb206f4",
        ),
        (
            {
                "corpus": "x",
                "disciplines": ["A"],
                "cohort_years": [2000],
                "filter": {"disciplines": [], "year_range": None},
            },
            "b794f55fb1cc8ce30d2e4b56923723e494f375dd6781fa9f32d5befe6f2f36f7",
        ),
    ],
)
def test_config_hash_is_pinned(payload, digest):
    assert config_hash(PipelineConfig.from_json(payload)) == digest


def test_slugify():
    assert slugify("Materials Science") == "materials-science"
    assert slugify("***") == "x"
    assert slugify("Earth & Space") == "earth-space"


def test_run_writes_every_listed_artifact(bundle):
    _, result = bundle
    artifacts = result.manifest["artifacts"]
    assert artifacts == sorted(artifacts)
    for rel in artifacts:
        assert (result.out_dir / rel).is_file(), rel
    assert "clusters.jsonl" in artifacts
    assert "summary/correlation.json" in artifacts
    for slug in ("chemistry", "biology"):
        for name in ("gini_series.csv", "corner_series.csv", "trends.json", "pooled_fit.json"):
            assert f"{slug}/{name}" in artifacts
        for year in COHORT_YEARS:
            for name in (
                "rank_table.csv",
                "transition.csv",
                "delta_q.csv",
                "null_delta_q.csv",
                "null_transition.csv",
                "fit.json",
                "delta_p.csv",
            ):
                assert f"{slug}/{year}/{name}" in artifacts


def test_manifest_describes_the_run(bundle):
    config, result = bundle
    manifest = result.manifest
    assert manifest["tool"] == "rankmobility"
    assert manifest["version"] == rankmobility.__version__
    assert manifest["config_hash"] == config_hash(config)
    assert manifest["seed"] == 13
    assert manifest["inputs"]["rules"] == "builtin"
    counts = manifest["counts"]
    assert counts["records_accepted"] == counts["lines_read"]
    assert counts["publications"] > 0
    assert counts["mentions"] > counts["publications"]
    assert counts["clusters"] > 0
    assert counts["profiles"] == counts["clusters"]
    for slug in ("chemistry", "biology"):
        for year in COHORT_YEARS:
            assert manifest["cohort_sizes"][f"{slug}/{year}"] >= 30
    assert manifest["skipped"] == []


def test_clusters_artifact_is_readable(bundle):
    _, result = bundle
    clusters = read_clusters(result.out_dir / "clusters.jsonl")
    assert len(clusters) == result.manifest["counts"]["clusters"]


def test_summary_correlation_payload(bundle):
    config, result = bundle
    with (result.out_dir / "summary" / "correlation.json").open() as handle:
        summary = json.load(handle)
    assert summary["config_hash"] == config_hash(config)
    assert len(summary["points"]) == 4
    assert summary["d_vs_gini"] is not None
    assert -1.0 <= summary["d_vs_gini"]["r"] <= 1.0
    by_discipline = {row["discipline"]: row for row in summary["per_discipline"]}
    assert set(by_discipline) == {"Chemistry", "Biology"}
    for row in by_discipline.values():
        assert row["pooled_d"] > 0
        assert 0.0 < row["mean_gini"] < 1.0
        assert row["n_cohorts"] == 2


def test_fit_json_payload(bundle):
    config, result = bundle
    with (result.out_dir / "chemistry" / "2000" / "fit.json").open() as handle:
        fit = json.load(handle)
    assert fit["discipline"] == "Chemistry"
    assert fit["start_year"] == 2000
    assert fit["config_hash"] == config_hash(config)
    assert fit["cohort_size"] == result.manifest["cohort_sizes"]["chemistry/2000"]
    assert fit["bracket"] == [1e-3, 10.0]


def test_run_refuses_nonempty_directory(bundle, tmp_path):
    config, _ = bundle
    target = tmp_path / "occupied"
    target.mkdir()
    (target / "keep.txt").write_text("do not clobber", encoding="utf-8")
    with pytest.raises(PipelineError, match="output directory is not empty"):
        run_pipeline(config, target)
    assert (target / "keep.txt").read_text(encoding="utf-8") == "do not clobber"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_failed_run_keeps_the_collector_state(bundle, tmp_path, enabled):
    config, _ = bundle
    (tmp_path / "keep.txt").write_text("occupied", encoding="utf-8")
    with collector_set(enabled):
        with pytest.raises(PipelineError, match="output directory is not empty"):
            run_pipeline(config, tmp_path)
        assert gc.isenabled() is enabled


def test_run_triggers_no_garbage_collection(bundle, tmp_path, monkeypatch):
    config, first = bundle
    events = []
    enable = gc.enable

    def count(phase, info):
        if phase == "start":
            events.append("collection")

    def record_enable():
        events.append("enable")
        enable()

    monkeypatch.setattr(gc, "enable", record_enable)
    gc.callbacks.append(count)
    try:
        result = run_pipeline(config, tmp_path / "out", threads=2)
    finally:
        gc.callbacks.remove(count)
    # The collector is switched back on once, after all of the run's work.
    # The allocations the run counted while paused may set off one
    # collection at once; that is the deferred one, not one during the run.
    assert events in (["enable"], ["enable", "collection"])
    assert gc.isenabled()
    assert result.manifest["counts"] == first.manifest["counts"]


def test_a_run_in_two_processes_starts_no_thread_and_writes_the_one_process_bundle(bundle, tmp_path, monkeypatch):
    """--threads counts ingest processes only: cohorts are analyzed on the
    run's own thread."""
    config, first = bundle
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    result = run_pipeline(config, tmp_path / "out", threads=2)
    assert started == []
    first_bytes = {name: (first.out_dir / name).read_bytes() for name in first.manifest["artifacts"]}
    assert {name: (result.out_dir / name).read_bytes() for name in result.manifest["artifacts"]} == first_bytes
    assert {k: v for k, v in result.manifest.items() if k != "created_at"} == {
        k: v for k, v in first.manifest.items() if k != "created_at"
    }


def test_run_needs_at_least_one_thread(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(PipelineError, match="threads must be at least 1"):
        run_pipeline(pipeline_config(tmp_path / "missing.jsonl"), out, threads=0)
    assert list(tmp_path.iterdir()) == []


def test_failed_run_removes_partial_bundle(tmp_path):
    config = pipeline_config(tmp_path / "missing.jsonl")
    out = tmp_path / "out"
    with pytest.raises(CorpusError, match="cannot read corpus"):
        run_pipeline(config, out)
    assert not out.exists()


def test_killed_run_leaves_no_partial_bundle(tmp_path):
    corpus_path = make_corpus_file(tmp_path / "corpus.jsonl")
    # Enough null repetitions that the run is still busy well after it has
    # written clusters.jsonl, its first artifact.
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(pipeline_config(corpus_path, null_reps=20000).canonical_dict()), encoding="utf-8")
    runs = tmp_path / "runs"
    out = runs / "out"
    src = str(Path(rankmobility.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "rankmobility.cli", "run", "--config", str(config), "--out-dir", str(out)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any(runs.rglob("clusters.jsonl")):
            assert proc.poll() is None, "the run ended before it wrote clusters.jsonl"
            assert time.monotonic() < deadline, "the run wrote no clusters.jsonl within 60 s"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]


def test_a_bundle_does_not_depend_on_the_hash_seed(tmp_path):
    # Each process hashes strings with its own seed, so output that followed
    # the iteration order of a set of strings would differ between the two.
    corpus_path = make_corpus_file(tmp_path / "corpus.jsonl", name_collision_rate=0.2)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(pipeline_config(corpus_path).canonical_dict()), encoding="utf-8")
    src = str(Path(rankmobility.__file__).resolve().parents[1])
    bundles = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   PYTHONHASHSEED=hash_seed, SOURCE_DATE_EPOCH="0")
        argv = [sys.executable, "-m", "rankmobility.cli", "--threads", "2", "run", "--config", str(config),
                "--out-dir", "bundle"]
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        bundles.append({str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()})
    assert "bundle/clusters.jsonl" in bundles[0]
    assert bundles[0] == bundles[1]


def _quick_runs(monkeypatch):
    """Make run_pipeline stage an empty bundle without running anything."""
    monkeypatch.setattr(pipeline, "_run", lambda config, out, threads, source_date: ({}, True))


def _staging_dirs(parent):
    return sorted(path.name for path in parent.iterdir() if path.name.startswith("."))


def test_next_run_removes_the_staging_directory_a_killed_run_left(tmp_path, monkeypatch):
    # A run that stalls once its staging directory is set up, and is killed there.
    script = (
        "import sys, time\n"
        "from rankmobility import pipeline\n"
        "def stalled(config, out, threads, source_date):\n"
        "    print('staged', flush=True)\n"
        "    time.sleep(120)\n"
        "pipeline._run = stalled\n"
        "config = pipeline.PipelineConfig.from_json({'corpus': 'c.jsonl', 'disciplines': ['A'], 'cohort_years': [2000]})\n"
        "pipeline.run_pipeline(config, sys.argv[1])\n"
    )
    out = tmp_path / "runs" / "out"
    src = str(Path(rankmobility.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", script, str(out)], env=env, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"staged\n"
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    (left,) = _staging_dirs(out.parent)
    assert left.startswith(".out.") and (out.parent / left / "run.lock").is_file()

    _quick_runs(monkeypatch)
    run_pipeline(pipeline_config(tmp_path / "c.jsonl"), out)
    assert _staging_dirs(out.parent) == []
    assert out.is_dir()


def test_a_run_keeps_a_staging_directory_whose_lock_is_held(tmp_path, monkeypatch):
    busy = tmp_path / ".out.busy1234"
    busy.mkdir()
    with (busy / "run.lock").open("w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        _quick_runs(monkeypatch)
        run_pipeline(pipeline_config(tmp_path / "c.jsonl"), tmp_path / "out")
        assert _staging_dirs(tmp_path) == [".out.busy1234"]


def test_a_run_keeps_every_other_dotted_directory(tmp_path, monkeypatch):
    # A directory with no lock file, another output's staging directory, a
    # dotted directory that is no staging directory, and a file.
    (tmp_path / ".out.nolock12").mkdir()
    (tmp_path / ".outer.abcd1234").mkdir()
    (tmp_path / ".outer.abcd1234" / "run.lock").touch()
    (tmp_path / ".other").mkdir()
    (tmp_path / ".other" / "run.lock").touch()
    (tmp_path / ".out.file").write_text("x", encoding="utf-8")
    before = _staging_dirs(tmp_path)
    _quick_runs(monkeypatch)
    run_pipeline(pipeline_config(tmp_path / "c.jsonl"), tmp_path / "out")
    assert _staging_dirs(tmp_path) == before


def test_small_cohorts_are_skipped_not_fatal(bundle, tmp_path):
    config, _ = bundle
    strict = PipelineConfig.from_json(
        {**config.canonical_dict(), "min_cohort_size": 1000}
    )
    result = run_pipeline(strict, tmp_path / "out")
    assert result.all_converged
    assert len(result.manifest["skipped"]) == 4
    assert all(
        "cohort below minimum size" in entry["reason"]
        for entry in result.manifest["skipped"]
    )
    with (result.out_dir / "summary" / "correlation.json").open() as handle:
        summary = json.load(handle)
    assert summary["points"] == []
    assert summary["d_vs_gini"] is None
    assert all(row["pooled_d"] is None for row in summary["per_discipline"])


THREE_YEARS = (2000, 2001, 2002)
# "Bio Chem" and "bio-chem" slugify alike and hold no cohort of the corpus.
THREE_YEAR_DISCIPLINES = ["Chemistry", "Bio Chem", "bio-chem"]


def three_year_config(corpus_path: Path, **overrides) -> PipelineConfig:
    return pipeline_config(
        corpus_path,
        disciplines=THREE_YEAR_DISCIPLINES,
        cohort_years=list(THREE_YEARS),
        min_cohort_size=20,
        **overrides,
    )


@pytest.fixture(scope="module")
def three_year_bundle(tmp_path_factory):
    """A run over three kept Chemistry cohorts (227, 129 and 41 authors)."""
    root = tmp_path_factory.mktemp("three_years")
    corpus_path = make_corpus_file(
        root / "corpus.jsonl", n_authors=400, seed=5, disciplines=("Chemistry",), start_years=(2000, 2002)
    )
    return run_pipeline(three_year_config(corpus_path), root / "out")


def test_three_cohort_years_give_every_trend(three_year_bundle, tmp_path, capsys):
    out = three_year_bundle.out_dir
    sizes = three_year_bundle.manifest["cohort_sizes"]
    assert [sizes[f"chemistry/{year}"] for year in THREE_YEARS] == [227, 129, 41]
    trends = json.loads((out / "chemistry" / "trends.json").read_text(encoding="utf-8"))
    for name in ("d_vs_year", "gini_vs_year", "d_vs_gini", "top_gap_vs_year", "bottom_gap_vs_year"):
        trend = trends[name]
        assert trend["n"] == 3, name
        for low, fit, high in zip(trend["band_low"], trend["fit"], trend["band_high"]):
            assert low <= fit <= high, name
    years = [float(year) for year in THREE_YEARS]
    d_stars = [
        json.loads((out / "chemistry" / str(year) / "fit.json").read_text(encoding="utf-8"))["d_star"]
        for year in THREE_YEARS
    ]
    assert trends["d_vs_year"] == json.loads(dumps(pipeline.trend_payload(years, d_stars)))

    # The trend command gives the same payload from the same series.
    series, written = tmp_path / "series.csv", tmp_path / "trend.json"
    series.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(years, d_stars)), encoding="utf-8")
    assert cli.main(["trend", "--series", str(series), "--out", str(written)]) == 0, capsys.readouterr().err
    assert json.loads(written.read_text(encoding="utf-8")) == trends["d_vs_year"]


def test_labels_that_slugify_alike_get_suffixed_directories(three_year_bundle):
    summary = json.loads((three_year_bundle.out_dir / "summary" / "correlation.json").read_text(encoding="utf-8"))
    slugs = {row["discipline"]: row["slug"] for row in summary["per_discipline"]}
    assert slugs == {"Chemistry": "chemistry", "Bio Chem": "bio-chem", "bio-chem": "bio-chem-2"}
    for slug in ("bio-chem", "bio-chem-2"):
        assert (three_year_bundle.out_dir / slug / "trends.json").is_file()
    skipped = {(entry["discipline"], entry["year"]) for entry in three_year_bundle.manifest["skipped"]}
    assert skipped == {(d, year) for d in ("Bio Chem", "bio-chem") for year in THREE_YEARS}


def test_run_whose_fits_do_not_converge_exits_3(three_year_bundle, tmp_path, capsys):
    # D* of every cohort lies far below 50, so each fit stops at the edge.
    corpus_path = three_year_bundle.manifest["config"]["corpus"]
    config = tmp_path / "pipeline.json"
    config.write_text(
        json.dumps({**three_year_config(corpus_path).canonical_dict(), "fit_bracket": [50.0, 100.0]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "one or more fits did not converge (see manifest warnings)\n"
    assert json.loads(captured.out)["warnings"] == 4
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["warnings"] == [
        *(f"fit did not converge for Chemistry {year}: optimum at bracket edge 50.0" for year in THREE_YEARS),
        "pooled fit did not converge for Chemistry",
    ]
    for rel in manifest["artifacts"]:
        assert (out / rel).is_file(), rel
    for year in THREE_YEARS:
        fit = json.loads((out / "chemistry" / str(year) / "fit.json").read_text(encoding="utf-8"))
        assert (fit["converged"], fit["d_star"]) == (False, 50.0)


def test_rerun_reproduces_bundle_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    corpus_path = make_corpus_file(
        tmp_path / "corpus.jsonl", n_authors=150, disciplines=("Chemistry",)
    )
    config = pipeline_config(
        corpus_path, disciplines=["Chemistry"], null_reps=5
    )
    first = run_pipeline(config, tmp_path / "first")
    second = run_pipeline(config, tmp_path / "second")
    threaded = run_pipeline(config, tmp_path / "threaded", threads=2)
    assert first.manifest["created_at"] == "2023-11-14T22:13:20+00:00"
    digests = tree_digest(first.out_dir)
    assert tree_digest(second.out_dir) == digests
    assert tree_digest(threaded.out_dir) == digests


def _bundle_bytes(root: Path, lines: list[str], monkeypatch) -> dict[str, bytes]:
    """Run the pipeline in root on a corpus of these lines, named as in
    every other such run, and read back every file of the bundle."""
    root.mkdir()
    (root / "corpus.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    monkeypatch.chdir(root)
    config = pipeline_config(Path("corpus.jsonl"), disciplines=["Chemistry"], null_reps=5)
    out_dir = run_pipeline(config, Path("bundle")).out_dir
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _respelled(value):
    """The same JSON value with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: _respelled(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_respelled(item) for item in value]
    return value


@pytest.fixture(scope="module")
def invariance_corpus(tmp_path_factory):
    path = make_corpus_file(
        tmp_path_factory.mktemp("invariance") / "corpus.jsonl",
        n_authors=150, disciplines=("Chemistry",), name_collision_rate=0.2,
    )
    return path.read_text(encoding="utf-8").splitlines()


def test_bundle_does_not_depend_on_the_order_of_corpus_lines(invariance_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    shuffled = list(invariance_corpus)
    random.Random(5).shuffle(shuffled)
    assert shuffled != invariance_corpus
    reference = _bundle_bytes(tmp_path / "as_written", invariance_corpus, monkeypatch)
    assert _bundle_bytes(tmp_path / "shuffled", shuffled, monkeypatch) == reference


def test_bundle_does_not_depend_on_the_spelling_of_corpus_lines(invariance_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    respelled = [
        " " + json.dumps(_respelled(json.loads(line)), separators=(" ,\t", " :  ")) + "\t"
        for line in invariance_corpus
    ]
    assert all(json.loads(a) == json.loads(b) for a, b in zip(respelled, invariance_corpus))
    reference = _bundle_bytes(tmp_path / "as_written", invariance_corpus, monkeypatch)
    assert _bundle_bytes(tmp_path / "respelled", respelled, monkeypatch) == reference


def test_report_summary_ranks_disciplines(bundle):
    _, result = bundle
    report = report_summary(result.out_dir)
    mobility = report["mobility"]["ranking"]
    assert [row["rank"] for row in mobility] == [1, 2]
    assert mobility[0]["pooled_d"] >= mobility[1]["pooled_d"]
    assert report["mobility"]["note"].startswith("fewer than five disciplines")
    assert report["mobility"]["top5"] == [row["discipline"] for row in mobility]
    inequality = report["inequality"]["ranking"]
    assert inequality[0]["mean_gini"] >= inequality[1]["mean_gini"]
    report_dir = result.out_dir / "report"
    for name in ("report.json", "mobility_ranking.csv", "inequality_ranking.csv"):
        assert (report_dir / name).is_file()


def test_report_summary_requires_bundle(tmp_path):
    with pytest.raises(PipelineError, match="not a report bundle"):
        report_summary(tmp_path)


def test_cohorts_with_all_zero_impacts_are_skipped_not_fatal(tmp_path):
    corpus_path = make_corpus_file(tmp_path / "uncited.jsonl", citation_rate=0.0)
    result = run_pipeline(pipeline_config(corpus_path), tmp_path / "out")
    assert result.all_converged
    skipped = result.manifest["skipped"]
    assert len(skipped) == 4
    assert all(entry["reason"].startswith("all window-1 impacts are zero") for entry in skipped)
    assert all(size >= 30 for size in result.manifest["cohort_sizes"].values())
    assert (result.out_dir / "chemistry" / "gini_series.csv").read_bytes() == b"year,gini,n_authors\r\n"


def test_each_cohort_is_built_once(tmp_path, monkeypatch):
    calls = []
    original = cohort.cohort_impacts

    def counting(careers, discipline, start_year):
        calls.append((discipline, start_year))
        return original(careers, discipline, start_year)

    for module in (cohort, inequality, pipeline, cli):
        if hasattr(module, "cohort_impacts"):
            monkeypatch.setattr(module, "cohort_impacts", counting)
    corpus_path = make_corpus_file(tmp_path / "corpus.jsonl", n_authors=150)
    config = pipeline_config(corpus_path, cohort_years=[2001, 2000, 1999])
    run_pipeline(config, tmp_path / "out", threads=2)
    assert sorted(calls) == sorted((d, y) for d in config.disciplines for y in config.cohort_years)


@pytest.fixture
def mention_builds(monkeypatch):
    """The row count of each mention table whose derived forms any corpus
    builds from here on."""
    built = {"tables": []}
    build_forms = corpus._build_forms

    def counting_forms(columns, pub):
        built["tables"].append(len(pub))
        return build_forms(columns, pub)

    monkeypatch.setattr(corpus, "_build_forms", counting_forms)
    return built


def test_mentions_are_built_only_by_the_stages_that_read_them(tmp_path, capsys, mention_builds):
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps(
        {"n_authors": 150, "seed": 6, "disciplines": ["Chemistry", "Biology"], "start_years": list(COHORT_YEARS)}
    ), encoding="utf-8")
    generated, canonical, filtered = (tmp_path / f"{name}.jsonl" for name in ("generated", "canonical", "filtered"))
    assert cli.main(["synth", "corpus", "--config", str(synth_config), "--out", str(generated)]) == 0
    synth_info = json.loads(capsys.readouterr().out)
    assert cli.main(["ingest", "--in", str(generated), "--out", str(canonical)]) == 0
    assert cli.main(["filter", "--in", str(canonical), "--out", str(filtered), "--max-authors", "3"]) == 0
    capsys.readouterr()
    assert mention_builds == {"tables": []}

    lines = generated.read_text(encoding="utf-8").splitlines()
    assert synth_info["mentions"] == sum(len(json.loads(line)["authors"]) for line in lines)
    synthetic, _ = generate_corpus(SynthConfig(n_authors=150, seed=6, disciplines=("Chemistry", "Biology"),
                                               start_years=COHORT_YEARS))
    export(synthetic, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == generated.read_bytes()
    kept, stats = filter_corpus(ingest(canonical), CorpusFilterConfig(max_authors=3))
    export(kept, tmp_path / "kept.jsonl")
    assert stats.removed > 0
    n_mentions = len(kept.mentions)
    assert mention_builds == {"tables": []}
    assert len(kept.mentions.block_keys()[0]) == len(kept.mentions.codes("orcid")) == n_mentions
    assert mention_builds == {"tables": [n_mentions]}

    mention_builds["tables"].clear()
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({
        "corpus": str(canonical), "disciplines": ["Chemistry", "Biology"], "cohort_years": list(COHORT_YEARS),
        "filter": {"max_authors": 3}, "null_reps": 10, "min_cohort_size": 30, "seed": 13,
    }), encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out-dir", str(tmp_path / "bundle")]) == 0
    counts = json.loads((tmp_path / "bundle" / "manifest.json").read_text(encoding="utf-8"))["counts"]
    assert counts["filter_removed"] == stats.removed
    assert mention_builds == {"tables": [n_mentions]}
    assert counts["mentions"] == n_mentions


def test_bundle_gini_series_matches_the_gini_series_command(bundle, tmp_path, capsys):
    config, result = bundle
    out = tmp_path / "gini_series.csv"
    code = cli.main(
        [
            "gini-series",
            "--corpus", config.corpus,
            "--clusters", str(result.out_dir / "clusters.jsonl"),
            "--discipline", "Chemistry",
            "--years", f"{min(COHORT_YEARS)}:{max(COHORT_YEARS)}",
            "--min-size", str(config.min_cohort_size),
            "--out", str(out),
        ]
    )
    assert code == 0, capsys.readouterr().err
    assert out.read_bytes() == (result.out_dir / "chemistry" / "gini_series.csv").read_bytes()


def _load_benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_and_calls_every_pipeline_name(tmp_path):
    """The benchmark's tracer wraps functions at the module attributes the
    pipeline looks up; renaming one, or no longer calling it, breaks a
    traced benchmark run."""
    spans = _load_benchmark_spans()
    before = {(path, attr): spans._resolve(path).__dict__[attr] for path, attr, *_ in spans.WRAPS}
    corpus_path = make_corpus_file(tmp_path / "corpus.jsonl", n_authors=150)
    config = pipeline_config(corpus_path, filter={"max_authors": 20})
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config, tmp_path / "out")
        pipeline.report_summary(tmp_path / "out")
    finally:
        tracer.uninstall()
    after = {(path, attr): spans._resolve(path).__dict__[attr] for path, attr, *_ in spans.WRAPS}
    assert after == before
    traced = {span[1] for span in tracer.dump()["spans"]}
    expected = {name for path, _, name, *_ in spans.WRAPS if path == "rankmobility.pipeline"}
    assert expected - traced == set()


def test_traced_run_records_one_cluster_block_span_per_block(tmp_path):
    """The benchmark counts blocks, the largest block and candidate pairs from
    the cluster_block spans of a traced run, so each block must be scored by
    one cluster_block call whose first argument has the block's length."""
    spans = _load_benchmark_spans()
    corpus_path = make_corpus_file(tmp_path / "corpus.jsonl", n_authors=150)
    config = pipeline_config(corpus_path, filter={"max_authors": 3})
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config, tmp_path / "out")
    finally:
        tracer.uninstall()
    summary = spans.TraceSummary(tracer.dump())
    kept, _ = filter_corpus(ingest(corpus_path), config.filter)
    sizes = [len(block) for block in block_mentions(kept).values()]
    traced = [span[6] for span in sorted(summary.of("disambig.cluster_block"), key=lambda span: span[4])]
    assert traced == sizes
    assert summary.blocks() == (len(sizes), max(sizes), sum(n * (n - 1) // 2 for n in sizes))
