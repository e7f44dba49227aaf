"""rankmobility benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload collide-m --seed 3 --seconds 10 --trace 0

Run from the repository root. Each run

1. sets the workload's inputs up from --seed in a fresh child process
   (five times for null-xl and reports the median; once for the two
   workloads whose set-up takes 10-15 s, for the sake of the time budget);
2. runs the timed operation in a fresh child process, untraced, until
   --seconds have passed (at least once), and reports medians of its wall
   time, CPU time and peak RSS, taken from that child alone (wait4);
3. checks the outputs: correctness gates, a tree digest of everything the
   operation wrote, and exact counters. The digest and counters must agree
   across repetitions, across runs of the same code and seed (recorded
   under .perfbench_work/), and at the default seed with expected.json;
4. with --trace 1, runs the operation once more with every public layer
   function wrapped (spans.py), checks that the traced outputs are
   byte-identical, and reports per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A failed gate makes the run fail and exit 1. Operations attempted
are the timed runs; failed_share is failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 3  # the seed expected.json was recorded at
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A phase of the benchmark could not run at all."""


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Run one child; return (wall s, user+system CPU s, peak RSS MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH="0")
    with log.open("wb") as sink:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


def code_digest() -> str:
    """sha256 of the package source and of the workload definitions."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*"), HERE / "workloads.py"]):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Record:
    """Digests and counters seen before for the same code, workload and seed."""

    path = WORK / "record.json"

    def __init__(self, key: str):
        self.key = key
        self.entries = json.loads(self.path.read_text(encoding="utf-8")) if self.path.is_file() else {}

    def check(self, observed: dict) -> list[str]:
        seen = self.entries.get(self.key)
        if seen is None:
            self.entries[self.key] = observed
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)
            return []
        return [f"{k} differs from an earlier run of this code and seed: {observed.get(k)} != {v}"
                for k, v in seen.items() if observed.get(k) != v]


def compare(observed: dict, expected: dict, what: str) -> list[str]:
    return [f"{what}: {k} is {observed.get(k)}, expected {v}" for k, v in expected.items() if observed.get(k) != v]


def bench(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from spans import TraceSummary

    workload = workloads.WORKLOADS[workload_name](seed, smoke)
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    script = str(HERE / "workloads.py")
    smoke_flag = ["--smoke"] if smoke else []
    failures: list[str] = []
    notes: list[str] = []
    try:
        # Set-up, several times: inputs must be identical each time.
        in_dir = work / "in"
        setups = []
        input_digest = None
        for i in range(workload.setup_reps):
            target = in_dir if i == 0 else work / f"in{i}"
            log = work / f"setup{i}.log"
            _, _, _, code = run_child([sys.executable, script, "setup", workload_name, str(seed), str(target), *smoke_flag], ROOT, log)
            if code != 0:
                raise BenchError(f"set-up exited {code}:\n{_tail(log)}")
            setups.append(json.loads((target / "setup.json").read_text(encoding="utf-8")))
            digest = workloads.tree_digest(target, exclude=("setup.json",))
            if input_digest is None:
                input_digest = digest
            elif digest != input_digest:
                failures.append(f"set-up {i} produced different inputs from the same seed")
            if i > 0:
                shutil.rmtree(target)

        # Timed runs, untraced, in a fresh directory each.
        rep_dir = work / "rep"
        reps = []
        attempted = failed = 0
        first = None
        start = perf_counter()
        while True:
            rep_dir.mkdir()
            log = work / "run.log"
            wall, cpu, rss, code = run_child(workload.timed_argv(), rep_dir, log)
            attempted += 1
            if code != 0:
                rep_failures = [f"timed run exited {code}:\n{_tail(log)}"]
            else:
                first, rep_failures = check_rep(workload, rep_dir, in_dir, first)
            if rep_failures:
                failed += 1
                failures += rep_failures
            reps.append((wall, cpu, rss))
            shutil.rmtree(rep_dir)
            if perf_counter() - start >= seconds:
                break
        if first is None:
            raise BenchError("\n".join(failures))
        outcome = first["outcome"]

        observed = {"inputs": input_digest, "outputs": first["digest"], **outcome.counters}
        failures += Record(f"{workload_name}|{seed}|{'smoke' if smoke else 'full'}|{code_digest()}").check(observed)
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8")).get(workload_name)
        if seed == DEFAULT_SEED and not smoke and expected:
            failures += compare(observed, expected, f"{workload_name} at seed {seed}")

        run_s = statistics.median([r[0] for r in reps])
        e2e = {
            "setup_s": statistics.median([s["setup_s"] for s in setups]),
            "run_s": run_s,
            "cpu_s": statistics.median([r[1] for r in reps]),
            "peak_rss_mb": statistics.median([r[2] for r in reps]),
            "records_per_s": statistics.median([outcome.records / r[0] for r in reps]),
            "accuracy": outcome.quality["accuracy"],
        }
        layers = None
        if trace:
            rep_dir.mkdir()
            trace_file = work / "trace.json"
            log = work / "trace.log"
            argv = [sys.executable, script, "run", workload_name, str(seed), *smoke_flag, "--trace", str(trace_file)]
            wall, _, _, code = run_child(argv, rep_dir, log)
            attempted += 1
            trace_failures = []
            if code != 0:
                trace_failures.append(f"traced run exited {code}:\n{_tail(log)}")
            else:
                trace_failures += check_rep(workload, rep_dir, in_dir, first)[1]
            if not trace_failures:
                summary = TraceSummary(json.loads(trace_file.read_text(encoding="utf-8")))
                layers = per_layer(summary, wall, run_s, setups, outcome, first["bytes"])
                trace_failures += check_trace(summary, outcome, layers)
                accounted, root = summary.accounting()
                notes.append(f"trace: self times under pipeline.run sum to {accounted:.3f} s of {root:.3f} s; "
                             f"overhead {layers['trace.overhead_s']:.3f} s")
            if trace_failures:
                failed += 1
                failures += trace_failures
        return {"e2e": e2e, "layers": layers, "attempted": attempted, "failed": failed,
                "failures": failures, "notes": notes, "counters": observed, "reps": len(reps)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_rep(workload, rep_dir: Path, in_dir: Path, first: dict | None) -> tuple[dict, list[str]]:
    """Check one timed run's outputs; return (first run's facts, failures).

    The first run's outputs go through the workload's gates. Every later
    run, traced or not, must match the first byte for byte.
    """
    import workloads

    digest = workloads.tree_digest(rep_dir)
    if first is None:
        outcome = workload.check(rep_dir, in_dir)
        return {"digest": digest, "bytes": workloads.tree_bytes(rep_dir), "outcome": outcome}, outcome.failures
    if digest != first["digest"]:
        return first, ["output is not byte-identical to the first run's"]
    return first, []


def per_layer(t, traced_wall: float, untraced_run_s: float, setups: list, outcome, bundle_bytes: int) -> dict:
    """Per-layer metrics from one traced run, its outputs and the set-ups."""
    counters = outcome.counters
    quality = outcome.quality
    ingest_s = t.duration("corpus.ingest")
    mentions = t.count_sum("corpus.ingest")
    cluster_s = t.duration("disambig.cluster_block")
    blocks, max_block, pairs = t.blocks()
    null_s = t.duration("mobility.null")
    null_reps = t.count_sum("mobility.null")
    run_s = t.duration("pipeline.run")
    return {
        "corpus.ingest_s": ingest_s,
        "corpus.ingest_self_s": t.self_s("corpus.ingest"),
        "corpus.filter_s": t.duration("corpus.filter"),
        "corpus.export_s": t.duration("corpus.export"),
        "corpus.mentions": mentions,
        "corpus.mentions_per_s": mentions / ingest_s if ingest_s else 0.0,
        "corpus.rss_mb": t.peak_rss_mb("corpus.ingest"),
        "names.calls": t.leaf_calls("names."),
        "names.busy_s": t.leaf_time("names."),
        "disambig.block_s": t.duration("disambig.block"),
        "disambig.blocks": blocks,
        "disambig.max_block": max_block,
        "disambig.candidate_pairs": pairs,
        "disambig.cluster_s": cluster_s,
        "disambig.pairs_per_s": pairs / cluster_s if cluster_s else 0.0,
        "disambig.big_block_share": t.big_block_share(),
        "disambig.clusters": t.count_sum("disambig.disambiguate"),
        "disambig.precision": quality.get("precision", 0.0),
        "disambig.recall": quality.get("recall", 0.0),
        "disambig.rss_mb": t.peak_rss_mb("disambig.disambiguate"),
        "cohort.profiles_s": t.duration("cohort.profiles"),
        "cohort.impacts_s": t.duration("cohort.impacts"),
        "cohort.profiles": t.count_sum("cohort.profiles"),
        "cohort.members": t.count_sum("cohort.impacts"),
        "mobility.rank_s": t.duration("mobility.rank"),
        "mobility.transition_s": t.duration("mobility.transition"),
        "mobility.null_s": null_s,
        "mobility.null_author_reps": null_reps,
        "mobility.null_author_reps_per_s": null_reps / null_s if null_s else 0.0,
        "mobility.csv_write_s": t.duration("mobility.csv_write"),
        "mobility.csv_read_s": t.duration("mobility.csv_read"),
        "diffusion.fit_s": t.duration("diffusion.fit"),
        "diffusion.pooled_fit_s": t.duration("diffusion.pooled_fit"),
        "diffusion.fits": len(t.of("diffusion.fit")) + len(t.of("diffusion.pooled_fit")),
        "diffusion.objective_evals": counters.get("objective_evals", 0),
        "diffusion.nonconverged": sum("did not converge" in f for f in outcome.failures),
        "inequality.gini_series_s": t.duration("inequality.gini_series"),
        "inequality.gini_s": t.duration("inequality.gini"),
        "stats.trend_s": t.duration("stats.trend"),
        "synth.generate_s": statistics.median([s["synth.generate_s"] for s in setups]),
        "synth.sample_s": statistics.median([s["synth.sample_s"] for s in setups]),
        "pipeline.run_s": run_s,
        "pipeline.self_s": t.self_s("pipeline.run"),
        "pipeline.report_s": t.duration("pipeline.report"),
        "pipeline.artifacts": outcome.artifacts,
        "pipeline.bundle_bytes": bundle_bytes,
        "cli.overhead_s": traced_wall - t.root_time(),
        "trace.overhead_s": traced_wall - untraced_run_s,
    }


def check_trace(t, outcome, layers: dict) -> list[str]:
    """Counts seen by the wrappers must equal those derived from outputs."""
    failures = []
    counters = outcome.counters
    if "blocks" in counters:
        seen = {"blocks": layers["disambig.blocks"], "max_block": layers["disambig.max_block"],
                "candidate_pairs": layers["disambig.candidate_pairs"], "clusters": layers["disambig.clusters"]}
        failures += compare(seen, {k: counters[k] for k in seen}, "traced blocking")
    if layers["mobility.null_author_reps"] != counters.get("null_author_reps"):
        failures.append(f"traced null author-reps {layers['mobility.null_author_reps']} != {counters.get('null_author_reps')}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "rankmobility" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["e2e"]
    print(f"workload {args.workload}, seed {args.seed}, {result['reps']} timed repetition(s)")
    for name, value in result["e2e"].items():
        print(f"  {name:<24} {value:>14.6g} {units[name]}")
    print(f"  {'failed_share':<24} {result['failed'] / result['attempted']:>14.6g} share")
    if result["layers"] is not None:
        for name, value in result["layers"].items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, value in result["counters"].items():
        print(f"  counter {name} = {value}")
    for note in result["notes"]:
        print(note)
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    correct = not result["failures"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen} if correct else {}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"] if correct else max(result["failed"], 1), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
