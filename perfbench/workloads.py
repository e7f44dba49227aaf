"""The benchmark's three workloads: inputs, timed operation, output checks.

Each workload has a full shape and a smoke shape (a few seconds, for the
benchmark's own tests). Inputs come only from the seed. The parent process
(run.py) runs every phase in a child started from this file:

    python3 perfbench/workloads.py setup <workload> <seed> <in-dir> [--smoke]
    python3 perfbench/workloads.py run <workload> <seed> [--smoke] [--trace FILE]

`run` works in its current directory and reads inputs from ../in. Every
path it hands the package is relative and fixed, so the outputs of two runs
of the same code and seed are byte-identical (the manifest embeds the corpus
path). collide-m times the real command line instead of `run`; `run` is its
traced form, calling the same cli.main in-process.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from rankmobility import cli, corpus, diffusion, disambig, inequality, mobility, pipeline, synth

HERE = Path(__file__).resolve().parent
IN = Path("../in")

# Gates. Precision and recall at M measured 0.9954 and 0.9956.
MIN_PRECISION = 0.90
MIN_RECALL = 0.90
NULL_SLOPE_TOL = 0.02
STOCHASTIC_TOL = 1e-12


class Outcome:
    """What a check of one run's outputs found."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.records = 0
        self.artifacts = 0

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def tree_digest(root: Path, exclude: tuple[str, ...] = ()) -> str:
    """sha256 over every file's relative path and content, in path order."""
    outer = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in exclude:
            continue
        outer.update(rel.encode("utf-8") + b"\0")
        outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _objective_evals(fit: dict) -> int:
    # Grid scan, then golden section: two opening points, one per
    # iteration and one final evaluation at the optimum.
    return fit["grid_points"] + (fit["iterations"] + 3 if fit["converged"] else 0)


def _write_labels(in_dir: Path, corpus_obj, truth: dict) -> None:
    """Truth labels and block membership, for the pairwise F1 check."""
    disambig.write_truth(in_dir / "truth.jsonl", truth)
    blocks = [[m.mention_id for m in members] for members in disambig.block_mentions(corpus_obj).values()]
    (in_dir / "blocks.json").write_text(json.dumps(blocks), encoding="utf-8")


def _check_bundle(out: Outcome, bundle: Path, labels: Path) -> None:
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["counts"]
    out.add("publications", counts["publications"])
    out.add("mentions", counts["mentions"])
    out.add("clusters", counts["clusters"])
    out.records += counts["mentions"]
    out.artifacts += len(manifest["artifacts"])
    skipped = {f"{pipeline.slugify(s['discipline'])}/{s['year']}" for s in manifest["skipped"]}
    reps = manifest["config"]["null_reps"]
    out.add("null_author_reps", sum(n * reps for key, n in manifest["cohort_sizes"].items() if key not in skipped))
    fits = [a for a in manifest["artifacts"] if a.endswith("fit.json")]
    out.gate(bool(fits), f"{bundle}: no fits")
    for rel in fits:
        fit = json.loads((bundle / rel).read_text(encoding="utf-8"))
        out.add("objective_evals", _objective_evals(fit))
        out.gate(fit["converged"], f"{bundle}/{rel}: fit did not converge")

    blocks = json.loads((labels / "blocks.json").read_text(encoding="utf-8"))
    out.add("blocks", len(blocks))
    out.counters["max_block"] = max(out.counters.get("max_block", 0), max(map(len, blocks)))
    out.add("candidate_pairs", sum(len(b) * (len(b) - 1) // 2 for b in blocks))
    result = disambig.evaluate_disambiguation(
        disambig.read_clusters(bundle / "clusters.jsonl"),
        disambig.read_truth(labels / "truth.jsonl"),
        blocks={i: [SimpleNamespace(mention_id=m) for m in b] for i, b in enumerate(blocks)},
    )
    out.gate(result.precision >= MIN_PRECISION, f"{bundle}: precision {result.precision:.4f} < {MIN_PRECISION}")
    out.gate(result.recall >= MIN_RECALL, f"{bundle}: recall {result.recall:.4f} < {MIN_RECALL}")
    for key, value in (("matched", result.matched_pairs), ("predicted", result.predicted_pairs),
                       ("truth", result.truth_pairs)):
        out.quality[key] = out.quality.get(key, 0) + value


def _pairwise_scores(out: Outcome) -> None:
    """Pooled pairwise precision, recall and F1 over every checked bundle."""
    q = out.quality
    precision = q["matched"] / q["predicted"] if q["predicted"] else 1.0
    recall = q["matched"] / q["truth"] if q["truth"] else 1.0
    q["precision"], q["recall"] = precision, recall
    q["f1"] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    q["accuracy"] = q["f1"]


def _write_fit(path: Path, fit, **extra) -> None:
    payload = {"d_star": fit.d_star, "objective": fit.objective, "grid_points": fit.grid_points,
               "iterations": fit.iterations, "converged": fit.converged, **extra}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class Workload:
    """Shape shared by the workloads; `run` executes in a child process."""

    name = ""
    # Set-ups per run. The pipeline workloads' set-ups take 10-15 s, too
    # dear to repeat within the benchmark's time budget.
    setup_reps = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def timed_argv(self) -> list[str]:
        return [sys.executable, str(HERE / "workloads.py"), "run", self.name, str(self.seed)] + (
            ["--smoke"] if self.smoke else []
        )


class CollideM(Workload):
    """The ROADMAP M corpus through one `rankmobility --threads 2 run`."""

    name = "collide-m"
    threads = 2

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.n_authors = 300 if smoke else 5000
        self.null_reps = 10 if smoke else 100
        self.min_cohort = 10 if smoke else 50

    def setup(self, in_dir: Path) -> dict:
        start = perf_counter()
        corpus_obj, truth = synth.generate_corpus(
            synth.SynthConfig(n_authors=self.n_authors, seed=self.seed, name_collision_rate=0.2)
        )
        generated = perf_counter()
        corpus.export(corpus_obj, in_dir / "corpus.jsonl")
        timings = {"setup_s": perf_counter() - start, "synth.generate_s": generated - start, "synth.sample_s": 0.0}
        _write_labels(in_dir, corpus_obj, truth)
        config = {
            "corpus": str(IN / "corpus.jsonl"),
            "disciplines": list(synth.SynthConfig.disciplines),
            "cohort_years": list(range(2000, 2003)),
            "null_reps": self.null_reps,
            "min_cohort_size": self.min_cohort,
            "seed": self.seed,
        }
        (in_dir / "pipeline.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        return timings

    def cli_args(self) -> list[str]:
        return ["--threads", str(self.threads), "run", "--config", str(IN / "pipeline.json"), "--out-dir", "bundle"]

    def timed_argv(self) -> list[str]:
        return [sys.executable, "-m", "rankmobility.cli", *self.cli_args()]

    def run(self) -> int:
        return cli.main(self.cli_args())

    def check(self, rep_dir: Path, in_dir: Path) -> Outcome:
        out = Outcome()
        _check_bundle(out, rep_dir / "bundle", in_dir)
        _pairwise_scores(out)
        return out


class SweepS(Workload):
    """Acceptance-06-style alpha sweep: eight small README sessions."""

    name = "sweep-s"
    alphas = (0.84, 0.90, 0.96, 1.02, 1.08, 1.14, 1.20, 1.26)

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.n_authors = 300 if smoke else 500
        self.sessions = self.alphas[::3] if smoke else self.alphas
        self.min_cohort = 20 if smoke else 50

    def _seed(self, k: int) -> int:
        return len(self.alphas) * self.seed + k

    def setup(self, in_dir: Path) -> dict:
        elapsed = generate = 0.0
        for k, alpha in enumerate(self.sessions):
            session = in_dir / f"s{k}"
            session.mkdir()
            start = perf_counter()
            corpus_obj, truth = synth.generate_corpus(
                synth.SynthConfig(
                    n_authors=self.n_authors, seed=self._seed(k), disciplines=("Chemistry",),
                    start_years=(2000, 2000), alpha=alpha,
                )
            )
            generated = perf_counter()
            corpus.export(corpus_obj, session / "corpus.jsonl")
            elapsed += perf_counter() - start
            generate += generated - start
            _write_labels(session, corpus_obj, truth)
        return {"setup_s": elapsed, "synth.generate_s": generate, "synth.sample_s": 0.0}

    def run(self) -> int:
        for k in range(len(self.sessions)):
            session = Path(f"s{k}")
            session.mkdir()
            canonical = session / "canonical.jsonl"
            corpus.export(corpus.ingest(IN / session / "corpus.jsonl"), canonical)
            config = pipeline.PipelineConfig.from_json(
                {
                    "corpus": str(canonical),
                    "disciplines": ["Chemistry"],
                    "cohort_years": [2000],
                    "filter": {"max_authors": 20},
                    "null_reps": 20,
                    "min_cohort_size": self.min_cohort,
                    "seed": self._seed(k),
                }
            )
            pipeline.run_pipeline(config, session / "bundle")
            pipeline.report_summary(session / "bundle")
        return 0

    def check(self, rep_dir: Path, in_dir: Path) -> Outcome:
        out = Outcome()
        for k in range(len(self.sessions)):
            bundle = rep_dir / f"s{k}" / "bundle"
            _check_bundle(out, bundle, in_dir / f"s{k}")
            out.gate((bundle / "report" / "report.json").is_file(), f"{bundle}: no report")
        _pairwise_scores(out)
        return out


class NullXL(Workload):
    """Eight large sampled rank tables through the numeric layers only."""

    name = "null-xl"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.n_authors = 5000 if smoke else 25000
        self.d_values = np.linspace(0.15, 0.55, 2 if smoke else 8)
        self.null_reps = 50 if smoke else 200
        # At D = 0.1 a 25,000-author table holds about two off-diagonal
        # transitions, so some seeds give an identity matrix and a fit on the
        # bracket edge; from D = 0.15 up every seed tried converged. Fitted D
        # must land near the D it was drawn at: over 40 seeds the largest
        # error in eight tables was 0.0108 (0.0254 for the smoke shape).
        self.d_tol = 0.08 if smoke else 0.025
        # Its set-up takes under a second, where jitter is largest.
        self.setup_reps = 1 if smoke else 5

    def setup(self, in_dir: Path) -> dict:
        elapsed = sample = 0.0
        for k, d in enumerate(self.d_values):
            start = perf_counter()
            table = synth.sample_transitions(float(d), self.n_authors, len(self.d_values) * self.seed + k)
            sampled = perf_counter()
            mobility.write_rank_table_csv(in_dir / f"t{k}.csv", table)
            elapsed += perf_counter() - start
            sample += sampled - start
        return {"setup_s": elapsed, "synth.generate_s": 0.0, "synth.sample_s": sample}

    def run(self) -> int:
        empirical = []
        for k in range(len(self.d_values)):
            out = Path(f"t{k}")
            out.mkdir()
            table = mobility.read_rank_table_csv(IN / f"t{k}.csv")
            matrix = mobility.transition_matrix(table)
            profile = mobility.delta_q_profile(table)
            null = mobility.reshuffle_null(table, n_reps=self.null_reps, seed=np.random.SeedSequence([self.seed, k]))
            fit = diffusion.fit_d(matrix)
            gap = mobility.delta_p(matrix, diffusion.model_matrix(fit.d_star, table.n_bins))
            mobility.write_matrix_csv(out / "transition.csv", matrix.matrix)
            mobility.write_delta_q_csv(out / "delta_q.csv", profile)
            mobility.write_delta_q_csv(out / "null_delta_q.csv", null.profile)
            mobility.write_matrix_csv(out / "null_transition.csv", null.matrix.matrix)
            mobility.write_matrix_csv(out / "delta_p.csv", gap.matrix)
            _write_fit(out / "fit.json", fit, n_authors=len(table), null_reps=null.n_reps,
                       gini_impact2=inequality.gini(table.impact2))
            empirical.append(matrix)
        _write_fit(Path("pooled_fit.json"), diffusion.fit_d_pooled(empirical))
        return 0

    def check(self, rep_dir: Path, in_dir: Path) -> Outcome:
        out = Outcome()
        worst = 0.0
        for k, d in enumerate(self.d_values):
            base = rep_dir / f"t{k}"
            fit = json.loads((base / "fit.json").read_text(encoding="utf-8"))
            out.add("rank_rows", fit["n_authors"])
            out.add("null_author_reps", fit["n_authors"] * fit["null_reps"])
            out.add("objective_evals", _objective_evals(fit))
            out.gate(fit["converged"], f"{base}: fit did not converge")
            error = abs(fit["d_star"] - d)
            worst = max(worst, error)
            out.gate(error <= self.d_tol, f"{base}: fitted D {fit['d_star']:.4f} is {error:.4f} from {d:.4f}")
            null = mobility.read_delta_q_csv(base / "null_delta_q.csv")
            slope = float(np.polyfit(null.deciles.astype(float), null.mean, 1)[0])
            out.gate(abs(slope + 1.0) <= NULL_SLOPE_TOL, f"{base}: null slope {slope:.4f} not within {NULL_SLOPE_TOL} of -1")
            sums = mobility.read_matrix_csv(base / "null_transition.csv").sum(axis=0)
            out.gate(bool(np.abs(sums - 1.0).max() <= STOCHASTIC_TOL), f"{base}: null columns do not sum to 1")
        pooled = json.loads((rep_dir / "pooled_fit.json").read_text(encoding="utf-8"))
        out.add("objective_evals", _objective_evals(pooled))
        out.gate(pooled["converged"], "pooled fit did not converge")
        out.records = out.counters["rank_rows"]
        out.artifacts = sum(1 for p in rep_dir.rglob("*") if p.is_file())
        out.quality["accuracy"] = 1.0 - worst
        return out


WORKLOADS = {w.name: w for w in (CollideM, SweepS, NullXL)}


def main(argv: list[str]) -> int:
    phase, name, seed, *rest = argv
    workload = WORKLOADS[name](int(seed), "--smoke" in rest)
    if phase == "setup":
        in_dir = Path(rest[0])
        in_dir.mkdir(parents=True)
        timings = workload.setup(in_dir)
        (in_dir / "setup.json").write_text(json.dumps(timings), encoding="utf-8")
        return 0
    if "--trace" not in rest:
        return workload.run()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = workload.run()
    finally:
        tracer.uninstall()
    Path(rest[rest.index("--trace") + 1]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
