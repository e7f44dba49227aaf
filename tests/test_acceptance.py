"""Acceptance checks: each test pins one advertised guarantee at its stated
tolerance and runtime budget. Run with -s for one detail line per check."""

import json
import time
from math import sqrt

import numpy as np
import pytest

from rankmobility.corpus import export
from rankmobility.diffusion import fit_d, model_matrix
from rankmobility.disambig import (
    ScoringRuleTable,
    block_mentions,
    disambiguate,
    evaluate_disambiguation,
)
from rankmobility.inequality import gini
from rankmobility.mobility import RankTable, delta_p, reshuffle_null, transition_matrix
from rankmobility.pipeline import PipelineConfig, run_pipeline
from rankmobility.stats import ols_with_band, pearson, t_quantile, two_tailed_p
from rankmobility.synth import SynthConfig, generate_corpus, sample_transitions


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_01_d_recovery_round_trip():
    start = time.perf_counter()
    errors = {}
    for d_true in (0.10, 0.19, 0.22, 0.35):
        table = sample_transitions(d_true, 1_000_000, seed=42)
        fit = fit_d(transition_matrix(table))
        assert fit.converged
        errors[d_true] = abs(fit.d_star - d_true)
        assert errors[d_true] <= 0.01, (d_true, fit.d_star)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS 01 d-recovery: max error {max(errors.values()):.2e} "
          f"(budget 0.01), {elapsed:.1f}s (budget 30s)")


def test_02_model_limits():
    start = time.perf_counter()
    identity_gap = np.abs(model_matrix(1e-6) - np.eye(10)).max()
    uniform_gap = np.abs(model_matrix(1e6) - 0.1).max()
    assert identity_gap <= 1e-9
    assert uniform_gap <= 1e-4
    elapsed = time.perf_counter() - start
    print(f"PASS 02 model-limits: identity gap {identity_gap:.1e} (budget 1e-9), "
          f"uniform gap {uniform_gap:.1e} (budget 1e-4), {elapsed:.2f}s")


def test_03_stochasticity_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst_col = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 301))
        ids = [f"A{k:03d}" for k in range(n)]
        table = RankTable.from_impacts(ids, rng.random(n), rng.random(n))
        matrix = transition_matrix(table)
        worst_col = max(worst_col, float(np.abs(matrix.matrix.sum(axis=0) - 1.0).max()))
        gap = delta_p(matrix, model_matrix(float(rng.uniform(0.05, 5.0))))
        worst_gap = max(worst_gap, float(np.abs(gap.matrix.sum(axis=0)).max()))
    assert worst_col <= 1e-12
    assert worst_gap <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS 03 stochasticity: worst column sum error {worst_col:.1e}, "
          f"worst gap column sum {worst_gap:.1e} (budget 1e-12), "
          f"{elapsed:.1f}s (budget 5s)")


def test_04_null_model_slope():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(7)
    table = RankTable.from_impacts(
        [f"A{k:06d}" for k in range(n)], rng.random(n), rng.random(n)
    )
    null = reshuffle_null(table, n_reps=100, seed=11)
    fit = ols_with_band(null.profile.deciles.astype(float), null.profile.mean)
    assert abs(fit.slope + 1.0) <= 0.02, fit.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS 04 null-slope: slope {fit.slope:.6f} (budget -1 +- 0.02), "
          f"{elapsed:.1f}s (budget 10s)")


def test_05_gini_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        x = rng.random(n)
        brute = float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))
        worst = max(worst, abs(gini(x) - brute))
    assert worst <= 1e-12
    assert gini([3.0, 3.0, 3.0]) == 0.0
    assert gini([0.0, 1.0]) == 0.5
    for n in (2, 10, 100):
        assert gini([0.0] * (n - 1) + [1.0]) == pytest.approx((n - 1) / n, abs=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS 05 gini-oracle: worst gap {worst:.1e} (budget 1e-12), "
          f"{elapsed:.1f}s (budget 5s)")


def test_06_mobility_inequality_anticorrelation(tmp_path):
    start = time.perf_counter()
    alphas = (0.84, 0.90, 0.96, 1.02, 1.08, 1.14, 1.20, 1.26)
    d_values = []
    gini_values = []
    for a_idx, alpha in enumerate(alphas):
        for s_idx in range(5):
            run_seed = 100 * a_idx + s_idx
            corpus, _ = generate_corpus(
                SynthConfig(
                    n_authors=500,
                    seed=run_seed,
                    disciplines=("Chemistry",),
                    start_years=(2000, 2000),
                    alpha=alpha,
                )
            )
            corpus_path = tmp_path / f"corpus_{a_idx}_{s_idx}.jsonl"
            export(corpus, corpus_path)
            config = PipelineConfig.from_json(
                {
                    "corpus": str(corpus_path),
                    "disciplines": ["Chemistry"],
                    "cohort_years": [2000],
                    "null_reps": 20,
                    "min_cohort_size": 100,
                    "seed": run_seed,
                }
            )
            result = run_pipeline(config, tmp_path / f"run_{a_idx}_{s_idx}")
            with (result.out_dir / "summary" / "correlation.json").open() as handle:
                row = json.load(handle)["per_discipline"][0]
            assert row["pooled_converged"], (alpha, run_seed)
            d_values.append(row["pooled_d"])
            gini_values.append(row["mean_gini"])
    corr = pearson(d_values, gini_values)
    assert corr.n == 40
    assert corr.r < -0.5, corr
    assert corr.p < 0.05, corr
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS 06 anticorrelation: r {corr.r:.4f} (budget < -0.5), "
          f"p {corr.p:.2e} (budget < 0.05), {elapsed:.0f}s (budget 300s)")


def test_07_disambiguation_benchmark():
    start = time.perf_counter()
    corpus, truth = generate_corpus(
        SynthConfig(n_authors=420, seed=0, name_collision_rate=0.2)
    )
    assert 9_000 <= len(corpus.mentions) <= 11_000, len(corpus.mentions)
    clusters = disambiguate(corpus, ScoringRuleTable.default())
    result = evaluate_disambiguation(clusters, truth, blocks=block_mentions(corpus))
    assert result.precision >= 0.90, result
    assert result.recall >= 0.90, result
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS 07 disambiguation: precision {result.precision:.3f}, "
          f"recall {result.recall:.3f} (budgets 0.90) on {len(corpus.mentions)} "
          f"mentions, {elapsed:.1f}s (budget 60s)")


def test_08_statistics_layer():
    start = time.perf_counter()
    table_95 = {1: 12.7062, 5: 2.5706, 8: 2.3060, 30: 2.0423, 100: 1.9840}
    table_99 = {1: 63.6567, 5: 4.0321, 8: 3.3554, 30: 2.7500, 100: 2.6259}
    for df, crit in table_95.items():
        assert t_quantile(0.975, df) == pytest.approx(crit, abs=5e-5)
        assert two_tailed_p(crit, df) == pytest.approx(0.05, abs=1e-5)
    for df, crit in table_99.items():
        assert t_quantile(0.995, df) == pytest.approx(crit, abs=5e-5)
        assert two_tailed_p(crit, df) == pytest.approx(0.01, abs=1e-5)

    def pair_with_r(r):
        x = np.arange(10.0)
        xd = x - x.mean()
        u = xd / np.linalg.norm(xd)
        raw = xd**2
        zd = raw - raw.mean()
        zd -= (zd @ u) * u
        v = zd / np.linalg.norm(zd)
        return x, r * u + sqrt(1.0 - r * r) * v

    crossing = 0.632
    x, y = pair_with_r(crossing)
    assert pearson(x, y).p == pytest.approx(0.05, abs=2e-4)
    for r in (0.64, -0.64):
        x, y = pair_with_r(r)
        assert pearson(x, y).p < 0.05
    for r in (0.62, -0.62):
        x, y = pair_with_r(r)
        assert pearson(x, y).p > 0.05
    elapsed = time.perf_counter() - start
    print(f"PASS 08 statistics: critical values to 4 decimals at df 1/5/8/30/100, "
          f"p crosses 0.05 at |r| 0.632 with n 10, {elapsed:.2f}s")


def test_09_end_to_end_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    corpus, _ = generate_corpus(
        SynthConfig(
            n_authors=600,
            seed=20,
            disciplines=("Chemistry", "Biology", "Materials"),
            start_years=(2000, 2001),
            name_collision_rate=0.1,
        )
    )
    corpus_path = tmp_path / "reference.jsonl"
    export(corpus, corpus_path)
    config = PipelineConfig.from_json(
        {
            "corpus": str(corpus_path),
            "disciplines": ["Chemistry", "Biology", "Materials"],
            "cohort_years": [2000, 2001],
            "null_reps": 50,
            "min_cohort_size": 50,
            "seed": 13,
        }
    )
    first = run_pipeline(config, tmp_path / "first")
    second = run_pipeline(config, tmp_path / "second")
    threaded = run_pipeline(config, tmp_path / "threaded", threads=2)
    reference = tree_bytes(first.out_dir)
    assert tree_bytes(second.out_dir) == reference
    assert tree_bytes(threaded.out_dir) == reference
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS 09 determinism: {len(reference)} files byte-identical across "
          f"reruns and thread counts, {elapsed:.1f}s (budget 120s)")
