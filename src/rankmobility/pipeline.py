"""End-to-end pipeline: corpus to report bundle, with a run manifest.

A run ingests (and optionally filters) a corpus, disambiguates authors,
builds one cohort per (discipline, career start year), and writes per-cohort
rank tables, transition matrices, decile-change profiles, reshuffle nulls,
diffusion fits and gap matrices, plus per-discipline Gini series, pooled
fits and trend records, a cross-discipline correlation summary, and a
manifest tying everything together. A cohort below the minimum size, or
whose Gini window impacts are all zero, is skipped and listed in the
manifest with the reason.

Given the same config and seed, a rerun reproduces every artifact byte for
byte; the manifest's created_at honors SOURCE_DATE_EPOCH so even it can be
pinned.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from math import inf
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .cohort import Careers, build_profiles, cohort_impacts
from .corpus import Corpus, CorpusFilterConfig, collector_paused, filter_corpus, ingest
from .csvio import write_csv
from .diffusion import DEFAULT_BRACKET, DEFAULT_GRID_POINTS, DiffusionFit, fit_d, fit_d_pooled, model_matrix
from .disambig import MentionCluster, ScoringRuleTable, disambiguate, write_clusters
from .inequality import cohort_gini_series, write_gini_series_csv
from .jsonio import FilePath, compact, load, plain, read_config, write_json
from .mobility import (
    DeltaPMatrix,
    RankTable,
    TransitionMatrix,
    delta_p,
    delta_q_profile,
    reshuffle_null,
    transition_matrix,
    write_delta_q_csv,
    write_matrix_csv,
    write_rank_table_csv,
)
from .stats import ols_with_band, pearson


class PipelineError(Exception):
    """Configuration or input problems that abort a run."""


@dataclass(frozen=True)
class PipelineConfig:
    corpus: FilePath
    disciplines: tuple[str, ...]
    cohort_years: tuple[int, ...]
    rules: FilePath | None = None
    filter: CorpusFilterConfig | None = None
    null_reps: int = 100
    seed: int = 0
    min_cohort_size: int = 100
    gini_window: int = 1
    fit_bracket: tuple[float, float] = DEFAULT_BRACKET
    fit_grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if not self.disciplines:
            raise PipelineError("config needs at least one discipline")
        if not self.cohort_years:
            raise PipelineError("config needs at least one cohort year")
        if self.null_reps < 1:
            raise PipelineError("null_reps must be at least 1")
        if self.seed < 0:
            raise PipelineError("seed must be nonnegative")
        if self.gini_window not in (1, 2):
            raise PipelineError("gini_window must be 1 or 2")
        if self.min_cohort_size < 10:
            raise PipelineError("min_cohort_size must be at least 10 (decile split)")
        if not 0 < self.fit_bracket[0] < self.fit_bracket[1] < inf:
            raise PipelineError("fit_bracket must satisfy 0 < lo < hi < inf")
        if self.fit_grid_points < 2:
            raise PipelineError("fit_grid_points must be at least 2")
        for key in ("disciplines", "cohort_years"):
            items = getattr(self, key)
            for k, item in enumerate(items):
                if item in items[:k]:
                    raise PipelineError(f"'{key}' lists {item!r} twice")

    @classmethod
    def from_json(cls, source: str | Path | Mapping) -> "PipelineConfig":
        """Read and type-check a config; any problem raises PipelineError."""
        return read_config(cls, source, "pipeline config", PipelineError)

    def canonical_dict(self) -> dict:
        return plain(self)


def config_hash(config: PipelineConfig) -> str:
    return hashlib.sha256(compact(config).encode("utf-8")).hexdigest()


def slugify(label: str) -> str:
    slug = "".join(ch if ch.isalnum() else "-" for ch in label.lower())
    slug = "-".join(part for part in slug.split("-") if part)
    return slug or "x"


def _source_date() -> datetime | None:
    """The moment SOURCE_DATE_EPOCH names, or None when it is unset; a
    value that is not an integer timestamp within datetime's range raises
    PipelineError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise PipelineError(f"SOURCE_DATE_EPOCH is not a valid timestamp: {epoch!r}") from exc


def trend_payload(x: Sequence[float], y: Sequence[float]) -> dict:
    """Correlation plus regression band over a series.

    Raises ValueError when the series is too short (under three points) or
    flat, so that no correlation is defined.
    """
    corr = pearson(x, y)
    reg = ols_with_band(x, y)
    fit, lo, hi = reg.band(x)
    return {
        "n": corr.n,
        "r": corr.r,
        "p": corr.p,
        "slope": reg.slope,
        "intercept": reg.intercept,
        "confidence": reg.confidence,
        "x": list(x),
        "y": list(y),
        "fit": fit,
        "band_low": lo,
        "band_high": hi,
    }


def _trend_or_null(x: Sequence[float], y: Sequence[float]) -> dict | None:
    try:
        return trend_payload(x, y)
    except ValueError:
        return None


@dataclass
class _CohortResult:
    discipline: str
    year: int
    size: int
    table: RankTable | None = None
    empirical: TransitionMatrix | None = None
    fit: DiffusionFit | None = None
    gap: DeltaPMatrix | None = None
    skipped_reason: str | None = None


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    all_converged: bool


@dataclass
class _Bundle:
    """The report directory and what the run's stages have recorded in it."""

    out: Path
    config_hash: str
    slugs: dict[str, str]
    counts: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    all_converged: bool = True

    def path(self, rel: str) -> Path:
        """Where to write artifact rel, which the manifest then lists."""
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.artifacts.append(rel)
        return path


def _analyze_cohort(careers: Careers, discipline: str, year: int, config: PipelineConfig) -> _CohortResult:
    members, impact1, impact2 = cohort_impacts(careers, discipline, year)
    result = _CohortResult(discipline=discipline, year=year, size=len(members))
    if result.size < config.min_cohort_size:
        result.skipped_reason = f"cohort below minimum size ({result.size} < {config.min_cohort_size})"
    elif not any(impact1 if config.gini_window == 1 else impact2):
        result.skipped_reason = f"all window-{config.gini_window} impacts are zero, so the gini is undefined"
    else:
        result.table = RankTable.from_impacts(members, impact1, impact2)
        result.empirical = transition_matrix(result.table)
        result.fit = fit_d(result.empirical, bracket=config.fit_bracket, grid_points=config.fit_grid_points)
        result.gap = delta_p(result.empirical, model_matrix(result.fit.d_star, result.table.n_bins))
    return result


@collector_paused()
def run_pipeline(config: PipelineConfig, out_dir: str | Path, threads: int = 1) -> RunResult:
    """Execute the full analysis and write the report bundle.

    threads (at least 1) sets the number of processes the corpus is ingested
    in (corpus.ingest); no output depends on it. The output directory must
    not already contain files. The bundle is written into a new staging
    directory beside it and renamed onto it only when the run succeeds, so
    a run that fails or is killed leaves no partial bundle there. A failed
    run removes its staging directory. A killed one leaves it behind, and
    the next run into the same directory removes it: a run holds a lock on
    a file in its staging directory while it runs, and removes a sibling
    staging directory only if it can take that lock. The cyclic garbage
    collector is paused for the whole process until the run returns or
    fails, because the corpus stays alive for the whole run; the few
    thousand cyclic objects a run creates are left to the next collection
    (:func:`collector_paused`).
    """
    if threads < 1:
        raise PipelineError("threads must be at least 1")
    source_date = _source_date()
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise PipelineError(f"output directory is not empty: {out}")
    target = out.absolute()
    target.parent.mkdir(parents=True, exist_ok=True)
    _remove_left_staging(target)
    scratch = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    lock = _lock(scratch)
    try:
        # mkdtemp makes a directory only its owner may read; the bundle
        # itself is made by mkdir, with the permissions the umask gives.
        staged = scratch / "bundle"
        staged.mkdir()
        manifest, all_converged = _run(config, staged, threads, source_date)
        os.replace(staged, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        os.close(lock)
    return RunResult(out_dir=out, manifest=manifest, all_converged=all_converged)


# The file in a staging directory that its run holds locked while it runs.
_LOCK_FILE = "run.lock"


def _lock(scratch: Path) -> int:
    """A descriptor holding a lock on scratch's lock file. The file is
    locked before it takes its name, so no other run finds it unlocked."""
    pending = scratch / f"{_LOCK_FILE}.new"
    fd = os.open(pending, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    fcntl.flock(fd, fcntl.LOCK_EX)
    os.rename(pending, scratch / _LOCK_FILE)
    return fd


def _remove_left_staging(target: Path) -> None:
    """Remove each sibling .NAME.* staging directory of target whose lock
    file no run holds; keep everything else."""
    prefix = f".{target.name}."
    for path in target.parent.iterdir():
        if not path.name.startswith(prefix):
            continue
        try:
            fd = os.open(path / _LOCK_FILE, os.O_RDONLY)
        except OSError:
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(path, ignore_errors=True)
        except BlockingIOError:
            pass
        finally:
            os.close(fd)


def _run(config: PipelineConfig, out: Path, threads: int, source_date: datetime | None) -> tuple[dict, bool]:
    bundle = _Bundle(out=out, config_hash=config_hash(config), slugs=_slugs(config.disciplines))
    rules = ScoringRuleTable.from_json(config.rules)
    corpus = _ingest_stage(config, bundle, threads)
    clusters = _disambiguate_stage(rules, corpus, bundle)
    careers = _profiles_stage(corpus, clusters, bundle)
    results = _cohorts_stage(config, careers, bundle)
    _disciplines_stage(config, results, bundle)
    manifest = _manifest_stage(config, results, bundle, source_date)
    return manifest, bundle.all_converged


def _ingest_stage(config: PipelineConfig, bundle: _Bundle, threads: int) -> Corpus:
    corpus = ingest(config.corpus, threads)
    bundle.counts.update(
        lines_read=corpus.stats.lines_read,
        records_accepted=corpus.stats.accepted,
        records_rejected=len(corpus.stats.rejected),
    )
    bundle.warnings.extend(f"rejected line {n}: {reason}" for n, reason in corpus.stats.rejected[:20])
    if config.filter is not None:
        corpus, fstats = filter_corpus(corpus, config.filter)
        bundle.counts["filter_removed"] = fstats.removed
        bundle.counts["filter_by_rule"] = dict(sorted(fstats.by_rule.items()))
    bundle.counts["publications"] = len(corpus)
    bundle.counts["mentions"] = len(corpus.mentions)
    return corpus


def _disambiguate_stage(rules: ScoringRuleTable, corpus: Corpus, bundle: _Bundle) -> list[MentionCluster]:
    clusters = disambiguate(corpus, rules)
    bundle.counts["clusters"] = len(clusters)
    write_clusters(bundle.path("clusters.jsonl"), clusters)
    return clusters


def _profiles_stage(corpus: Corpus, clusters: list[MentionCluster], bundle: _Bundle) -> Careers:
    careers = build_profiles(corpus, clusters)
    bundle.counts["profiles"] = len(careers)
    return careers


def _slugs(disciplines: Sequence[str]) -> dict[str, str]:
    """One directory name per discipline, suffixed when two labels slugify alike."""
    slugs: dict[str, str] = {}
    for d in disciplines:
        slug = base = slugify(d)
        k = 2
        while slug in slugs.values():
            slug = f"{base}-{k}"
            k += 1
        slugs[d] = slug
    return slugs


def _cohorts_stage(config: PipelineConfig, careers: Careers, bundle: _Bundle) -> list[_CohortResult]:
    """Analyze every (discipline, year) cohort, then write the kept ones'
    artifacts in the same order."""
    results = [_analyze_cohort(careers, d, y, config) for d in config.disciplines for y in config.cohort_years]
    for r in results:
        if r.skipped_reason is not None:
            continue
        if not r.fit.converged:
            bundle.all_converged = False
            bundle.warnings.append(
                f"fit did not converge for {r.discipline} {r.year}: optimum at bracket edge {r.fit.d_star}"
            )
        rel = f"{bundle.slugs[r.discipline]}/{r.year}"
        write_rank_table_csv(bundle.path(f"{rel}/rank_table.csv"), r.table)
        write_matrix_csv(bundle.path(f"{rel}/transition.csv"), r.empirical.matrix)
        write_delta_q_csv(bundle.path(f"{rel}/delta_q.csv"), delta_q_profile(r.table))
        null = reshuffle_null(
            r.table,
            n_reps=config.null_reps,
            # SeedSequence takes no negative entry; a year's residue is the
            # year itself for every year from 0 on.
            seed=np.random.SeedSequence([config.seed, zlib.crc32(r.discipline.encode("utf-8")), r.year % 2**64]),
        )
        write_delta_q_csv(bundle.path(f"{rel}/null_delta_q.csv"), null.profile)
        write_matrix_csv(bundle.path(f"{rel}/null_transition.csv"), null.matrix.matrix)
        write_json(
            bundle.path(f"{rel}/fit.json"),
            {
                **plain(r.fit),
                "discipline": r.discipline,
                "start_year": r.year,
                "cohort_size": r.size,
                "config_hash": bundle.config_hash,
            },
        )
        write_matrix_csv(bundle.path(f"{rel}/delta_p.csv"), r.gap.matrix)
    return results


def _disciplines_stage(config: PipelineConfig, results: list[_CohortResult], bundle: _Bundle) -> None:
    """Per discipline: Gini and corner series, pooled fit and trends; then
    the cross-discipline D-versus-Gini summary."""
    points: list[dict] = []
    per_discipline: list[dict] = []
    for discipline, slug in bundle.slugs.items():
        cohorts = sorted(
            (r for r in results if r.discipline == discipline and r.skipped_reason is None),
            key=lambda r: r.year,
        )
        series = cohort_gini_series(
            {r.year: r.table.impact1 if config.gini_window == 1 else r.table.impact2 for r in cohorts},
            min_cohort=config.min_cohort_size,
        )
        write_gini_series_csv(bundle.path(f"{slug}/gini_series.csv"), series)
        write_csv(
            bundle.path(f"{slug}/corner_series.csv"),
            ["year", "top_gap", "bottom_gap"],
            ([str(r.year), repr(float(r.gap.top_gap)), repr(float(r.gap.bottom_gap))] for r in cohorts),
        )

        pooled = None
        if cohorts:
            pooled = fit_d_pooled(
                [r.empirical for r in cohorts], bracket=config.fit_bracket, grid_points=config.fit_grid_points
            )
            if not pooled.converged:
                bundle.all_converged = False
                bundle.warnings.append(f"pooled fit did not converge for {discipline}")
            write_json(
                bundle.path(f"{slug}/pooled_fit.json"),
                {
                    **plain(pooled),
                    "discipline": discipline,
                    "years": [r.year for r in cohorts],
                    "config_hash": bundle.config_hash,
                },
            )

        # Every kept cohort is at least min_cohort_size with some nonzero
        # impact, so the series skips none: its values follow the cohorts.
        years = [float(r.year) for r in cohorts]
        ginis = series.values.tolist()
        trends = {
            "discipline": discipline,
            "config_hash": bundle.config_hash,
            "d_vs_year": _trend_or_null(years, [r.fit.d_star for r in cohorts]),
            "gini_vs_year": _trend_or_null(years, ginis),
            "d_vs_gini": _trend_or_null([r.fit.d_star for r in cohorts], ginis),
            "top_gap_vs_year": _trend_or_null(years, [r.gap.top_gap for r in cohorts]),
            "bottom_gap_vs_year": _trend_or_null(years, [r.gap.bottom_gap for r in cohorts]),
        }
        write_json(bundle.path(f"{slug}/trends.json"), trends)

        per_discipline.append(
            {
                "discipline": discipline,
                "slug": slug,
                "pooled_d": pooled.d_star if pooled else None,
                "pooled_converged": pooled.converged if pooled else None,
                "mean_gini": float(np.mean(series.values)) if len(series.values) else None,
                "n_cohorts": len(cohorts),
            }
        )
        points.extend(
            {"discipline": discipline, "year": r.year, "d_star": r.fit.d_star, "gini": g}
            for r, g in zip(cohorts, ginis, strict=True)
        )

    try:
        corr = pearson([p["d_star"] for p in points], [p["gini"] for p in points])
        correlation = {"r": corr.r, "p": corr.p, "n": corr.n}
    except ValueError:
        correlation = None
    write_json(
        bundle.path("summary/correlation.json"),
        {
            "config_hash": bundle.config_hash,
            "d_vs_gini": correlation,
            "points": points,
            "per_discipline": per_discipline,
        },
    )


def _manifest_stage(
    config: PipelineConfig, results: list[_CohortResult], bundle: _Bundle, source_date: datetime | None
) -> dict:
    """The manifest, created at source_date or, when that is None, now."""
    created = source_date or datetime.now(tz=timezone.utc)
    manifest = {
        "tool": "rankmobility",
        "version": __version__,
        "created_at": created.replace(microsecond=0).isoformat(),
        "config_hash": bundle.config_hash,
        "config": config.canonical_dict(),
        "inputs": {"corpus": config.corpus, "rules": config.rules or "builtin"},
        "seed": config.seed,
        "counts": bundle.counts,
        "cohort_sizes": dict(sorted((f"{bundle.slugs[r.discipline]}/{r.year}", r.size) for r in results)),
        "skipped": [
            {"discipline": r.discipline, "year": r.year, "reason": r.skipped_reason}
            for r in results
            if r.skipped_reason is not None
        ],
        "warnings": bundle.warnings,
        "artifacts": sorted(bundle.artifacts),
    }
    write_json(bundle.out / "manifest.json", manifest)
    return manifest


@dataclass(frozen=True)
class _RankedDiscipline:
    """What report_summary reads of one per_discipline row of a bundle summary."""

    discipline: str
    pooled_d: float | None
    mean_gini: float | None


def _ranked_fields(row: object) -> object:
    """The row's _RankedDiscipline keys; its other keys are not read."""
    if not isinstance(row, dict):
        return row
    return {f.name: row[f.name] for f in fields(_RankedDiscipline) if f.name in row}


def report_summary(bundle_dir: str | Path) -> dict:
    """Rank disciplines by pooled mobility and by average inequality.

    Reads the bundle's summary records, writes ranking CSVs plus a report
    JSON under <bundle>/report/, and returns the report payload. With fewer
    than five disciplines the top/bottom extracts are the full ranking and
    a note says so.
    """
    os.stat(bundle_dir)  # the path as given, since Path("") is the current directory
    bundle = Path(bundle_dir)
    summary_path = bundle / "summary" / "correlation.json"
    if not summary_path.exists():
        raise PipelineError(f"not a report bundle (missing {summary_path})")
    summary = load(summary_path, "report summary", PipelineError)
    if not isinstance(summary, dict) or not isinstance(summary.get("per_discipline"), list):
        raise PipelineError(f"{summary_path} must be a JSON object with a 'per_discipline' list")
    try:
        rows = [
            read_config(_RankedDiscipline, _ranked_fields(r), "per_discipline row", PipelineError)
            for r in summary["per_discipline"]
        ]
    except PipelineError as exc:
        raise PipelineError(f"{summary_path}: {exc}") from None

    mobility = sorted(
        (r for r in rows if r.pooled_d is not None),
        key=lambda r: (-r.pooled_d, r.discipline),
    )
    inequality = sorted(
        (r for r in rows if r.mean_gini is not None),
        key=lambda r: (-r.mean_gini, r.discipline),
    )

    def extract(ranked: list[_RankedDiscipline], key: str) -> dict:
        payload = {
            "ranking": [
                {"rank": i + 1, "discipline": r.discipline, key: getattr(r, key)}
                for i, r in enumerate(ranked)
            ],
            "top5": [r.discipline for r in ranked[:5]],
            "bottom5": [r.discipline for r in ranked[-5:]],
        }
        if len(ranked) < 5:
            payload["note"] = "fewer than five disciplines; extracts cover the full ranking"
        return payload

    report = {
        "config_hash": summary.get("config_hash"),
        "mobility": extract(mobility, "pooled_d"),
        "inequality": extract(inequality, "mean_gini"),
    }
    report_dir = bundle / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_json(report_dir / "report.json", report)
    for name, ranked, key in (
        ("mobility_ranking.csv", mobility, "pooled_d"),
        ("inequality_ranking.csv", inequality, "mean_gini"),
    ):
        write_csv(
            report_dir / name,
            ["rank", "discipline", key],
            ([str(i + 1), r.discipline, repr(float(getattr(r, key)))] for i, r in enumerate(ranked)),
        )
    return report
