"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .cohort import build_profiles, cohort_impacts, population_impacts
from .corpus import CorpusError, CorpusFilterConfig, collector_paused, export, filter_corpus, ingest
from .csvio import finite_float, read_csv
from .diffusion import fit_d, fit_d_pooled
from .disambig import (
    DisambigError,
    ScoringRuleTable,
    block_mentions,
    disambiguate,
    evaluate_disambiguation,
    read_clusters,
    read_truth,
    write_clusters,
    write_truth,
)
from .inequality import DEFAULT_MIN_COHORT, cohort_gini_series, gini, write_gini_series_csv
from .mobility import (
    RankTable,
    delta_q_profile,
    read_matrix_csv,
    read_rank_table_csv,
    reshuffle_null,
    transition_matrix,
    write_delta_q_csv,
    write_matrix_csv,
    write_rank_table_csv,
)
from .jsonio import dumps, undecodable, write_json
from .pipeline import PipelineConfig, PipelineError, report_summary, run_pipeline, trend_payload
from .stats import welch_ttest
from .synth import SynthConfig, generate_corpus, sample_transitions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _print_json(payload) -> None:
    sys.stdout.write(dumps(payload))


def _parse_year_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        if int(lo) <= int(hi):
            return (int(lo), int(hi))
    except ValueError:
        pass
    raise _UsageError(f"expected a year range like 1986:2018, first year not after last, got {text!r}")


def cmd_ingest(args) -> int:
    corpus = ingest(args.in_path, args.threads)
    export(corpus, args.out)
    _print_json(
        {
            "lines_read": corpus.stats.lines_read,
            "accepted": corpus.stats.accepted,
            "rejected": len(corpus.stats.rejected),
            "rejected_detail": [
                {"line": line, "reason": reason} for line, reason in corpus.stats.rejected[:50]
            ],
        }
    )
    return EXIT_OK


def cmd_filter(args) -> int:
    disciplines = None
    if args.disciplines is not None:
        with open(args.disciplines, "r", encoding="utf-8") as handle:
            try:
                disciplines = frozenset(line.strip() for line in handle if line.strip())
            except UnicodeDecodeError as exc:
                raise ValueError(f"disciplines file {args.disciplines}, {undecodable(handle, exc)}") from None
    config = CorpusFilterConfig(
        max_authors=args.max_authors,
        year_range=_parse_year_range(args.years) if args.years else None,
        disciplines=disciplines,
    )
    corpus = ingest(args.in_path, args.threads)
    filtered, stats = filter_corpus(corpus, config)
    export(filtered, args.out)
    _print_json({"kept": stats.kept, "removed": stats.removed, "by_rule": stats.by_rule})
    return EXIT_OK


def cmd_disambiguate(args) -> int:
    rules = ScoringRuleTable.from_json(args.rules)
    corpus = ingest(args.corpus, args.threads)
    clusters = disambiguate(corpus, rules)
    write_clusters(args.out, clusters)
    _print_json({"mentions": len(corpus.mentions), "clusters": len(clusters)})
    return EXIT_OK


def cmd_disambig_eval(args) -> int:
    clusters = read_clusters(args.pred)
    truth = read_truth(args.truth)
    blocks = block_mentions(ingest(args.corpus, args.threads)) if args.corpus is not None else None
    _print_json(evaluate_disambiguation(clusters, truth, blocks=blocks))
    return EXIT_OK


def cmd_cohort(args) -> int:
    clusters = read_clusters(args.clusters)
    careers = build_profiles(ingest(args.corpus, args.threads), clusters)
    members, impact1, impact2 = cohort_impacts(careers, args.discipline, args.start_year)
    table = RankTable.from_impacts(members, impact1, impact2)
    write_rank_table_csv(args.out, table)
    _print_json({"discipline": args.discipline, "start_year": args.start_year, "size": len(members)})
    return EXIT_OK


def cmd_mobility(args) -> int:
    table = read_rank_table_csv(args.cohort)
    matrix = transition_matrix(table)
    write_matrix_csv(args.out, matrix.matrix)
    if args.delta_q_out is not None:
        write_delta_q_csv(args.delta_q_out, delta_q_profile(table))
    payload = {"n_authors": len(table), "uniform_columns": list(matrix.uniform_columns)}
    _print_json(payload)
    return EXIT_OK


def cmd_null(args) -> int:
    table = read_rank_table_csv(args.cohort)
    null = reshuffle_null(table, n_reps=args.reps, seed=args.seed if args.seed is not None else 0)
    write_delta_q_csv(args.out, null.profile)
    if args.matrix_out is not None:
        write_matrix_csv(args.matrix_out, null.matrix.matrix)
    _print_json({"n_authors": len(table), "reps": null.n_reps})
    return EXIT_OK


def _report_fit(args, fit, failure: str) -> int:
    if args.out is not None:
        write_json(args.out, fit)
    _print_json(fit)
    if not fit.converged:
        print(f"{failure}: optimum at bracket edge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_fit_d(args) -> int:
    return _report_fit(args, fit_d(read_matrix_csv(args.matrix)), "fit did not converge")


def cmd_fit_d_pooled(args) -> int:
    fit = fit_d_pooled([read_matrix_csv(p) for p in args.matrices])
    return _report_fit(args, fit, "pooled fit did not converge")


def cmd_gini(args) -> int:
    table = read_rank_table_csv(args.cohort)
    values = table.impact1 if args.window == 1 else table.impact2
    _print_json({"gini": gini(values), "n": len(table), "window": args.window})
    return EXIT_OK


def cmd_gini_series(args) -> int:
    lo, hi = _parse_year_range(args.years)
    clusters = read_clusters(args.clusters)
    careers = build_profiles(ingest(args.corpus, args.threads), clusters)
    impacts = {}
    for year in range(lo, hi + 1):
        if args.mode == "population":
            impacts[year] = population_impacts(careers, args.discipline, year)
        else:
            _, impact1, impact2 = cohort_impacts(careers, args.discipline, year)
            impacts[year] = impact1 if args.window == 1 else impact2
    series = cohort_gini_series(impacts, min_cohort=args.min_size)
    write_gini_series_csv(args.out, series)
    _print_json(
        {
            "discipline": args.discipline,
            "mode": args.mode,
            "points": len(series.years),
            "skipped_years": list(series.skipped),
        }
    )
    return EXIT_OK


def cmd_trend(args) -> int:
    rows = list(read_csv(args.series, "series", parse=lambda row: [finite_float(v) for v in row[:2]]))
    if rows and len(rows[0]) < 2:
        raise ValueError(f"series file needs an x and a y column: {args.series}")
    payload = trend_payload([r[0] for r in rows], [r[1] for r in rows])
    if args.out is not None:
        write_json(args.out, payload)
    _print_json({k: payload[k] for k in ("n", "r", "p", "slope", "intercept")})
    return EXIT_OK


def _read_column(path: str) -> list[float]:
    return list(read_csv(path, "sample", parse=lambda row: finite_float(row[0])))


def cmd_compare(args) -> int:
    _print_json(welch_ttest(_read_column(args.a), _read_column(args.b)))
    return EXIT_OK


def cmd_synth_corpus(args) -> int:
    config = SynthConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    corpus, truth = generate_corpus(config)
    export(corpus, args.out)
    truth_out = str(Path(args.out).with_suffix("")) + ".truth.jsonl" if args.truth_out is None else args.truth_out
    write_truth(truth_out, truth)
    _print_json(
        {
            "publications": len(corpus),
            "mentions": len(corpus.mentions),
            "authors": len(set(truth.values())),
            "corpus": args.out,
            "truth": truth_out,
        }
    )
    return EXIT_OK


def cmd_synth_transitions(args) -> int:
    seed = args.seed if args.seed is not None else 0
    table = sample_transitions(args.d, args.n, seed)
    write_rank_table_csv(args.out, table)
    _print_json({"n_authors": len(table), "d": args.d, "out": args.out})
    return EXIT_OK


def cmd_run(args) -> int:
    if not args.config:
        raise _UsageError("run requires --config")
    config = PipelineConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if not args.out_dir:
        raise _UsageError("run requires --out-dir")
    result = run_pipeline(config, args.out_dir, threads=args.threads)
    _print_json(
        {
            "out_dir": str(result.out_dir),
            "config_hash": result.manifest["config_hash"],
            "warnings": len(result.manifest["warnings"]),
            "skipped": len(result.manifest["skipped"]),
        }
    )
    if not result.all_converged:
        print("one or more fits did not converge (see manifest warnings)", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_report(args) -> int:
    report = report_summary(args.bundle)
    _print_json(report)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rankmobility", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="seed override where applicable")
    parser.add_argument("--threads", type=int, default=1, help="processes a corpus is ingested in")
    parser.add_argument("--out-dir", default=None, help="output directory for run")
    parser.add_argument("--config", default=None, help="config file for run")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate and canonicalize a corpus file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("filter", help="apply retention rules to a corpus store")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-authors", type=int, default=20)
    p.add_argument("--years", default=None, help="inclusive range like 1986:2018")
    p.add_argument("--disciplines", default=None, help="file with one allowed label per line")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("disambiguate", help="cluster author mentions into identities")
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules", default=None, help="scoring rule table JSON (default: builtin)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_disambiguate)

    p = sub.add_parser("disambig-eval", help="pairwise precision/recall against truth labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--corpus", default=None, help="restrict truth pairs to blocks of this corpus")
    p.set_defaults(handler=cmd_disambig_eval)

    p = sub.add_parser("cohort", help="build a cohort rank table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--discipline", required=True)
    p.add_argument("--start-year", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_cohort)

    p = sub.add_parser("mobility", help="transition matrix (and decile-change profile)")
    p.add_argument("--cohort", required=True, help="rank table CSV")
    p.add_argument("--out", required=True, help="transition matrix CSV")
    p.add_argument("--delta-q-out", default=None)
    p.set_defaults(handler=cmd_mobility)

    p = sub.add_parser("null", help="reshuffled-impact null model")
    p.add_argument("--cohort", required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--out", required=True, help="null decile-change CSV")
    p.add_argument("--matrix-out", default=None)
    p.set_defaults(handler=cmd_null)

    p = sub.add_parser("fit-d", help="calibrate the diffusion coefficient")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_fit_d)

    p = sub.add_parser("fit-d-pooled", help="one diffusion coefficient over several matrices")
    p.add_argument("--matrices", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_fit_d_pooled)

    p = sub.add_parser("gini", help="Gini coefficient of a cohort's impacts")
    p.add_argument("--cohort", required=True)
    p.add_argument("--window", type=int, choices=(1, 2), default=1)
    p.set_defaults(handler=cmd_gini)

    p = sub.add_parser("gini-series", help="Gini per year for a discipline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--discipline", required=True)
    p.add_argument("--mode", choices=("cohort", "population"), default="cohort")
    p.add_argument("--years", required=True, help="inclusive range like 2000:2008")
    p.add_argument("--window", type=int, choices=(1, 2), default=1)
    p.add_argument("--min-size", type=int, default=DEFAULT_MIN_COHORT)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gini_series)

    p = sub.add_parser("trend", help="correlation and regression band for an x,y series")
    p.add_argument("--series", required=True, help="CSV with x and y columns")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_trend)

    p = sub.add_parser("compare", help="Welch t-test between two samples")
    p.add_argument("--a", required=True, help="CSV, first column")
    p.add_argument("--b", required=True, help="CSV, first column")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("synth", help="synthetic data generators")
    synth_sub = p.add_subparsers(dest="synth_command", metavar="WHAT")
    # SUPPRESS keeps a --seed given before the subcommand, as for run below.
    ps = synth_sub.add_parser("corpus", help="generate a corpus with ground-truth labels")
    ps.add_argument("--config", required=True)
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ps.add_argument("--out", required=True)
    ps.add_argument("--truth-out", default=None)
    ps.set_defaults(handler=cmd_synth_corpus)
    ps = synth_sub.add_parser("transitions", help="sample a rank table from the diffusion kernel")
    ps.add_argument("--d", type=float, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ps.add_argument("--out", required=True)
    ps.set_defaults(handler=cmd_synth_transitions)

    p = sub.add_parser("run", help="full pipeline to a report bundle")
    # Also accepted before the subcommand; SUPPRESS keeps the earlier value
    # when the flag is not repeated here.
    p.add_argument("--config", default=argparse.SUPPRESS)
    p.add_argument("--out-dir", default=argparse.SUPPRESS)
    p.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("report", help="discipline rankings from a report bundle")
    p.add_argument("--bundle", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise _UsageError("--threads must be at least 1")
        if args.seed is not None and args.seed < 0:
            raise _UsageError("--seed must be nonnegative")
        if not getattr(args, "handler", None):
            if getattr(args, "command", None) == "synth":
                raise _UsageError("synth needs a subcommand: corpus or transitions")
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        if args.seed is not None and args.command not in ("null", "synth", "run"):
            raise _UsageError("--seed applies only to null, synth corpus, synth transitions and run")
        # A command keeps what it reads alive while it works on it, so the
        # collector stays off for all of it, not only for its ingest.
        with collector_paused():
            return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, DisambigError, PipelineError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
