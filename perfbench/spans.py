"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records a span (name, start, end, parent, thread). Spans
are kept in memory and written out once, when the traced run ends. Hot leaf
calls (name normalization makes several hundred thousand at M) are
aggregated by (name, parent) into a count and a total instead.

Span stacks are thread-local, because the pipeline runs its cohort jobs on a
thread pool. A span opened on a pool thread whose own stack is empty takes
as parent the innermost open span of the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import resource
import threading
from time import perf_counter

BIG_BLOCK = 200


def _n_mentions(args, kwargs, result):
    return len(result.mentions)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _cohort_members(args, kwargs, result):
    return len(result[0])


def _null_author_reps(args, kwargs, result):
    return len(args[0]) * result.n_reps


# (module path, attribute, span name, count, kind). Functions are wrapped at
# the module attribute their callers look up, so a function imported by name
# into rankmobility.pipeline is wrapped there as well as at its home module.
# kind "leaf" aggregates calls; kind "rss" also records peak RSS at span end.
WRAPS = (
    ("rankmobility.cli", "run_pipeline", "pipeline.run", None, None),
    ("rankmobility.pipeline", "run_pipeline", "pipeline.run", None, None),
    ("rankmobility.pipeline", "report_summary", "pipeline.report", None, None),
    ("rankmobility.corpus", "ingest", "corpus.ingest", _n_mentions, "rss"),
    ("rankmobility.pipeline", "ingest", "corpus.ingest", _n_mentions, "rss"),
    ("rankmobility.pipeline", "filter_corpus", "corpus.filter", None, None),
    ("rankmobility.corpus", "export", "corpus.export", None, None),
    ("rankmobility.corpus", "normalize_text", "names.normalize_text", None, "leaf"),
    ("rankmobility.corpus", "parse_name", "names.parse_name", None, "leaf"),
    ("rankmobility.pipeline", "disambiguate", "disambig.disambiguate", _result_len, "rss"),
    ("rankmobility.disambig", "block_mentions", "disambig.block", None, None),
    ("rankmobility.disambig", "cluster_block", "disambig.cluster_block", _first_arg_len, None),
    ("rankmobility.pipeline", "build_profiles", "cohort.profiles", _result_len, None),
    ("rankmobility.pipeline", "cohort_impacts", "cohort.impacts", _cohort_members, None),
    ("rankmobility.mobility.RankTable", "from_impacts", "mobility.rank", None, None),
    ("rankmobility.pipeline", "transition_matrix", "mobility.transition", None, None),
    ("rankmobility.mobility", "transition_matrix", "mobility.transition", None, None),
    ("rankmobility.pipeline", "delta_q_profile", "mobility.transition", None, None),
    ("rankmobility.mobility", "delta_q_profile", "mobility.transition", None, None),
    ("rankmobility.pipeline", "delta_p", "mobility.transition", None, None),
    ("rankmobility.mobility", "delta_p", "mobility.transition", None, None),
    ("rankmobility.pipeline", "reshuffle_null", "mobility.null", _null_author_reps, None),
    ("rankmobility.mobility", "reshuffle_null", "mobility.null", _null_author_reps, None),
    ("rankmobility.pipeline", "write_rank_table_csv", "mobility.csv_write", None, None),
    ("rankmobility.pipeline", "write_matrix_csv", "mobility.csv_write", None, None),
    ("rankmobility.mobility", "write_matrix_csv", "mobility.csv_write", None, None),
    ("rankmobility.pipeline", "write_delta_q_csv", "mobility.csv_write", None, None),
    ("rankmobility.mobility", "write_delta_q_csv", "mobility.csv_write", None, None),
    ("rankmobility.mobility", "read_rank_table_csv", "mobility.csv_read", None, None),
    ("rankmobility.pipeline", "fit_d", "diffusion.fit", None, None),
    ("rankmobility.diffusion", "fit_d", "diffusion.fit", None, None),
    ("rankmobility.pipeline", "fit_d_pooled", "diffusion.pooled_fit", None, None),
    ("rankmobility.diffusion", "fit_d_pooled", "diffusion.pooled_fit", None, None),
    ("rankmobility.pipeline", "cohort_gini_series", "inequality.gini_series", None, None),
    ("rankmobility.inequality", "gini", "inequality.gini", None, None),
    ("rankmobility.pipeline", "pearson", "stats.trend", None, None),
    ("rankmobility.pipeline", "ols_with_band", "stats.trend", None, None),
)


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[int] = []
        self.leaves: dict[tuple[str, int | None], list] = {}


class Tracer:
    """Collects spans from wrapped functions; install() before the run."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._spans: list[tuple] = []
        self._saved: list[tuple] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _parent(self, state: _ThreadState) -> int | None:
        if state.stack:
            return state.stack[-1]
        main = self._main
        if main is None or main is state:
            return None
        top = main.stack[-1:]  # one read: the main thread may pop meanwhile
        return top[0] if top else None

    def wrap(self, fn, name: str, count=None, kind: str | None = None):
        if kind == "leaf":
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                state = self._state()
                parent = self._parent(state)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    slot = state.leaves.get((name, parent))
                    if slot is None:
                        state.leaves[(name, parent)] = [1, elapsed]
                    else:
                        slot[0] += 1
                        slot[1] += elapsed
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            parent = self._parent(state)
            span_id = next(self._ids)
            state.stack.append(span_id)
            n = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                state.stack.pop()
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if kind == "rss" else None
                self._spans.append((span_id, name, parent, state.ident, start, end, n, rss_kb))
        return span

    def install(self) -> None:
        self._main = self._state()
        for module_path, attr, name, count, kind in WRAPS:
            owner = _resolve(module_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                bound = getattr(owner, attr)
                setattr(owner, attr, staticmethod(self.wrap(bound, name, count, kind)))
            else:
                setattr(owner, attr, self.wrap(original, name, count, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self) -> dict:
        """Spans and aggregated leaves as plain JSON-ready data."""
        leaves = [
            [name, parent, slot[0], slot[1]]
            for state in self._states
            for (name, parent), slot in state.leaves.items()
        ]
        spans = [list(s) for s in sorted(self._spans)]
        return {"main_thread": self._main.ident if self._main else None, "spans": spans, "leaves": leaves}


def _resolve(path: str):
    """Import a module, or a class inside one ("pkg.module.Class")."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module_path), cls)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class TraceSummary:
    """Durations, self times and counts per span name from a dumped trace.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (a union, since pool threads overlap) minus the time
    of its aggregated leaf calls. A leaf's self time is its total.
    """

    def __init__(self, dumped: dict):
        self.main_thread = dumped["main_thread"]
        self.spans = [tuple(s) for s in dumped["spans"]]
        self.leaves = [tuple(x) for x in dumped["leaves"]]
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        leaf_time: dict[int, float] = {}
        for _, parent, _, total in self.leaves:
            if parent is not None:
                leaf_time[parent] = leaf_time.get(parent, 0.0) + total
        self.self_time: dict[int, float] = {}
        for span_id, _, _, _, start, end, _, _ in self.spans:
            covered = _union_length(children.get(span_id, [])) + leaf_time.get(span_id, 0.0)
            self.self_time[span_id] = max(0.0, end - start - covered)

    def of(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def duration(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.of(name))

    def self_s(self, name: str) -> float:
        return sum(self.self_time[s[0]] for s in self.of(name))

    def count_sum(self, name: str) -> int:
        return sum(s[6] or 0 for s in self.of(name))

    def peak_rss_mb(self, name: str) -> float:
        return max((s[7] / 1024.0 for s in self.of(name) if s[7] is not None), default=0.0)

    def leaf_calls(self, prefix: str) -> int:
        return sum(calls for name, _, calls, _ in self.leaves if name.startswith(prefix))

    def leaf_time(self, prefix: str) -> float:
        return sum(total for name, _, _, total in self.leaves if name.startswith(prefix))

    def root_time(self) -> float:
        """Time covered by top-level spans of the installing thread."""
        return _union_length(
            [(s[4], s[5]) for s in self.spans if s[2] is None and s[3] == self.main_thread]
        )

    def accounting(self, root_name: str = "pipeline.run") -> tuple[float, float]:
        """(sum of self times in the root spans' subtrees, root duration)."""
        parent_of = {s[0]: s[2] for s in self.spans}
        roots = {s[0] for s in self.of(root_name)}

        def under_root(span_id):
            while span_id is not None:
                if span_id in roots:
                    return True
                span_id = parent_of.get(span_id)
            return False

        total = sum(t for span_id, t in self.self_time.items() if under_root(span_id))
        total += sum(t for _, parent, _, t in self.leaves if under_root(parent))
        return total, self.duration(root_name)

    def blocks(self) -> tuple[int, int, int]:
        """(blocks, largest block, candidate pairs) from cluster_block spans."""
        sizes = [s[6] for s in self.of("disambig.cluster_block")]
        return len(sizes), max(sizes, default=0), sum(n * (n - 1) // 2 for n in sizes)

    def big_block_share(self) -> float:
        spans = self.of("disambig.cluster_block")
        total = sum(s[5] - s[4] for s in spans)
        big = sum(s[5] - s[4] for s in spans if s[6] >= BIG_BLOCK)
        return big / total if total > 0 else 0.0
