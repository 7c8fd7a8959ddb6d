"""Spans around the program's public functions, recorded from outside it.

Nothing inside the package is edited.  Each traced function is replaced,
while a request runs, by a wrapper that records a span (name, request id,
parent span, start, end) plus counts read from its arguments and return
value.  A function is replaced at every place it is bound: the module that
defines it and every ``dublo`` module that imported it by name (for example
``optimizer`` does ``from .spectral import perron``), so no call slips past.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("req", "sid", "parent", "name", "start", "end", "attrs")

    def __init__(self, req, sid, parent, name):
        self.req = req
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._req = None
        self._sites: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ wrapping

    def target(self, name: str, owner, attr: str, counts=None) -> None:
        """Trace ``owner.attr`` under span ``name`` wherever it is bound.

        ``counts(args, kwargs, result)`` returns the span's count attributes.
        """
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, counts)
        owners = [owner] + [
            mod
            for key, mod in list(sys.modules.items())
            if (key == "dublo" or key.startswith("dublo.")) and mod is not owner
        ]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._sites.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                tracer._close(span)
            if counts is not None:
                span.attrs.update(counts(args, kwargs, result))
            return result

        return wrapper

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._req, len(self.spans) + len(self._stack), parent, name)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def request(self, req_id, root_name: str = "cli.main"):
        """Patch every site, run one request under a root span, then restore."""
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)
        self._req = req_id
        root = self._open(root_name)
        try:
            yield root
        finally:
            self._close(root)
            for owner, key, original, _ in self._sites:
                setattr(owner, key, original)
            self._req = None


def install_targets(tracer: Tracer) -> None:
    """The public functions of every measured module, with their counts."""
    from dublo import cli, doubling, exactlp, families, graphs, optimizer, spectral, symmetry

    def arg(args, kwargs, i, key):
        return args[i] if len(args) > i else kwargs[key]

    tracer.target("graphs.parse", graphs, "parse_graph6")
    tracer.target("graphs.parse", graphs, "parse_edge_list")
    tracer.target("graphs.distances", graphs, "distances")
    tracer.target("families.generate", families, "generate")
    tracer.target(
        "spectral.perron", spectral, "perron", lambda a, k, r: {"iterations": r.iterations}
    )
    tracer.target(
        "doubling.report",
        doubling,
        "doubling_report",
        lambda a, k, r: {"exact": arg(a, k, 2, "mu").is_exact},
    )
    tracer.target(
        "symmetry.orbit_partition",
        symmetry,
        "orbit_partition",
        lambda a, k, r: {"classes": len(r.orbits), "n": arg(a, k, 0, "g").n},
    )
    tracer.target("symmetry.is_vertex_transitive", symmetry, "is_vertex_transitive")
    tracer.target(
        "optimizer.least_doubling",
        optimizer,
        "least_doubling",
        lambda a, k, r: {
            "lp_solves": r.method_notes["lp_solves"],
            "shortcut": bool(r.method_notes["diam2_shortcut"]),
        },
    )
    tracer.target("optimizer.lemachorra", optimizer, "check_lemachorra")
    tracer.target(
        "optimizer.lp",
        optimizer.FeasibilityProblem,
        "check",
        lambda a, k, r: {
            "rows": a[0].reduced_rows,
            "cols": a[0].n_vars,
            "feasible": r is not None,
        },
    )
    tracer.target(
        "optimizer.lp_exact",
        optimizer.FeasibilityProblem,
        "check_exact",
        lambda a, k, r: {"rows": a[0].reduced_rows},
    )
    tracer.target(
        "exactlp.simplex",
        exactlp,
        "feasible_min_one",
        lambda a, k, r: {"rows": len(arg(a, k, 0, "A")), "success": r is not None},
    )
    # the CLI's own stages; cmd_* stay unwrapped, so their payload assembly
    # counts as uncovered time of the root span
    tracer.target("cli.parser", cli, "build_parser")
    tracer.target("cli.config", cli, "build_config")
    tracer.target("cli.read_graph", cli, "read_graph")
    tracer.target("cli.batch_row", cli, "_batch_row")
    tracer.target("cli.emit", cli, "emit")


# ---------------------------------------------------------------- metrics

# span names whose self time is reported, the dominant-layer candidates
SELF_TIME_LAYERS = (
    "symmetry.orbit_partition",
    "optimizer.lp",
    "optimizer.lp_exact",
    "optimizer.least_doubling",
    "optimizer.lemachorra",
    "exactlp.simplex",
    "spectral.perron",
    "doubling.report",
    "graphs.distances",
    "graphs.parse",
    "families.generate",
    "cli",
    "cli.emit",
)


def unit_of(metric: str) -> str:
    if metric.endswith(("self_ms", "ms_per_solve")):
        return "ms"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(("frac", "coverage", "classes_per_vertex")):
        return "frac"
    return "count"


def self_times(spans: list[Span]) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.sid: s.duration - child[s.sid] for s in spans}


def layer_metrics(spans: list[Span], requests: int, emitted_bytes: float) -> dict[str, float]:
    """Per-request means of self time (ms) and counts, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        # the CLI layer's own work is every cli.* span except output
        key = "cli" if s.name.startswith("cli.") and s.name != "cli.emit" else s.name
        by_name[key].append(s)

    def self_ms(name):
        return 1000.0 * sum(own[s.sid] for s in by_name[name]) / requests

    def per_req(name, pred=None):
        return sum(1 for s in by_name[name] if pred is None or pred(s)) / requests

    def mean(name, key, fn=None):
        vals = [fn(s) if fn else s.attrs[key] for s in by_name[name] if key in s.attrs]
        return sum(vals) / len(vals) if vals else 0.0

    lp = by_name["optimizer.lp"]
    m = {f"{name}.self_ms": self_ms(name) for name in SELF_TIME_LAYERS}
    m.update(
        {
            "symmetry.orbit_partition.calls_per_req": per_req("symmetry.orbit_partition"),
            "symmetry.classes_per_vertex": mean(
                "symmetry.orbit_partition", "classes", lambda s: s.attrs["classes"] / s.attrs["n"]
            ),
            "optimizer.lp.solves_per_req": per_req("optimizer.lp"),
            "optimizer.lp.ms_per_solve": (
                1000.0 * sum(s.duration for s in lp) / len(lp) if lp else 0.0
            ),
            "optimizer.lp.feasible_frac": mean("optimizer.lp", "feasible"),
            "optimizer.lp.rows_mean": mean("optimizer.lp", "rows"),
            "optimizer.lp.cols_mean": mean("optimizer.lp", "cols"),
            "optimizer.shortcut_frac": mean("optimizer.least_doubling", "shortcut"),
            "exactlp.simplex.calls_per_req": per_req("exactlp.simplex"),
            "exactlp.simplex.rows_mean": mean("exactlp.simplex", "rows"),
            "exactlp.simplex.success_frac": mean("exactlp.simplex", "success"),
            "spectral.perron.calls_per_req": per_req("spectral.perron"),
            "spectral.perron.iterations": mean("spectral.perron", "iterations"),
            "doubling.report.calls_per_req": per_req("doubling.report"),
            "doubling.report.exact_calls_per_req": per_req(
                "doubling.report", lambda s: s.attrs.get("exact")
            ),
            "graphs.distances.calls_per_req": per_req("graphs.distances"),
            "cli.emit.bytes": emitted_bytes,
        }
    )
    # share of request wall time inside some span below the request's root
    roots = [s for s in by_name["cli"] if s.name == "cli.main"]
    wall = sum(s.duration for s in roots)
    m["trace.coverage"] = 1.0 - sum(own[s.sid] for s in roots) / wall if wall else 0.0
    return m
