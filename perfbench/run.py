"""dublo benchmark: seeded workloads through the CLI, answer checks, metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One client sends requests in a closed loop: each request is an in-process
call of ``dublo.cli.main`` with a graph6 record on stdin or a family name,
sent only after the previous one returned.  The loop runs for ``--seconds``
and at least ``MIN_REQUESTS`` requests.  Every answer is then checked by
code that shares nothing with the program (see checks.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each input
once untraced and once traced (alternating which goes first), reports the
per-layer metrics from spans recorded around the program's public functions
(see tracer.py), the tracing overhead, input properties read from the trace,
and reproduces a few fixed reference cases.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracer as tracing
from workloads import (
    WARMUP_ARGV,
    WORKLOADS,
    Request,
    adjacency,
    build_pool,
    e_tree,
    family_request,
    path,
    three_legs,
)

MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 3
POOL_BLOCKS = 60  # far more than one run gets through
CHILD_TIMEOUT_S = 120

# A fresh interpreter: import the CLI, answer one request, exit with its code.
CHILD = """
import io, sys
sys.path.insert(0, sys.argv[1])
import dublo.cli
sys.stdin = io.StringIO(sys.argv[2])
sys.exit(dublo.cli.main(sys.argv[3:]))
"""

PREDICTED_DOMINANT = {
    "corpus": "optimizer.lp",
    "symmetric": "symmetry.orbit_partition",
    "certificate": "exactlp.simplex",
}


@dataclass(frozen=True)
class Outcome:
    seconds: float
    rc: int | None
    out: str
    error: str | None  # None when the request exited 0


def call(main, argv: list[str], stdin: str) -> Outcome:
    """One in-process CLI request, stdout captured, wall time measured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    error = None
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed request
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return Outcome(seconds, rc, out.getvalue(), error)


def child(src: Path, argv: list[str], stdin: str) -> tuple[float, int]:
    """Run one CLI request in a fresh interpreter; returns (seconds, exit code)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), stdin, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - start, proc.returncode


def fetch_named(main, family: str, n: int, degree: int, diam: int):
    """Edge list of a named family graph the benchmark does not rebuild itself.

    The program's own generator supplies the labelling; the invariants that
    pin the graph (order, regularity, diameter) are checked here.
    """
    got = call(main, ["family", "--family", family, "--emit", "g6"], "")
    if got.error:
        raise RuntimeError(f"family {family}: {got.error}")
    record = json.loads(got.out)["graph"]
    adj = decode_graph6(record)
    facts = checks.Facts(len(adj), adj)
    if facts.n != n or {len(a) for a in adj} != {degree} or facts.diam != diam:
        raise RuntimeError(f"family {family} does not have the expected invariants")
    return adj


def decode_graph6(record: str) -> list[list[int]]:
    """Adjacency lists of a graph6 record with the one-byte header (n <= 62)."""
    n = ord(record[0]) - 63
    bits = [(ord(c) - 63) >> s & 1 for c in record[1:] for s in range(5, -1, -1)]
    pairs = [(r, c) for c in range(1, n) for r in range(c)]
    return adjacency(n, [p for p, b in zip(pairs, bits) if b])


def named_factories(main) -> dict:
    doyle = fetch_named(main, "doyle", 27, 4, 3)
    known = {"counting": True, "c_g": "27/5"}

    def make_doyle(kind):
        edges = [(u, v) for u in range(27) for v in doyle[u] if u < v]
        return family_request("doyle", kind, 27, edges, known=known)

    return {"doyle": make_doyle}


# ---------------------------------------------------------------- checking


class Checker:
    def __init__(self):
        self._facts: dict[int, checks.Facts] = {}

    def facts(self, req: Request) -> checks.Facts:
        key = id(req)
        if key not in self._facts:
            self._facts[key] = checks.Facts(req.n, req.adj)
        return self._facts[key]

    def __call__(self, req: Request, got: Outcome) -> list[str]:
        if got.error:
            return [got.error]
        try:
            facts = self.facts(req)
            if req.kind == "batch":
                return checks.check_batch(facts, got.out)
            return checks.check_compute(
                facts, got.out, req.known, certificate=req.kind == "certificate"
            )
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------- reporting


def quantile(values: list[float], q: int) -> float:
    """q-th decile (inclusive method); q = 5 is the median."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "seed": seed,
    }


def input_properties(checker: Checker, reqs: list[Request]) -> dict:
    facts = [checker.facts(r) for r in reqs]

    def spread(values):
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    return {
        "requests": len(reqs),
        "n": spread([f.n for f in facts]),
        "diam": spread([f.diam for f in facts]),
        "k_max": spread([f.k_max for f in facts]),
        "diam_le_2_frac": sum(f.diam <= 2 for f in facts) / len(facts),
    }


def orbit_properties(spans, req_ids) -> dict:
    """Orbit counts read from the first orbit_partition return of each request."""
    first = {}
    for s in spans:
        if s.name == "symmetry.orbit_partition" and s.req in req_ids and s.req not in first:
            first[s.req] = (s.attrs["classes"], s.attrs["n"])
    if not first:
        return {"requests_with_orbits": 0}
    vals = list(first.values())
    return {
        "requests_with_orbits": len(vals),
        "single_orbit_frac": sum(c == 1 for c, _ in vals) / len(vals),
        "orbits_per_vertex_mean": sum(c / n for c, n in vals) / len(vals),
    }


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


# ---------------------------------------------------------------- runs


def closed_loop(pool, seconds: float, floor: int, run_one):
    """Send pool requests back to back until the time and count floors are met."""
    done = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or len(done) < floor:
        req = pool[i % len(pool)]
        done.append((req, run_one(i, req)))
        i += 1
    return done, perf_counter() - start


def measure_setup(src: Path, workload: str) -> tuple[float, list[str]]:
    argv, stdin = WARMUP_ARGV[workload]
    times, bad = [], []
    for _ in range(SETUP_REPEATS):
        seconds, rc = child(src, argv, stdin)
        times.append(seconds)
        if rc != 0:
            bad.append(f"set-up request exited {rc}")
    return statistics.median(times), bad


def verify_gate(main) -> list[str]:
    got = call(main, ["verify"], "")
    try:
        return checks.check_verify(got.out, got.rc)
    except ValueError:
        return [f"verify: unreadable output, exit code {got.rc}"]


def run_plain(args, src, main, pool, checker, report) -> int:
    setup_s, setup_bad = measure_setup(src, args.workload)
    call(main, *WARMUP_ARGV[args.workload])  # lazy imports and first-call costs

    done, wall = closed_loop(
        pool, args.seconds, MIN_REQUESTS, lambda i, req: call(main, req.argv, req.stdin)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = verify_gate(main)  # after the peak is read: verify's own graphs are larger

    failures = [(req.label, checker(req, got)) for req, got in done]
    failed = sum(1 for _, bad in failures if bad)
    lat = [got.seconds * 1000.0 for _, got in done]
    metrics = {
        "latency_p50_ms": (quantile(lat, 5), "ms"),
        "latency_p90_ms": (quantile(lat, 9), "ms"),
        "throughput_gps": (len(done) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    report["verify_gate"] = gate or "52/52 rows passed"
    report["inputs"] = input_properties(checker, [req for req, _ in done])
    report["failed_frac"] = f"{failed / len(done):.6g} frac ({failed}/{len(done)} requests)"
    report["failures"] = [f"{label}: {'; '.join(bad)}" for label, bad in failures if bad][:20]
    report["setup_failures"] = setup_bad
    report["metrics"] = {
        k: f"{v:.6g} {u}" + (f" ({len(lat)} samples)" if k.startswith("latency") else "")
        for k, (v, u) in metrics.items()
    }
    print(json.dumps(report, indent=1))
    emit_result(not (failed or gate or setup_bad), len(done), failed, metrics)
    return 0


def run_traced(args, main, pool, checker, report) -> int:
    gate = verify_gate(main)
    call(main, *WARMUP_ARGV[args.workload])
    tr = tracing.Tracer()
    tracing.install_targets(tr)
    emitted: list[int] = []
    plain_s: list[float] = []
    traced_s: list[float] = []

    def traced(req_id, req):
        with tr.request(req_id):
            got = call(main, req.argv, req.stdin)
        return got

    def pair(i, req):
        # untraced and traced run of the same input, alternating which goes first
        if i % 2:
            got_t = traced(i, req)
            got_p = call(main, req.argv, req.stdin)
        else:
            got_p = call(main, req.argv, req.stdin)
            got_t = traced(i, req)
        plain_s.append(got_p.seconds)
        traced_s.append(got_t.seconds)
        emitted.append(len(got_t.out))
        return got_p, got_t

    done, _ = closed_loop(pool, args.seconds, MIN_REQUESTS // 2, pair)
    req_ids = set(range(len(done)))
    spans = [s for s in tr.spans if s.req in req_ids]

    failures = []
    for req, (got_p, got_t) in done:
        for got in (got_p, got_t):
            failures.append((req.label, checker(req, got)))
    failed = sum(1 for _, bad in failures if bad)

    layer = tracing.layer_metrics(spans, len(done), sum(emitted) / len(emitted))
    layer["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    baseline, baseline_bad = reference_cases(main, tr, checker)

    dominant = max(tracing.SELF_TIME_LAYERS, key=lambda n: layer[f"{n}.self_ms"])
    predicted = PREDICTED_DOMINANT[args.workload]
    report["verify_gate"] = gate or "52/52 rows passed"
    report["inputs"] = input_properties(checker, [req for req, _ in done])
    report["inputs"].update(orbit_properties(spans, req_ids))
    report["failed_frac"] = f"{failed / len(failures):.6g} frac ({failed}/{len(failures)} requests)"
    report["failures"] = [f"{label}: {'; '.join(bad)}" for label, bad in failures if bad][:20]
    report["traced_requests"] = len(done)
    report["dominant_self_time"] = {
        "measured": dominant,
        "predicted": predicted,
        "match": dominant == predicted,
    }
    report["reference_cases"] = baseline
    print(json.dumps(report, indent=1))
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    ok = not (failed or gate or baseline_bad)
    emit_result(ok, len(failures), failed, metrics)
    return 0


def reference_cases(main, tr: tracing.Tracer, checker: Checker):
    """The ROADMAP baseline cases, traced once each, outside the timed loop."""
    from dublo import families, optimizer

    rows = {}
    bad = []

    def summarize(req_id, wall):
        spans = [s for s in tr.spans if s.req == req_id]
        own = tracing.self_times(spans)
        lp = [s for s in spans if s.name == "optimizer.lp"]
        orb = [s for s in spans if s.name == "symmetry.orbit_partition"]
        return {
            "wall_ms": round(1000.0 * wall, 1),
            "lp_solves": len(lp),
            "lp_rows_max": max((s.attrs["rows"] for s in lp), default=0),
            "lp_ms": round(1000.0 * sum(own[s.sid] for s in lp), 1),
            "orbit_partition_calls": len(orb),
            "orbit_partition_ms": round(1000.0 * sum(own[s.sid] for s in orb), 1),
        }

    hs_adj = fetch_named(main, "hoffman_singleton", 50, 7, 2)
    hs = family_request(
        "hoffman_singleton", "compute", 50,
        [(u, v) for u in range(50) for v in hs_adj[u] if u < v],
        known={"counting": True, "c_g": "8"},
    )
    cyc = family_request(
        "cycle", "compute", 128, [(i, (i + 1) % 128) for i in range(128)], size=128,
        known={"counting": True, "c_g": "3"},
    )
    for key, req in (("hoffman_singleton compute", hs), ("cycle n=128 compute", cyc)):
        req_id = ("reference", key)
        with tr.request(req_id):
            got = call(main, req.argv, req.stdin)
        rows[key] = summarize(req_id, got.seconds)
        problems = checker(req, got)
        rows[key]["check"] = problems or "ok"
        bad += problems

    three_legs_root = float(max(np.roots([1.0, 1.0, -5.0, -3.0]).real)) + 1.0
    cases = (
        ("three_legs least_doubling", "three_legs", None, three_legs(), 7,
         lambda c: abs(c - three_legs_root) <= 1e-6),
        ("e8 least_doubling", "e8", None, e_tree(8), 8, lambda c: c > 3.0),
        ("path n=120 least_doubling", "path", 120, path(120), 120, lambda c: c < 3.0),
    )
    for key, family, size, edges, n, closed_form in cases:
        g = families.generate(families.FamilySpec(family, n=size))
        req_id = ("reference", key)
        with tr.request(req_id, root_name="optimizer.call"):
            start = perf_counter()
            res = optimizer.least_doubling(g)
            wall = perf_counter() - start
        rows[key] = summarize(req_id, wall)
        facts = checks.Facts(n, adjacency(n, edges))
        problems = []
        if not closed_form(res.c_g) or res.c_g < facts.c0 - checks.TOL:
            problems.append(f"{key}: c_g {res.c_g} fails its closed-form check")
        if facts.constant(res.minimizer.as_array()) > res.c_g * (1 + 1e-9):
            problems.append(f"{key}: minimizer constant exceeds c_g")
        rows[key]["c_g"] = res.c_g
        rows[key]["check"] = problems or "ok"
        bad += problems
    return rows, bad


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "dublo" / "cli.py").is_file():
        print(f"benchmark: no dublo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from dublo import cli

    checker = Checker()
    pool = build_pool(args.workload, args.seed, named_factories(cli.main), POOL_BLOCKS)
    report = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "end-to-end",
        "client": "single client, closed loop, in-process dublo.cli.main",
        "env": environment(args.seed),
    }
    if args.trace:
        return run_traced(args, cli.main, pool, checker, report)
    return run_plain(args, src, cli.main, pool, checker, report)


if __name__ == "__main__":
    sys.exit(main())
