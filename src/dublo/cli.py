"""Command-line surface: compute, spectral, classify, family, verify, batch, truncate.

All machine output carries the schema tag "dublo/1"; floats are printed with
12 significant digits and exact rationals as "p/q" strings, so identical
inputs and configuration produce byte-identical reports.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error, 4 solver breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import classifier, families, optimizer, spectral
from .doubling import counting_measure, doubling_report, load_measure_text
from .errors import ParseError, SizeCapError, SolverError, ValidationError
from .families import FamilySpec
from .graphs import Graph, distances, parse_edge_list, parse_graph6, size_cap, write_graph6

SCHEMA = "dublo/1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


@dataclass
class RunConfig:
    tolerance_bisect: float = 1e-9
    tolerance_eig: float = 1e-12
    certificate_mode: bool = False
    size_cap: int = 512
    output_format: str = "json"
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.tolerance_bisect <= 0 or self.tolerance_eig <= 0:
            raise ValidationError("tolerances must be > 0")
        if self.size_cap < 2:
            raise ValidationError("size cap must be >= 2")
        if self.output_format not in ("json", "csv", "text"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_config_file(path: str) -> dict:
    """Flat TOML-style 'key = value' file; only RunConfig keys are accepted."""
    values: dict = {}
    for lineno, raw in enumerate(_read_file(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip().strip('"').strip("'")
        try:
            if key in ("tolerance_bisect", "tolerance_eig"):
                values[key] = float(val)
            elif key in ("size_cap", "parallelism"):
                values[key] = int(val)
            elif key == "certificate_mode":
                values[key] = val.lower() in ("1", "true", "yes")
            elif key == "output_format":
                values[key] = val
            else:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed value {val!r} for {key}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {"size_cap": size_cap()}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    flag_map = {
        "tol": "tolerance_bisect",
        "eig_tol": "tolerance_eig",
        "certificate": "certificate_mode",
        "size_cap": "size_cap",
        "output": "output_format",
        "jobs": "parallelism",
    }
    for flag, field in flag_map.items():
        val = getattr(args, flag, None)
        if val is not None and val is not False:
            values[field] = val
    return RunConfig(**values)


def _round_floats(obj):
    """12 significant digits on floats; Fractions as 'p/q'; recursive."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(payload: dict, config: RunConfig, text_lines: list[str] | None = None) -> None:
    if config.output_format == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
        return
    print(json.dumps(_round_floats(payload), indent=2))


def read_graph(args: argparse.Namespace, config: RunConfig) -> Graph:
    if getattr(args, "family", None):
        spec = FamilySpec(
            args.family,
            n=getattr(args, "n", None),
            m=getattr(args, "m", None),
            depth=getattr(args, "depth", None),
        )
        return families.generate(spec, cap=config.size_cap)
    source = getattr(args, "input", None)
    if source is None:
        raise ParseError("need --input PATH|- or --family NAME")
    text = sys.stdin.read() if source == "-" else _read_file(source)
    if getattr(args, "format", "edgelist") == "g6":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        return parse_graph6(first, cap=config.size_cap)
    return parse_edge_list(text, cap=config.size_cap)


# ---------------------------------------------------------------- compute


def cmd_compute(args: argparse.Namespace) -> int:
    config = build_config(args)
    g = read_graph(args, config)
    dt = distances(g)
    result = optimizer.least_doubling(
        g,
        tol=config.tolerance_bisect,
        certificate=config.certificate_mode,
        eig_tol=config.tolerance_eig,
        dt=dt,
    )
    class_sizes = sorted(Counter(result.classes).values())
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "diam": dt.diam,
        "c0": result.lower_bound_spectral,
        "c_g": result.c_g,
        "c_g_exact": result.c_g_exact,
        "bracket": list(result.bracket),
        "minimizer": list(result.minimizer.weights),
        "minimizer_c_mu": float(result.minimizer_report.c_mu),
        "orbit_count": len(class_sizes),
        "orbit_sizes": class_sizes,
        "notes": result.method_notes,
        "lemachorra": result.lemachorra(),
    }
    if result.certificate is not None:
        cert = result.certificate
        payload["certificate"] = {
            "t": cert.t,
            "measure": list(cert.measure.weights),
            "c_mu_exact": cert.c_mu_exact,
            "min_slack": min(cert.slacks),
            "slacks": list(cert.slacks),
        }
    if getattr(args, "measure", None):
        mu = load_measure_text(_read_file(args.measure), g)
        rep = doubling_report(g, dt, mu)
        payload["measure_report"] = {
            "c_mu": rep.c_mu,
            "per_k": [[p.k, p.value, p.witness] for p in rep.per_k],
        }
    emit(
        payload,
        config,
        text_lines=[
            f"n={g.n} diam={dt.diam}",
            f"c0  = {result.lower_bound_spectral:.12g}",
            f"c_g = {result.c_g:.12g}  bracket=({result.bracket[0]:.12g}, {result.bracket[1]:.12g})",
        ],
    )
    return EXIT_OK


def cmd_spectral(args: argparse.Namespace) -> int:
    config = build_config(args)
    g = read_graph(args, config)
    res = spectral.perron(g, tol=config.tolerance_eig)
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "radius": res.radius,
        "c0": 1.0 + res.radius,
        "residual": res.residual,
        "iterations": res.iterations,
        "eigvec_min1": [float(x) for x in res.eigvec],
    }
    emit(payload, config, text_lines=[f"radius = {res.radius:.12g}", f"c0 = {1 + res.radius:.12g}"])
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    config = build_config(args)
    g = read_graph(args, config)
    verdict = classifier.classify_leq3(
        g, tol=config.tolerance_bisect, cross_check=args.cross_check
    )
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "verdict": verdict.verdict,
        "family_match": verdict.family_match,
        "reasons": list(verdict.reasons),
    }
    if verdict.numeric_cross_check is not None:
        payload["c_g"] = verdict.numeric_cross_check.c_g
    emit(payload, config, text_lines=[f"{verdict.verdict} ({verdict.family_match})"])
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    config = build_config(args)
    spec = FamilySpec(args.family, n=args.n, m=args.m, depth=args.depth)
    g = families.generate(spec, cap=config.size_cap)
    try:
        expected = families.expected_constant(spec)
        expected_payload = {
            "c_g": expected.c_g,
            "c_g_exact": expected.c_g_exact,
            "c0": expected.c0,
            "proven": expected.proven,
            "literature_value": expected.literature_value,
            "note": expected.note,
        }
    except ValidationError:
        expected_payload = None
    if args.emit == "g6":
        graph_text = write_graph6(g)
    else:
        graph_text = "\n".join(f"{u} {v}" for u, v in g.edges())
    payload = {
        "schema": SCHEMA,
        "family": args.family,
        "params": {"n": args.n, "m": args.m, "depth": args.depth},
        "n": g.n,
        "m_edges": g.m,
        "graph": graph_text,
        "expected": expected_payload,
    }
    emit(payload, config, text_lines=[graph_text])
    return EXIT_OK


# ---------------------------------------------------------------- verify

# (group, row name, family) of every verify row whose expected value is
# expected_constant(family).c_g
_CLOSED_FORM_ROWS = (
    [("complete", f"complete_n{n}", FamilySpec("complete", n=n)) for n in range(3, 9)]
    + [("star", f"star_n{n}", FamilySpec("star", n=n)) for n in range(2, 10)]
    + [("cycle", f"cycle_n{n}", FamilySpec("cycle", n=n)) for n in range(3, 13)]
    + [
        ("bipartite", f"K_{m}_{n}", FamilySpec("complete_bipartite", m=m, n=n))
        for (m, n) in ((1, 2), (2, 3), (3, 3), (2, 5))
    ]
    + [("wheel", f"wheel_n{n}", FamilySpec("wheel", n=n)) for n in range(5, 11)]
    + [("friendship", f"friendship_n{n}", FamilySpec("friendship", n=n)) for n in range(1, 6)]
    + [("cocktail_party", f"cocktail_n{n}", FamilySpec("cocktail_party", n=n)) for n in range(2, 6)]
    + [(name, name, FamilySpec(name)) for name in ("petersen", "hoffman_singleton")]
)


def _verify_rows(config: RunConfig, only: str | None):
    """Verify rows; expected values come from expected_constant and smith_c0_table."""
    tol_c = 1e-6

    def run(g, **kw):
        return optimizer.least_doubling(
            g, tol=config.tolerance_bisect, eig_tol=config.tolerance_eig, **kw
        )

    def family(spec):
        return families.generate(spec, cap=config.size_cap)

    def closed_form_row(spec):
        return run(family(spec)).c_g, families.expected_constant(spec).c_g, tol_c

    rows = [
        (group, name, lambda spec=spec: closed_form_row(spec))
        for group, name, spec in _CLOSED_FORM_ROWS
    ]

    def three_legs_row():
        spec = FamilySpec("three_legs")
        value = run(family(spec)).c_g
        root = families.expected_constant(spec).c_g
        ok = abs(value - root) <= 1e-6 and abs(value - 3.0861) <= 1e-4
        return value, root, 1e-6, ok

    def doyle_row():
        spec = FamilySpec("doyle")
        expected = families.expected_constant(spec)
        g = family(spec)
        res = run(g, certificate=True)
        counting = doubling_report(g, distances(g), counting_measure(g))
        ok = (
            res.c_g_exact == expected.c_g_exact
            and counting.c_mu == expected.c_g_exact
            and abs(res.c_g - expected.c_g) <= tol_c
        )
        return res.c_g, expected.c_g, tol_c, ok

    def e8_row():
        spec = FamilySpec("e8")
        bound = families.expected_constant(spec).c_g
        value = run(family(spec)).c_g
        return value, bound, 1e-4, value >= bound - 1e-4

    def strict_lt3(name):
        res = run(family(FamilySpec(name)), certificate=True)
        assert res.certificate is not None
        exact = res.certificate.c_mu_exact
        return float(exact), 3.0, 1e-9, exact < 3 - Fraction(1, 10**9)

    def smith_row():
        specs = [FamilySpec("path", n=n) for n in range(1, 31)]
        specs += [FamilySpec("d_n", n=n) for n in range(4, 31)]
        specs += [FamilySpec("cycle", n=n) for n in range(3, 31)]
        specs += [FamilySpec("d_hat_n", n=n) for n in range(5, 31)]
        specs += [FamilySpec(fam) for fam in ("e6", "e7", "e8", "e6_hat", "e7_hat", "e8_hat")]
        worst = 0.0
        for spec in specs:
            c0 = 1 + spectral.perron(family(spec), tol=config.tolerance_eig).radius
            worst = max(worst, abs(c0 - families.smith_c0_table(spec)))
        return worst, 0.0, 1e-9, worst <= 1e-9

    def path_threshold_row():
        good = True
        for n in range(2, 13):
            rec = optimizer.check_lemachorra(family(FamilySpec("path", n=n)), tol=1e-7)
            gap = rec["c_mu0_full"] - rec["c0"]
            good &= (gap <= 1e-7) if n <= 8 else (gap > 1e-4)
        return float(good), 1.0, 0.0, good

    rows += [
        ("three_legs", "three_legs", three_legs_row),
        ("doyle", "doyle_27_5", doyle_row),
        ("e8", "e8_lower_bound", e8_row),
        ("e6", "e6_below_3", lambda: strict_lt3("e6")),
        ("e7", "e7_below_3", lambda: strict_lt3("e7")),
        ("smith", "smith_c0_table", smith_row),
        ("path_threshold", "path_threshold_n8", path_threshold_row),
    ]
    return [row for row in rows if only is None or row[0] == only]


def cmd_verify(args: argparse.Namespace) -> int:
    config = build_config(args)
    rows = []
    failures = 0
    matched = False
    for group, name, fn in _verify_rows(config, args.only):
        matched = True
        result = fn()
        if len(result) == 3:
            measured, expected, tol = result
            passed = abs(measured - expected) <= tol
        else:
            measured, expected, tol, passed = result
        failures += 0 if passed else 1
        rows.append(
            {
                "group": group,
                "name": name,
                "measured": float(measured),
                "expected": float(expected),
                "tol": tol,
                "pass": bool(passed),
            }
        )
        if config.output_format == "text":
            flag = "PASS" if passed else "FAIL"
            print(f"{flag} {name}: measured={measured:.10g} expected={expected:.10g} tol={tol:g}")
    if args.only is not None and not matched:
        raise ValidationError(f"unknown verify group {args.only!r}")
    if config.output_format != "text":
        emit({"schema": SCHEMA, "rows": rows, "failures": failures}, config)
    else:
        print(f"{len(rows) - failures}/{len(rows)} rows passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------- batch


def _batch_row(item: tuple[int, str, float, float, int]) -> dict:
    index, line, tol, eig_tol, cap = item
    try:
        g = parse_graph6(line, cap=cap)
        dt = distances(g)
        res = optimizer.least_doubling(g, tol=tol, eig_tol=eig_tol, dt=dt)
        return {
            "index": index,
            "n": g.n,
            "diam": dt.diam,
            "c0": res.lower_bound_spectral,
            "c_g": res.c_g,
            "gap": res.c_g - res.lower_bound_spectral,
            "lemachorra_equal": bool(res.lemachorra()["equal"]),
        }
    except (ParseError, ValidationError, SolverError) as exc:
        return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


def cmd_batch(args: argparse.Namespace) -> int:
    config = build_config(args)
    source = args.input
    text = sys.stdin.read() if source == "-" else _read_file(source)
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    items = [
        (i, ln, config.tolerance_bisect, config.tolerance_eig, config.size_cap)
        for i, ln in lines
    ]
    # a fork-started pool launches all its workers at once: cap by lines and cores
    workers = min(config.parallelism, len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_row, items, chunksize=4))
    else:
        rows = [_batch_row(item) for item in items]
    good = [r for r in rows if "error" not in r]
    skipped = [r for r in rows if "error" in r]
    for r in skipped:
        print(f"skipping line {r['index']}: {r['error']}", file=sys.stderr)
    if config.output_format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "n", "diam", "c0", "c_g", "gap", "lemachorra_equal"])
        for r in good:
            writer.writerow(
                [
                    r["index"],
                    r["n"],
                    r["diam"],
                    f"{r['c0']:.12g}",
                    f"{r['c_g']:.12g}",
                    f"{r['gap']:.12g}",
                    int(r["lemachorra_equal"]),
                ]
            )
    else:
        emit(
            {"schema": SCHEMA, "rows": good, "skipped": len(skipped)},
            config,
        )
    return EXIT_OK


def cmd_truncate(args: argparse.Namespace) -> int:
    config = build_config(args)
    depths = _parse_depths(args.depths)
    records = families.truncation_study(args.family, depths, eig_tol=config.tolerance_eig)
    payload = {"schema": SCHEMA, "family": args.family, "records": records}
    lines = [
        f"depth={r['depth']} n={r['n']} c0={r['c0']:.9f}"
        + (f" ratio={float(r['counting_ratio']):.5f}" if "counting_ratio" in r else "")
        for r in records
    ]
    emit(payload, config, text_lines=lines)
    return EXIT_OK


def _parse_depths(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ParseError(f"malformed --depths {text!r}: want a comma list or lo..hi") from None


# ---------------------------------------------------------------- main


def _add_common(p: argparse.ArgumentParser, graph_input: bool = True) -> None:
    p.add_argument("--tol", type=float, default=None, help="bisection tolerance")
    p.add_argument("--eig-tol", dest="eig_tol", type=float, default=None)
    p.add_argument("--certificate", action="store_true", default=False)
    p.add_argument("--size-cap", dest="size_cap", type=int, default=None)
    p.add_argument("--output", choices=("json", "csv", "text"), default=None,
                   help="csv applies to batch; other commands emit json or text")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--config", default=None, help="flat key = value config file")
    if graph_input:
        p.add_argument("--input", default=None, help="graph file path or - for stdin")
        p.add_argument("--format", choices=("edgelist", "g6"), default="edgelist")
        p.add_argument("--family", choices=families.FAMILY_NAMES, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dublo",
        description="Least doubling constants and spectral bounds on finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="C_G, bracket, minimizer for one graph")
    _add_common(p)
    p.add_argument("--measure", default=None, help="measure file to evaluate alongside")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("spectral", help="spectral radius and Perron vector")
    _add_common(p)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("classify", help="position of C_G relative to 3")
    _add_common(p)
    p.add_argument("--cross-check", action="store_true", default=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("family", help="emit a named family graph")
    _add_common(p, graph_input=False)
    p.add_argument("--family", choices=families.FAMILY_NAMES, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--emit", choices=("edgelist", "g6"), default="edgelist")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify", help="reproduce the catalog of stated constants")
    _add_common(p, graph_input=False)
    p.add_argument("--only", default=None, help="run a single verification group")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("batch", help="stream of graph6 records -> constants table")
    _add_common(p, graph_input=False)
    p.add_argument("--input", required=True, help="graph6 file path or - for stdin")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("truncate", help="finite-truncation series for infinite graphs")
    _add_common(p, graph_input=False)
    p.add_argument("--family", choices=families.TRUNCATION_FAMILIES, required=True)
    p.add_argument("--depths", required=True, help="comma list or lo..hi range")
    p.set_defaults(fn=cmd_truncate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SizeCapError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
