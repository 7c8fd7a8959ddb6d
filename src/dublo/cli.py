"""Command-line surface: compute, spectral, classify, family, verify, batch, truncate.

Every command prints one JSON report tagged "dublo/2"; floats are printed with
12 significant digits (a bracket rounded outward, every other float to
nearest) and exact rationals as "p/q" strings, so identical inputs and
configuration produce byte-identical reports.

Each run setting is one flag over a library default, and no environment
variable is read.  The Perron tolerance is not a setting: it is the constant
``spectral.EIG_TOL``.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error, 4 solver breakdown.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import classifier, families, optimizer, spectral
from .doubling import doubling_report, load_measure_text
from .errors import ParseError, SizeCapError, SolverError, ValidationError
from .families import FamilySpec
from .graphs import (
    DEFAULT_SIZE_CAP, Graph, distances, parse_edge_list, parse_graph6, write_graph6
)

SCHEMA = "dublo/2"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


def _setting(default, flag: str, help: str):
    """A RunConfig field and its flag; argparse stores the flag under the field's name."""
    return field(default=default, metadata={"flag": flag, "help": help})


@dataclass
class RunConfig:
    """Run settings: each is a flag and a library default."""

    tolerance_bisect: float = _setting(
        optimizer.DEFAULT_BISECT_TOL, "--tol", "largest width of the C_G bracket"
    )
    certificate_mode: bool = _setting(False, "--certificate", "exact certificate of the minimizer")
    size_cap: int = _setting(DEFAULT_SIZE_CAP, "--size-cap", "vertex cap")

    def __post_init__(self) -> None:
        if not 0 < self.tolerance_bisect < math.inf:  # NaN fails this too
            raise ValidationError("tolerance must be finite and > 0")
        if self.size_cap < 2:
            raise ValidationError("size cap must be >= 2")


_SETTINGS = {f.name: f for f in fields(RunConfig)}


def _read_input(source: str, errors: str = "strict") -> str:
    """UTF-8 text of the file ``source``, or of stdin for "-", whatever the locale.

    Bytes that are not UTF-8 are a ParseError; ``errors="surrogateescape"``
    keeps them as lone surrogates, so a reader can reject just their lines.
    """
    try:
        if source == "-":
            data = getattr(sys.stdin, "buffer", sys.stdin).read()  # io.StringIO has no bytes
        else:
            data = Path(source).read_bytes()
        return data if isinstance(data, str) else data.decode("utf-8", errors)
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else the default."""
    values = {name: val for name in _SETTINGS if (val := getattr(args, name, None)) is not None}
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


def _outward(bracket: tuple[float, float]) -> list[float]:
    """The bracket's ends to 12 significant digits, the lower rounded down, the upper up.

    So the printed interval contains the computed one.
    """
    return [
        float(decimal.Context(prec=12, rounding=rounding).create_decimal_from_float(end))
        for end, rounding in zip(bracket, (decimal.ROUND_FLOOR, decimal.ROUND_CEILING))
    ]


def emit(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), indent=2))


def read_graph(args: argparse.Namespace, config: RunConfig) -> Graph:
    if args.family:
        spec = FamilySpec(args.family, n=args.n, m=args.m, depth=args.depth)
        return families.generate(spec, cap=config.size_cap)
    if args.input is None:
        raise ParseError("need --input PATH|- or --family NAME")
    text = _read_input(args.input)
    if args.format == "g6":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        return parse_graph6(first, cap=config.size_cap)
    return parse_edge_list(text, cap=config.size_cap)


# ---------------------------------------------------------------- compute


def cmd_compute(args: argparse.Namespace) -> int:
    config = build_config(args)
    g = read_graph(args, config)
    result = optimizer.least_doubling(
        g, tol=config.tolerance_bisect, certificate=config.certificate_mode
    )
    class_sizes = sorted(Counter(result.classes).values())
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "m": g.m,
        "diam": distances(g).diam,
        "c0": result.lower_bound_spectral,
        "c_g": result.c_g,
        "c_g_exact": result.c_g_exact,
        "bracket": _outward(result.bracket),
        "minimizer": list(result.minimizer.weights),
        "class_count": len(class_sizes),
        "class_sizes": class_sizes,
        "notes": result.method_notes,
        "lemachorra": result.lemachorra(),
    }
    if result.certificate is not None:
        cert = result.certificate
        payload["certificate"] = {
            "t": cert.t,
            "measure": list(cert.measure.weights),
            "c_mu_exact": cert.t,
            "min_slack": min(cert.slacks),
            "slacks": list(cert.slacks),
        }
    if args.measure:
        mu = load_measure_text(_read_input(args.measure), g)
        rep = doubling_report(g, mu=mu)
        payload["measure_report"] = {
            "c_mu": rep.c_mu,
            "per_k": [[p.k, p.value, p.witness] for p in rep.per_k],
        }
    emit(payload)
    return EXIT_OK


def cmd_spectral(args: argparse.Namespace) -> int:
    config = build_config(args)
    g = read_graph(args, config)
    res = spectral.perron(g)
    payload = {
        "schema": SCHEMA,
        "n": g.n,
        "radius": res.radius,
        "c0": res.c0,
        "residual": res.residual,
        "iterations": res.iterations,
        "eigvec_min1": [float(x) for x in res.eigvec],
    }
    emit(payload)
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
    emit(payload)
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
    emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------- verify

# (group, row name, family) of every constant row: expected_constant(family)
# states the value, and its kind picks the comparison
_CONSTANT_ROWS = (
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
    + [(name, name, FamilySpec(name)) for name in ("petersen", "hoffman_singleton", "three_legs")]
    + [
        ("doyle", "doyle_27_5", FamilySpec("doyle")),
        ("e8", "e8_lower_bound", FamilySpec("e8")),
        ("e6", "e6_below_3", FamilySpec("e6")),
        ("e7", "e7_below_3", FamilySpec("e7")),
    ]
)

# the tolerance of each kind of stated constant; a literature value is met to 1e-4
_KIND_TOL = {"exact": 1e-6, "lower_bound_only": 1e-4, "strict_upper_bound": 1e-9}


def _verify_rows(config: RunConfig, only: str | None):
    """(group, name, fn) rows, fn() -> (measured, expected, tol, passed); see families."""

    def family(spec):
        return families.generate(spec, cap=config.size_cap)

    def constant_row(spec):
        expected = families.expected_constant(spec)
        value, kind = expected.c_g, expected.proven
        tol = _KIND_TOL[kind]
        res = optimizer.least_doubling(
            family(spec), tol=config.tolerance_bisect, certificate=kind == "strict_upper_bound"
        )
        if kind == "strict_upper_bound":  # exact t, more than tol (as a decimal) below
            exact = res.certificate.t
            return float(exact), value, tol, exact < Fraction(value) - Fraction(str(tol))
        if kind == "lower_bound_only":
            return res.c_g, value, tol, res.c_g >= value - tol
        ok = abs(res.c_g - value) <= tol
        if expected.c_g_exact is not None:
            ok = ok and res.c_g_exact == expected.c_g_exact
        if expected.literature_value is not None:
            ok = ok and abs(res.c_g - expected.literature_value) <= 1e-4
        return res.c_g, value, tol, ok

    rows = [
        (group, name, lambda spec=spec: constant_row(spec))
        for group, name, spec in _CONSTANT_ROWS
    ]

    def smith_row():
        specs = [FamilySpec("path", n=n) for n in range(1, 31)]
        specs += [FamilySpec("d_n", n=n) for n in range(4, 31)]
        specs += [FamilySpec("cycle", n=n) for n in range(3, 31)]
        specs += [FamilySpec("d_hat_n", n=n) for n in range(5, 31)]
        specs += [FamilySpec(fam) for fam in ("e6", "e7", "e8", "e6_hat", "e7_hat", "e8_hat")]
        worst = 0.0
        for spec in specs:
            c0 = spectral.perron(family(spec)).c0
            worst = max(worst, abs(c0 - families.expected_constant(spec).c0))
        return worst, 0.0, 1e-9, worst <= 1e-9

    threshold = families.PATH_C0_EQUALITY_MAX_N

    def path_threshold_row():
        good = True
        for n in range(2, 13):
            rec = optimizer.check_lemachorra(family(FamilySpec("path", n=n)))
            good &= rec["equal"] if n <= threshold else rec["c_mu0_full"] - rec["c0"] > 1e-4
        return float(good), 1.0, 0.0, good

    rows += [
        ("smith", "smith_c0_table", smith_row),
        ("path_threshold", f"path_threshold_n{threshold}", path_threshold_row),
    ]
    return [row for row in rows if only is None or row[0] == only]


def cmd_verify(args: argparse.Namespace) -> int:
    config = build_config(args)
    rows = []
    failures = 0
    matched = False
    for group, name, fn in _verify_rows(config, args.only):
        matched = True
        measured, expected, tol, passed = fn()
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
    if args.only is not None and not matched:
        raise ValidationError(f"unknown verify group {args.only!r}")
    emit({"schema": SCHEMA, "rows": rows, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------- batch


def _batch_row(index: int, line: str, config: RunConfig) -> dict:
    try:
        g = parse_graph6(line, cap=config.size_cap)
        res = optimizer.least_doubling(g, tol=config.tolerance_bisect)
        return {
            "index": index,
            "n": g.n,
            "diam": distances(g).diam,
            "c0": res.lower_bound_spectral,
            "c_g": res.c_g,
            "gap": res.c_g - res.lower_bound_spectral,
            "lemachorra_equal": bool(res.lemachorra()["equal"]),
        }
    except (ParseError, ValidationError, SolverError) as exc:
        return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


def cmd_batch(args: argparse.Namespace) -> int:
    config = build_config(args)
    # parse_graph6 rejects the surrogates of a non-UTF-8 record as non-ASCII
    text = _read_input(args.input, errors="surrogateescape")
    rows = [
        _batch_row(i, ln.strip(), config)
        for i, ln in enumerate(text.splitlines())
        if ln.strip()
    ]
    good = [r for r in rows if "error" not in r]
    skipped = [r for r in rows if "error" in r]
    for r in skipped:
        print(f"skipping line {r['index']}: {r['error']}", file=sys.stderr)
    emit({"schema": SCHEMA, "rows": good, "skipped": len(skipped)})
    return EXIT_OK


def cmd_truncate(args: argparse.Namespace) -> int:
    config = build_config(args)
    depths = _parse_depths(args.depths)
    records = families.truncation_study(args.family, depths, cap=config.size_cap)
    emit({"schema": SCHEMA, "family": args.family, "records": records})
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


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=None, help="graph file path or - for stdin")
    p.add_argument("--format", choices=("edgelist", "g6"), default="edgelist")
    _add_family(p, required=False)


def _add_family(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--family", choices=families.FAMILY_NAMES, required=required)
    for flag in ("--n", "--m", "--depth"):
        p.add_argument(flag, type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dublo parser; each command takes a flag for each RunConfig field it reads."""
    parser = argparse.ArgumentParser(
        prog="dublo",
        description="Least doubling constants and spectral bounds on finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(command_name, help, fn, settings):
        p = sub.add_parser(command_name, help=help)
        p.set_defaults(fn=fn)
        for name in settings:
            meta, kind = _SETTINGS[name].metadata, type(_SETTINGS[name].default)
            if kind is bool:
                kw = {"action": "store_true"}
            else:
                kw = {"type": kind, "metavar": meta["flag"][2:].upper().replace("-", "_")}
            p.add_argument(meta["flag"], dest=name, default=None, help=meta["help"], **kw)
        return p

    bisect, cap = "tolerance_bisect", "size_cap"

    p = command("compute", "C_G, bracket, minimizer for one graph", cmd_compute,
                (bisect, "certificate_mode", cap))
    _add_graph_input(p)
    p.add_argument("--measure", default=None, help="measure file to evaluate alongside")

    p = command("spectral", "spectral radius and Perron vector", cmd_spectral, (cap,))
    _add_graph_input(p)

    p = command("classify", "position of C_G relative to 3", cmd_classify, (bisect, cap))
    _add_graph_input(p)
    p.add_argument("--cross-check", action="store_true", default=False)

    p = command("family", "emit a named family graph", cmd_family, (cap,))
    _add_family(p, required=True)
    p.add_argument("--emit", choices=("edgelist", "g6"), default="edgelist")

    p = command("verify", "reproduce the catalog of stated constants", cmd_verify, (bisect, cap))
    p.add_argument("--only", default=None, help="run a single verification group")

    p = command("batch", "stream of graph6 records -> constants table", cmd_batch, (bisect, cap))
    p.add_argument("--input", required=True, help="graph6 file path or - for stdin")

    p = command("truncate", "finite-truncation series for infinite graphs", cmd_truncate, (cap,))
    p.add_argument("--family", choices=families.TRUNCATION_FAMILIES, required=True)
    p.add_argument("--depths", required=True, help="comma list or lo..hi range")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"cap reached: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
