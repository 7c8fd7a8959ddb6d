"""Command-line surface: compute, spectral, classify, family, verify, batch, truncate.

All machine output carries the schema tag "dublo/2"; floats are printed with
12 significant digits and exact rationals as "p/q" strings, so identical
inputs and configuration produce byte-identical reports.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error, 4 solver breakdown.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import classifier, families, optimizer, spectral
from .doubling import counting_measure, doubling_report, load_measure_text
from .errors import ParseError, SizeCapError, SolverError, ValidationError
from .families import FamilySpec
from .graphs import (
    DEFAULT_SIZE_CAP, Graph, distances, parse_edge_list, parse_graph6, write_graph6
)

SCHEMA = "dublo/2"
_ENV_SIZE_CAP = "DUBLO_SIZE_CAP"

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
    """Run settings: each is a flag, a config-file key and a library default."""

    tolerance_bisect: float = _setting(
        optimizer.DEFAULT_BISECT_TOL, "--tol", "largest width of the C_G bracket"
    )
    tolerance_eig: float = _setting(spectral.DEFAULT_EIG_TOL, "--eig-tol", "Perron tolerance")
    certificate_mode: bool = _setting(False, "--certificate", "exact certificate of the minimizer")
    size_cap: int = _setting(DEFAULT_SIZE_CAP, "--size-cap", "vertex cap (env DUBLO_SIZE_CAP)")
    output_format: str = _setting("json", "--output", "output format")
    parallelism: int = _setting(1, "--jobs", "worker processes")

    def __post_init__(self) -> None:
        if not all(0 < tol < math.inf for tol in (self.tolerance_bisect, self.tolerance_eig)):
            raise ValidationError("tolerances must be finite and > 0")  # NaN included
        if self.size_cap < 2:
            raise ValidationError("size cap must be >= 2")
        if self.output_format not in ("json", "csv", "text"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")


_SETTINGS = {f.name: f for f in fields(RunConfig)}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


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


def _parse_config_file(path: str) -> dict:
    """Flat TOML-style 'key = value' file; only RunConfig keys are accepted."""
    values: dict = {}
    for lineno, raw in enumerate(_read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip().strip('"').strip("'")
        if key not in _SETTINGS:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = type(_SETTINGS[key].default)
        try:
            values[key] = _BOOLS[val.lower()] if kind is bool else kind(val)
        except (KeyError, ValueError):
            raise ParseError(f"{path}:{lineno}: malformed value {val!r} for {key}") from None
    return values


def _env_size_cap() -> int:
    """The vertex cap from the DUBLO_SIZE_CAP env var, else the library default."""
    raw = os.environ.get(_ENV_SIZE_CAP)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_ENV_SIZE_CAP} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValidationError(f"{_ENV_SIZE_CAP} must be >= 2, got {cap}")
    return cap


def build_config(args: argparse.Namespace) -> RunConfig:
    """Settings by precedence: flag, then config file, then DUBLO_SIZE_CAP, then default."""
    values: dict = {"size_cap": _env_size_cap()}
    if args.config:
        values.update(_parse_config_file(args.config))
    values.update(
        (name, val) for name in _SETTINGS if (val := getattr(args, name, None)) is not None
    )
    # argparse checks a flag's format; this catches one from the config file
    if values.get("output_format", RunConfig.output_format) not in args.output_choices:
        raise ParseError(
            f"{args.command} cannot print {values['output_format']!r} output; "
            f"choose from {', '.join(args.output_choices)}"
        )
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
    dt = distances(g)
    result = optimizer.least_doubling(
        g,
        tol=config.tolerance_bisect,
        certificate=config.certificate_mode,
        eig_tol=config.tolerance_eig,
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
            "c_mu_exact": cert.c_mu_exact,
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
        "c0": res.c0,
        "residual": res.residual,
        "iterations": res.iterations,
        "eigvec_min1": [float(x) for x in res.eigvec],
    }
    emit(payload, config, text_lines=[f"radius = {res.radius:.12g}", f"c0 = {res.c0:.12g}"])
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
    """(group, name, fn) rows, fn() -> (measured, expected, tol, passed); see families."""
    tol_c = 1e-6

    def run(g, **kw):
        return optimizer.least_doubling(
            g, tol=config.tolerance_bisect, eig_tol=config.tolerance_eig, **kw
        )

    def family(spec):
        return families.generate(spec, cap=config.size_cap)

    def closed_form_row(spec):
        value, expected = run(family(spec)).c_g, families.expected_constant(spec).c_g
        return value, expected, tol_c, abs(value - expected) <= tol_c

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
        counting = doubling_report(g, mu=counting_measure(g))
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
            c0 = spectral.perron(family(spec), tol=config.tolerance_eig).c0
            worst = max(worst, abs(c0 - families.smith_c0_table(spec)))
        return worst, 0.0, 1e-9, worst <= 1e-9

    def path_threshold_row():
        good = True
        for n in range(2, 13):
            rec = optimizer.check_lemachorra(family(FamilySpec("path", n=n)))
            good &= rec["equal"] if n <= 8 else rec["c_mu0_full"] - rec["c0"] > 1e-4
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
        res = optimizer.least_doubling(g, tol=tol, eig_tol=eig_tol)
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
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    items = [
        (i, ln, config.tolerance_bisect, config.tolerance_eig, config.size_cap)
        for i, ln in lines
    ]
    # a fork-started pool launches all its workers at once: cap by lines and cores
    workers = min(config.parallelism, len(items), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

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
    records = families.truncation_study(
        args.family, depths, cap=config.size_cap, eig_tol=config.tolerance_eig
    )
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

    def command(command_name, help, fn, settings, outputs=("json", "text")):
        p = sub.add_parser(command_name, help=help)
        p.set_defaults(fn=fn, output_choices=outputs)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for name in settings:
            meta, kind = _SETTINGS[name].metadata, type(_SETTINGS[name].default)
            if kind is bool:
                kw = {"action": "store_true"}
            elif name == "output_format":
                kw = {"choices": outputs}
            else:
                kw = {"type": kind, "metavar": meta["flag"][2:].upper().replace("-", "_")}
            p.add_argument(meta["flag"], dest=name, default=None, help=meta["help"], **kw)
        return p

    bisect, eig, cap, out = "tolerance_bisect", "tolerance_eig", "size_cap", "output_format"

    p = command("compute", "C_G, bracket, minimizer for one graph", cmd_compute,
                (bisect, eig, "certificate_mode", cap, out))
    _add_graph_input(p)
    p.add_argument("--measure", default=None, help="measure file to evaluate alongside")

    p = command("spectral", "spectral radius and Perron vector", cmd_spectral, (eig, cap, out))
    _add_graph_input(p)

    p = command("classify", "position of C_G relative to 3", cmd_classify, (bisect, cap, out))
    _add_graph_input(p)
    p.add_argument("--cross-check", action="store_true", default=False)

    p = command("family", "emit a named family graph", cmd_family, (cap, out))
    _add_family(p, required=True)
    p.add_argument("--emit", choices=("edgelist", "g6"), default="edgelist")

    p = command("verify", "reproduce the catalog of stated constants", cmd_verify,
                (bisect, eig, cap, out))
    p.add_argument("--only", default=None, help="run a single verification group")

    p = command("batch", "stream of graph6 records -> constants table", cmd_batch,
                (bisect, eig, cap, out, "parallelism"), outputs=("json", "csv"))
    p.add_argument("--input", required=True, help="graph6 file path or - for stdin")

    p = command("truncate", "finite-truncation series for infinite graphs", cmd_truncate,
                (eig, cap, out))
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
