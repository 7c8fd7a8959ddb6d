"""CLI subcommands: outputs, exit codes, determinism."""

import json
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from dublo import families, graphs, write_graph6
from dublo.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_VERIFY_FAIL, RunConfig, main
from dublo.families import FamilySpec

from util import G10, connected_graphs_exactly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_runconfig_validation():
    with pytest.raises(Exception):
        RunConfig(tolerance_bisect=-1)
    with pytest.raises(Exception):
        RunConfig(size_cap=1)


def test_compute_k2(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "dublo/2"
    assert payload["c_g"] == 2.0
    assert payload["n"] == 2


def test_compute_family_petersen(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "petersen")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["c_g"] == pytest.approx(4.0, abs=1e-9)


def test_single_class_diameter_two_reports_counting_exactly(capsys):
    for argv, exact in (
        (["petersen"], "4/1"),
        (["clebsch"], "6/1"),
        (["complete", "--n", "5"], "5/1"),
        (["cocktail_party", "--n", "4"], "7/1"),
    ):
        code, out, _ = run_cli(capsys, "compute", "--family", *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_count"] == 1 and payload["notes"]["diam2_shortcut"], argv
        assert payload["class_sizes"] == [payload["n"]], argv
        assert payload["c_g_exact"] == exact, argv
        assert Fraction(payload["c_g_exact"]) == payload["c_g"], argv


def test_compute_family_cocktail_party(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cocktail_party", "--n", "3")
    payload = json.loads(out)
    assert payload["c_g"] == pytest.approx(5.0, abs=1e-9)


def test_compute_reports_class_sizes(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "path", "--n", "9")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class_count"] == 5
    assert payload["class_sizes"] == [1, 2, 2, 2, 2]


def test_compute_reports_each_fact_once(tmp_path, capsys):
    # G10 has one refinement class but two Aut orbits, so nothing may call it
    # vertex-transitive; diameter, class count and exact counting constant
    # each have one top-level home
    path = tmp_path / "g10.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in G10.edges()))
    keys = {
        "schema", "n", "m", "diam", "c0", "c_g", "c_g_exact", "bracket", "minimizer",
        "class_count", "class_sizes", "notes", "lemachorra",
    }
    for extra in ((), ("--certificate",)):
        code, out, _ = run_cli(capsys, "compute", "--input", str(path), *extra)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == keys | ({"certificate"} if extra else set())
        assert set(payload["notes"]) == {"lp_solves", "diam2_shortcut"}
        assert payload["class_count"] == len(payload["class_sizes"]) == 1
        assert sum(payload["class_sizes"]) == payload["n"] == 10
        assert "vertex_transitive" not in out
    for argv in (["path", "--n", "9"], ["doyle"]):
        payload = json.loads(run_cli(capsys, "compute", "--family", *argv)[1])
        assert set(payload) == keys, argv
        assert payload["class_count"] == len(payload["class_sizes"]), argv
        assert sum(payload["class_sizes"]) == payload["n"], argv


def test_compute_with_measure_file(tmp_path, capsys):
    graph = tmp_path / "c5.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    mfile = tmp_path / "mu.txt"
    mfile.write_text("0 1\n1 1\n2 1\n3 1\n4 1\n")
    code, out, _ = run_cli(
        capsys, "compute", "--input", str(graph), "--measure", str(mfile)
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["measure_report"]["c_mu"] == "3/1"


def test_each_graph_gets_one_distance_table(tmp_path, capsys, monkeypatch):
    # distances is wrapped wherever the package binds it; each table it hands
    # out is kept, so a table built twice shows as two distinct objects
    handed = []
    original = graphs.distances

    def handing(g):
        handed.append(original(g))
        return handed[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dublo" and getattr(module, "distances", None) is original:
            monkeypatch.setattr(module, "distances", handing)
    mfile = tmp_path / "mu.txt"
    mfile.write_text("".join(f"{v} 1\n" for v in range(27)))
    records = tmp_path / "three.g6"
    records.write_text("".join(write_graph6(g) + "\n" for g in connected_graphs_exactly(4)[:3]))
    runs = [
        (("compute", "--family", "doyle", "--measure", str(mfile)), 1),
        (("batch", "--input", str(records)), 3),
        (("verify", "--only", "doyle"), 1),
    ]
    for argv, tables in runs:
        handed.clear()
        assert run_cli(capsys, *argv)[0] == EXIT_OK, argv
        assert len({id(table) for table in handed}) == tables, argv


def test_compute_certificate_doyle(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "doyle", "--certificate")
    payload = json.loads(out)
    assert payload["c_g_exact"] == "27/5"
    assert payload["certificate"]["c_mu_exact"] == "27/5"


def test_exit_code_parse(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_exit_code_validation_disconnected(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_VALIDATION


def test_exit_code_validation_size_cap(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(600)))
    code, _, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_VALIDATION


def test_a_cap_is_named_a_cap(tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--family", "path", "--n", "600")
    assert code == EXIT_VALIDATION and out == ""
    assert err == "cap reached: graph has 600 vertices, cap is 512\n"
    path = tmp_path / "disc.txt"
    path.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_VALIDATION and err.startswith("validation error: ")


def test_deterministic_output(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n1 3\n")
    _, out1, _ = run_cli(capsys, "compute", "--input", str(path))
    _, out2, _ = run_cli(capsys, "compute", "--input", str(path))
    assert out1 == out2


def test_spectral_command(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--family", "star", "--n", "4")
    payload = json.loads(out)
    assert payload["radius"] == pytest.approx(2.0, abs=1e-11)
    assert payload["c0"] == pytest.approx(3.0, abs=1e-11)


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "d_hat_n", "--n", "7")
    payload = json.loads(out)
    assert payload["verdict"] == "eq3"
    assert payload["family_match"] == "D_hat_n"


def test_family_command_graph6(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "petersen", "--emit", "g6")
    payload = json.loads(out)
    assert payload["n"] == 10
    assert payload["expected"]["c_g"] == 4.0


def test_family_command_clebsch_flags(capsys):
    _, out, _ = run_cli(capsys, "family", "--family", "clebsch")
    payload = json.loads(out)
    assert payload["expected"]["literature_value"] == 5.0
    assert "discrepancy" in payload["expected"]["note"]


def test_truncate_command(capsys):
    code, out, _ = run_cli(
        capsys, "truncate", "--family", "path_N", "--depths", "2..6"
    )
    payload = json.loads(out)
    c0s = [r["c0"] for r in payload["records"]]
    assert c0s == sorted(c0s)
    assert len(c0s) == 5


def test_truncate_grid_ray(capsys):
    code, out, _ = run_cli(
        capsys, "truncate", "--family", "grid_ray", "--depths", "2,4"
    )
    payload = json.loads(out)
    assert payload["records"][0]["counting_ratio"] == "32/5"


def test_truncate_honours_the_size_cap(capsys):
    for argv in (
        ["--family", "grid_ray", "--depths", "8"],  # 1326 vertices over the default 512
        ["--family", "path_N", "--depths", "200", "--size-cap", "100"],
    ):
        code, out, err = run_cli(capsys, "truncate", *argv)
        assert code == EXIT_VALIDATION and out == "", argv
        assert "cap is" in err, argv
    code, _, _ = run_cli(capsys, "compute", "--family", "path", "--n", "200", "--size-cap", "100")
    assert code == EXIT_VALIDATION
    code, out, _ = run_cli(
        capsys, "truncate", "--family", "grid_ray", "--depths", "8", "--size-cap", "2000"
    )
    assert code == EXIT_OK
    assert json.loads(out)["records"][0]["n"] == 1326


def test_size_cap_env(capsys, monkeypatch):
    # --size-cap is the cap's only source: a DUBLO_SIZE_CAP in the environment is not read
    for env in ("3", "abc"):
        monkeypatch.setenv("DUBLO_SIZE_CAP", env)
        code, out, _ = run_cli(capsys, "compute", "--family", "path", "--n", "4")
        assert code == EXIT_OK and json.loads(out)["n"] == 4, env


def test_verify_only_three_legs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "three_legs")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert abs(row["measured"] - 3.0861) <= 1e-4
    assert row["pass"]


def test_verify_only_doyle_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "doyle")
    payload = json.loads(out)
    assert payload["rows"][0]["pass"] and payload["rows"][0]["measured"] == 5.4


def test_verify_unknown_group(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nope")
    assert code == EXIT_VALIDATION


def test_verify_full_run_all_rows_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert all(row["pass"] for row in payload["rows"])
    assert len(payload["rows"]) >= 45


# every verify row as the table prints it: (group, name, expected, tol), in order
VERIFY_TABLE = (
    [("complete", f"complete_n{n}", float(n), 1e-6) for n in range(3, 9)]
    + [
        ("star", f"star_n{n}", value, 1e-6)
        for n, value in zip(range(2, 10), (
            2.41421356237, 2.73205080757, 3.0, 3.2360679775, 3.44948974278, 3.64575131106,
            3.82842712475, 4.0,
        ))
    ]
    + [("cycle", f"cycle_n{n}", 3.0, 1e-6) for n in range(3, 13)]
    + [
        ("bipartite", "K_1_2", 2.41421356237, 1e-6),
        ("bipartite", "K_2_3", 3.44948974278, 1e-6),
        ("bipartite", "K_3_3", 4.0, 1e-6),
        ("bipartite", "K_2_5", 4.16227766017, 1e-6),
    ]
    + [
        ("wheel", f"wheel_n{n}", value, 1e-6)
        for n, value in zip(range(5, 11), (
            4.2360679775, 4.44948974278, 4.64575131106, 4.82842712475, 5.0, 5.16227766017,
        ))
    ]
    + [
        ("friendship", f"friendship_n{n}", value, 1e-6)
        for n, value in zip(range(1, 6), (
            3.0, 3.56155281281, 4.0, 4.37228132327, 4.70156211872,
        ))
    ]
    + [("cocktail_party", f"cocktail_n{n}", 2.0 * n - 1, 1e-6) for n in range(2, 6)]
    + [
        ("petersen", "petersen", 4.0, 1e-6),
        ("hoffman_singleton", "hoffman_singleton", 8.0, 1e-6),
        ("three_legs", "three_legs", 3.08613019765, 1e-6),
        ("doyle", "doyle_27_5", 5.4, 1e-6),
        ("e8", "e8_lower_bound", 3.02058330252, 1e-4),
        ("e6", "e6_below_3", 3.0, 1e-9),
        ("e7", "e7_below_3", 3.0, 1e-9),
        ("smith", "smith_c0_table", 0.0, 1e-9),
        ("path_threshold", "path_threshold_n8", 1.0, 0.0),
    ]
)


def test_verify_table_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify")
    rows = json.loads(out)["rows"]
    assert code == EXIT_OK and len(rows) == 52
    assert [(r["group"], r["name"], r["expected"], r["tol"]) for r in rows] == VERIFY_TABLE


# one stated fact per row kind, each changed so that its row alone must fail
STATED_FACT_CHANGES = [
    ("complete_n5", FamilySpec("complete", n=5), {"c_g": 5.5}),
    ("doyle_27_5", FamilySpec("doyle"), {"c_g_exact": Fraction(28, 5)}),
    ("three_legs", FamilySpec("three_legs"), {"literature_value": 3.2}),
    ("e8_lower_bound", FamilySpec("e8"), {"c_g": 3.5}),
    ("e6_below_3", FamilySpec("e6"), {"c_g": 2.9}),
    ("smith_c0_table", FamilySpec("e7"), {"c0": 2.5}),
]


@pytest.mark.parametrize(
    "row, spec, change", STATED_FACT_CHANGES, ids=[c[0] for c in STATED_FACT_CHANGES]
)
def test_verify_reads_each_stated_fact(monkeypatch, capsys, row, spec, change):
    stated = families.expected_constant

    def changed(asked):
        expected = stated(asked)
        return replace(expected, **change) if asked == spec else expected

    monkeypatch.setattr(families, "expected_constant", changed)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    assert [r["name"] for r in json.loads(out)["rows"] if not r["pass"]] == [row]


def test_verify_reads_the_path_threshold(monkeypatch, capsys):
    monkeypatch.setattr(families, "PATH_C0_EQUALITY_MAX_N", families.PATH_C0_EQUALITY_MAX_N - 1)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY_FAIL
    payload = json.loads(out)
    failed = [r for r in payload["rows"] if not r["pass"]]
    assert [(r["name"], r["measured"], r["expected"], r["tol"]) for r in failed] == [
        ("path_threshold_n7", 0.0, 1.0, 0.0)
    ]
    assert (len(payload["rows"]), payload["failures"]) == (52, 1)


def test_truncate_d_infinity_c0_below_3(capsys):
    code, out, _ = run_cli(capsys, "truncate", "--family", "d_infinity", "--depths", "10")
    payload = json.loads(out)
    assert payload["records"][0]["c0"] <= 3 + 1e-9


# ---------------------------------------------------------------- batch


@pytest.fixture(scope="module")
def g6_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("g6") / "conn5.g6"
    lines = sorted(write_graph6(g) for g in connected_graphs_exactly(5))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_batch_counts_connected_5(g6_corpus, capsys):
    code, out, _ = run_cli(capsys, "batch", "--input", str(g6_corpus))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["rows"]) == 21
    assert payload["skipped"] == 0


def test_batch_diameter2_rows_have_zero_gap(g6_corpus, capsys):
    _, out, _ = run_cli(capsys, "batch", "--input", str(g6_corpus))
    payload = json.loads(out)
    for row in payload["rows"]:
        if row["diam"] <= 2:
            assert abs(row["gap"]) <= 1e-6


def test_batch_skips_malformed(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_text("A_\n&&&bad\n")
    code, out, err = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["rows"]) == 1 and payload["skipped"] == 1
    assert "skipping line" in err


def test_batch_skips_non_ascii_record(tmp_path, capsys):
    # K6 is "E~~w"; a non-ASCII body character must not decode as another graph
    path = tmp_path / "mangled.g6"
    path.write_text("E\u00e9~w\nE~~w\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["skipped"] == 1
    assert [row["index"] for row in payload["rows"]] == [1]


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == []


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 0\n"))
    code, out, _ = run_cli(capsys, "compute", "--input", "-")
    assert code == EXIT_OK
    assert json.loads(out)["c_g"] == 3.0


def _byte_stdin(data: bytes):
    import io

    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii")


def test_batch_skips_non_utf8_record(tmp_path, monkeypatch, capsys):
    # K6 is "E~~w"; the byte 0xe9 alone is not UTF-8, in any locale
    data = b"E\xe9~w\nE~~w\n"
    path = tmp_path / "latin1.g6"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", _byte_stdin(data))
    for source in (str(path), "-"):
        code, out, err = run_cli(capsys, "batch", "--input", source)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["skipped"] == 1 and [row["index"] for row in payload["rows"]] == [1]
        assert "skipping line 0" in err


def test_non_utf8_edge_list_is_parse_error(tmp_path, monkeypatch, capsys):
    data = b"0 1\n1 \xe9\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", _byte_stdin(data))
    for source in (str(path), "-"):
        code, out, err = run_cli(capsys, "compute", "--input", source)
        assert code == EXIT_PARSE and out == ""
        assert "parse error" in err and "not UTF-8" in err


def test_unreadable_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--input", "/no/such/file.txt")
    assert code == EXIT_PARSE
    assert "cannot read" in err


# ---------------------------------------------------------------- one pass per graph


def test_compute_lemachorra_reports_the_run_c0(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "path", "--n", "30")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lemachorra"]["c0"] == payload["c0"]


def _count_perron_calls(monkeypatch) -> list:
    """Wrap perron at every binding inside the package; returns the call log."""
    import sys

    from dublo import optimizer, spectral

    original = spectral.perron
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dublo") and getattr(module, "perron", None) is original:
            monkeypatch.setattr(module, "perron", counted)
    assert spectral.perron is counted and optimizer.perron is counted
    return calls


@pytest.mark.parametrize(
    "argv, graphs",
    [
        (("compute", "--input", "tree.txt"), 1),
        (("compute", "--family", "e6", "--certificate"), 1),
        (("spectral", "--family", "d_n", "--n", "30"), 1),
        (("classify", "--family", "d_n", "--n", "12", "--cross-check"), 1),
        (("truncate", "--family", "d_infinity", "--depths", "4,8"), 2),
    ],
    ids=["compute", "compute-e6-certificate", "spectral-d_n", "classify-cross-check", "truncate"],
)
def test_compute_calls_perron_once(tmp_path, capsys, monkeypatch, argv, graphs):
    # one Perron pass per graph: building a family member computes no spectrum
    (tmp_path / "tree.txt").write_text("0 1\n1 2\n2 3\n3 4\n1 5\n5 6\n")
    monkeypatch.chdir(tmp_path)
    calls = _count_perron_calls(monkeypatch)
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert len(calls) == graphs


def test_batch_line_calls_perron_once(tmp_path, capsys, monkeypatch):
    from dublo import FamilySpec, generate

    path = tmp_path / "one.g6"
    path.write_text(write_graph6(generate(FamilySpec("e7"))) + "\n")
    calls = _count_perron_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == 1
    assert len(calls) == 1


# ---------------------------------------------------------------- family parameters


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compute", "--family", "e6", "--n", "99"), "family 'e6' takes no parameter n"),
        (("family", "--family", "petersen", "--depth", "2"), "takes no parameter depth"),
        (("truncate", "--family", "grid_ray", "--depths", "0,1"),
         "family 'grid_ray_truncation' needs depth >= 1"),
        (("truncate", "--family", "grid_ray", "--depths=-1,1"),
         "family 'grid_ray_truncation' needs depth >= 1"),
    ],
    ids=["compute-e6-n", "family-petersen-depth", "grid-ray-depth-0", "grid-ray-depth-minus-1"],
)
def test_the_family_table_decides_every_parameter(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and out == ""
    assert message in err


# ---------------------------------------------------------------- printed brackets


def test_printed_bracket_contains_the_computed_one(tmp_path, capsys):
    # each end is rounded outward to 12 significant digits: within one unit of the
    # 12th digit, lower end down and upper end up
    from dublo import catalog, least_doubling

    unit = Fraction(1, 10**11)
    for name, g in catalog():
        path = tmp_path / f"{name}.g6"
        path.write_text(write_graph6(g) + "\n")
        code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--format", "g6")
        assert code == EXIT_OK, name
        printed = json.loads(out, parse_float=Fraction)["bracket"]
        lo, hi = map(Fraction, least_doubling(g).bracket)
        assert lo - lo * unit <= printed[0] <= lo <= hi <= printed[1] <= hi + hi * unit, name


# ---------------------------------------------------------------- malformed input


@pytest.mark.parametrize("depths", ["x", "1..x"])
def test_truncate_malformed_depths_is_parse_error(capsys, depths):
    code, _, err = run_cli(capsys, "truncate", "--family", "path_N", "--depths", depths)
    assert code == EXIT_PARSE
    assert "parse error" in err


# ---------------------------------------------------------------- run settings

# the RunConfig fields each command reads, and an argv that runs the command
READS = {
    "compute": ({"tolerance_bisect", "certificate_mode", "size_cap"},
                ["--family", "path", "--n", "4"]),
    "spectral": ({"size_cap"}, ["--family", "path", "--n", "4"]),
    "classify": ({"tolerance_bisect", "size_cap"}, ["--family", "path", "--n", "4"]),
    "family": ({"size_cap"}, ["--family", "path", "--n", "4"]),
    "verify": ({"tolerance_bisect", "size_cap"}, ["--only", "three_legs"]),
    "batch": ({"tolerance_bisect", "size_cap"}, ["--input", "-"]),
    "truncate": ({"size_cap"}, ["--family", "path_N", "--depths", "2"]),
}
SETTING_FLAGS = {
    "tolerance_bisect": ["--tol", "1e-8"],
    "certificate_mode": ["--certificate"],
    "size_cap": ["--size-cap", "100"],
}


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    import argparse

    from dublo import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        assert run_cli(capsys, "family", "--family", "petersen")[0] == EXIT_OK
        first = len(built)
        assert run_cli(capsys, "spectral", "--family", "petersen")[0] == EXIT_OK
    finally:
        cli.build_parser.cache_clear()
    assert built.count("dublo") == 1 and len(built) == first


def test_each_command_takes_exactly_the_flags_it_reads(capsys):
    from dublo.cli import RunConfig, build_parser

    assert set(SETTING_FLAGS) == {f.name for f in fields(RunConfig)}
    ignored = []
    for command, (reads, base) in READS.items():
        for name, flag in SETTING_FLAGS.items():
            argv = [command, *base, *flag]
            if name in reads:
                assert getattr(build_parser().parse_args(argv), name) is not None, argv
                continue
            ignored.append((command, flag[0]))
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
    assert len(ignored) == 9
    assert {c for c, f in ignored if f == "--tol"} == {"spectral", "family", "truncate"}
    assert {c for c, f in ignored if f == "--certificate"} == set(READS) - {"compute"}


def test_each_command_reads_the_settings_in_its_table(capsys, monkeypatch):
    import io

    from dublo import cli

    read: set = set()

    class Spy:
        def __init__(self, config):
            self._config = config

        def __getattr__(self, name):
            read.add(name)
            return getattr(self._config, name)

    build = cli.build_config
    monkeypatch.setattr(cli, "build_config", lambda args: Spy(build(args)))
    for command, (reads, base) in READS.items():
        read.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO("CF\n"))  # K_{1,3}
        code, _, _ = run_cli(capsys, command, *base)
        assert code == EXIT_OK and read == reads, command


def test_output_formats_a_command_cannot_print_are_rejected(capsys):
    # every command prints JSON only, so no --output value is accepted, not even json
    for command, (_, base) in READS.items():
        for fmt in ("json", "text"):
            with pytest.raises(SystemExit) as exc:
                main([command, *base, "--output", fmt])
            assert exc.value.code == 2, (command, fmt)
            assert "unrecognized arguments" in capsys.readouterr().err, (command, fmt)


def test_removed_setting_flags_are_unrecognized_by_every_command(tmp_path, capsys):
    # the Perron tolerance is the constant spectral.EIG_TOL, no settings file is read,
    # and batch runs its lines in this process
    cfg = tmp_path / "dublo.cfg"
    cfg.write_text("size_cap = 100\n")
    removed = (["--eig-tol", "1e-3"], ["--config", str(cfg)], ["--jobs", "1"])
    for command, (_, base) in READS.items():
        for flag in removed:
            with pytest.raises(SystemExit) as exc:
                main([command, *base, *flag])
            assert exc.value.code == 2, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err, (command, flag)


@pytest.mark.parametrize("value", ["nan", "inf"], ids=["tol-nan", "tol-inf"])
def test_non_finite_tolerance_is_validation_error(capsys, value):
    code, out, err = run_cli(capsys, "compute", "--family", "three_legs", "--tol", value)
    assert code == EXIT_VALIDATION and out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "doyle"],
        ["compute", "--family", "doyle", "--certificate"],
        ["family", "--family", "doyle"],
        ["verify", "--only", "doyle"],
    ],
    ids=" ".join,
)
def test_doyle_commands_run_no_automorphism_search(capsys, monkeypatch, argv):
    from dublo import symmetry

    def refuse(*args, **kwargs):
        raise AssertionError("automorphism search on the compute path")

    monkeypatch.setattr(symmetry, "_AutSearch", refuse)
    assert run_cli(capsys, *argv)[0] == EXIT_OK


@pytest.mark.parametrize(
    "family, n", [("complete", 2000), ("cocktail_party", 1000), ("path", 1_000_000)]
)
def test_over_cap_family_fails_before_building_its_edges(capsys, family, n):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "compute", "--family", family, "--n", str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION and out == "" and "cap is 512" in err
    assert peak < 10 * 2**20
