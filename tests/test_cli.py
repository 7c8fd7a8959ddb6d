"""CLI subcommands: outputs, exit codes, determinism, batch parallelism."""

import json

import pytest

from dublo import write_graph6
from dublo.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, RunConfig, main

from util import connected_graphs_exactly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_runconfig_validation():
    with pytest.raises(Exception):
        RunConfig(tolerance_bisect=-1)
    with pytest.raises(Exception):
        RunConfig(size_cap=1)
    with pytest.raises(Exception):
        RunConfig(output_format="yaml")


def test_compute_k2(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "dublo/1"
    assert payload["c_g"] == 2.0
    assert payload["n"] == 2


def test_compute_family_petersen(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "petersen")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["c_g"] == pytest.approx(4.0, abs=1e-9)


def test_compute_family_cocktail_party(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "cocktail_party", "--n", "3")
    payload = json.loads(out)
    assert payload["c_g"] == pytest.approx(5.0, abs=1e-9)


def test_compute_reports_class_sizes(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "path", "--n", "9")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["orbit_count"] == 5
    assert payload["orbit_sizes"] == [1, 2, 2, 2, 2]


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


def test_batch_parallel_matches_serial(g6_corpus, capsys):
    _, serial, _ = run_cli(capsys, "batch", "--input", str(g6_corpus), "--output", "csv")
    _, parallel, _ = run_cli(
        capsys, "batch", "--input", str(g6_corpus), "--output", "csv", "--jobs", "2"
    )
    assert serial == parallel


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


def test_batch_workers_capped_by_line_count(tmp_path, capsys, monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("dublo.cli.ProcessPoolExecutor", SerialPool)
    path = tmp_path / "three.g6"
    path.write_text("A_\nBw\nCF\n")
    _, serial, _ = run_cli(capsys, "batch", "--input", str(path), "--output", "csv")
    _, wide, _ = run_cli(
        capsys, "batch", "--input", str(path), "--output", "csv", "--jobs", "64"
    )
    assert wide == serial
    assert all(w <= 3 for w in workers)


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


def test_unreadable_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--input", "/no/such/file.txt")
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "dublo.cfg"
    cfg.write_text("tolerance_bisect = 1e-6\noutput_format = text\n")
    graph = tmp_path / "k2.txt"
    graph.write_text("0 1\n")
    # config sets text, flag overrides back to json
    code, out, _ = run_cli(
        capsys,
        "compute",
        "--input",
        str(graph),
        "--config",
        str(cfg),
        "--output",
        "json",
    )
    assert code == EXIT_OK
    json.loads(out)


# ---------------------------------------------------------------- one pass per graph


def test_compute_lemachorra_uses_run_eig_tol(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--family", "path", "--n", "30", "--eig-tol", "1e-3"
    )
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


def test_compute_calls_perron_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tree.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n1 5\n5 6\n")
    calls = _count_perron_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "compute", "--input", str(path))
    assert code == EXIT_OK
    assert len(calls) == 1


def test_batch_line_calls_perron_once(tmp_path, capsys, monkeypatch):
    from dublo import FamilySpec, generate

    path = tmp_path / "one.g6"
    path.write_text(write_graph6(generate(FamilySpec("e7"))) + "\n")
    calls = _count_perron_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK and len(json.loads(out)["rows"]) == 1
    assert len(calls) == 1


# ---------------------------------------------------------------- malformed input


@pytest.mark.parametrize("depths", ["x", "1..x"])
def test_truncate_malformed_depths_is_parse_error(capsys, depths):
    code, _, err = run_cli(capsys, "truncate", "--family", "path_N", "--depths", depths)
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("line", ["tolerance_bisect = abc", "size_cap = 1.5"])
def test_config_malformed_number_is_parse_error(tmp_path, capsys, line):
    cfg = tmp_path / "dublo.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, "compute", "--family", "petersen", "--config", str(cfg))
    assert code == EXIT_PARSE
    assert "parse error" in err
