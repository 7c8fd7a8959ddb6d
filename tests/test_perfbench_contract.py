"""The names the benchmark's tracer binds to, exercised once each.

``perfbench/tracer.py`` wraps public functions by name wherever the package
binds them and reads attributes of their arguments and results (for example
``doubling_report``'s ``mu``, passed by keyword).  A renamed function or a
moved argument would break only the traced benchmark run, so this test runs
the tracer's own ``install_targets`` and sends one request through every
target.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from dublo import FeasibilityProblem, generate, optimizer, symmetry, write_graph6
from dublo.cli import EXIT_OK, main
from dublo.families import FamilySpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_records_a_span(tmp_path, capsys):
    tracing = load_tracer()
    names = set()

    class Recording(tracing.Tracer):
        def target(self, name, owner, attr, counts=None):
            names.add(name)
            super().target(name, owner, attr, counts)

    tr = Recording()
    tracing.install_targets(tr)
    tree = generate(FamilySpec("three_legs"))
    records = tmp_path / "one.g6"
    records.write_text(write_graph6(tree) + "\n")
    edges = tmp_path / "c5.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    mfile = tmp_path / "mu.txt"
    mfile.write_text("".join(f"{v} 1\n" for v in range(5)))
    runs = [
        ["batch", "--input", str(records)],
        ["compute", "--input", str(edges), "--measure", str(mfile)],
        ["compute", "--family", "e6", "--certificate"],
    ]
    emitted = 0
    for req_id, argv in enumerate(runs):
        with tr.request(req_id):
            assert main(argv) == EXIT_OK, argv
        emitted += len(capsys.readouterr().out)
    with tr.request(len(runs)):
        optimizer.check_lemachorra(tree)
        FeasibilityProblem(tree).check_exact(Fraction(3))
        symmetry.orbit_partition(tree)
        symmetry.is_vertex_transitive(tree)

    assert len(names) == 17
    assert names <= {span.name for span in tr.spans}
    assert [span.name for span in tr.spans if span.attrs.get("raised")] == []
    reports = [span.attrs["exact"] for span in tr.spans if span.name == "doubling.report"]
    assert True in reports and False in reports  # the --measure file, the Perron measure
    metrics = tracing.layer_metrics(tr.spans, len(runs) + 1, emitted / len(runs))
    assert metrics["optimizer.lp.solves_per_req"] > 0
    assert metrics["exactlp.simplex.calls_per_req"] > 0
    assert 0 < metrics["trace.coverage"] <= 1
