"""The tracer counts cross-module calls, computes self time, and restores
every binding it replaced."""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import irrtop  # noqa: E402
import irrtop.cli  # noqa: E402
from irrtop import linalg, meataxe  # noqa: E402
from irrtop.modules import regular_module  # noqa: E402
from irrtop.presets import upper_triangular  # noqa: E402

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings() -> dict:
    out = {}
    for name, mod in sys.modules.items():
        if name == "irrtop" or name.startswith("irrtop."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for cls in (linalg.Subspace, irrtop.algebra.Algebra, irrtop.pointclosure.FiniteSpace):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_install_rebinds_every_namespace_and_uninstall_restores_all():
    before = _bindings()
    kernel = linalg.kernel
    with Tracer():
        assert linalg.kernel is not kernel
        assert meataxe.kernel is linalg.kernel
        assert irrtop.kernel is linalg.kernel
        assert linalg.Subspace.intersect.__wrapped__ is before[("Subspace", "intersect")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_cross_module_calls_are_spans_with_parents():
    m = regular_module(upper_triangular(3, 2))
    with Tracer() as tracer:
        factors = meataxe.composition_factors(m, seed=1)
    names = tracer.names
    kernel_spans = [i for i, n in enumerate(tracer.span_name) if names[n] == "linalg.kernel"]
    assert tracer.calls["meataxe.composition_factors"] == 1
    assert tracer.calls["linalg.kernel"] == len(kernel_spans) > 0
    assert all(tracer.span_parent[i] >= 0 for i in kernel_spans)
    assert tracer.counts["meataxe.factors_out"] == len(factors) == 6
    assert tracer.counts["linalg.rref.cells"] > 0


def test_self_times_add_up_to_the_root_span():
    m = regular_module(upper_triangular(3, 2))
    with Tracer() as tracer:
        meataxe.jacobson_radical(m.algebra, seed=2)
    roots = [i for i in range(len(tracer.span_start)) if tracer.span_parent[i] < 0]
    assert len(roots) == 1
    total = tracer.span_end[roots[0]] - tracer.span_start[roots[0]]
    self_sum = sum(tracer.self_s.values())
    assert all(v >= 0 for v in tracer.self_s.values())
    assert abs(self_sum - total) < 1e-6 * max(1.0, len(tracer.span_start))


def test_cli_run_is_the_root_of_a_traced_command(tmp_path, monkeypatch):
    (tmp_path / "a.alg").write_text("preset: upper_triangular(2, 2)\n")
    monkeypatch.chdir(tmp_path)
    with Tracer() as tracer:
        code, out = irrtop.cli.run(["radical", "--in", "a.alg", "--format", "structured"])
    assert code == 0
    root = tracer.names[tracer.span_name[0]]
    assert root == "cli.run" and tracer.span_parent[0] == -1
    values = metrics.per_layer(tracer, import_s=0.1, overhead_ratio=1.0)
    assert set(values) == {m.name for m in metrics.PER_LAYER}
    assert values["cli.self_s"] > 0 and values["meataxe.radical.calls"] == 1
    assert values["docs.parse.self_s"] > 0 and values["docs.render.self_s"] > 0


def test_spans_are_written_out(tmp_path):
    m = linalg.as_matrix([[1, 1], [0, 1]], 2)
    with Tracer() as tracer:
        linalg.rref(m, 2)
    path = tmp_path / "spans.tsv.gz"
    assert tracer.write_spans(str(path)) == 1
    lines = gzip.open(path, "rt").read().splitlines()
    assert lines[0].split("\t") == ["id", "parent", "name", "start_s", "end_s"]
    assert lines[1].split("\t")[:3] == ["0", "-1", "linalg.rref"]
