"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run.

Each per-layer metric names the end-to-end metric it should move and the
workloads where it should move it (``moves``, ``on``), and where it is
predicted flat (``flat``), so that a change claiming a gain on one layer can
be held to that prediction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

END_TO_END = {
    "cmds_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(latencies_s: list[float], session_wall_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    ms = [t * 1000.0 for t in latencies_s]
    return {
        "cmds_per_s": len(ms) / session_wall_s,
        "cmd_p50_ms": statistics.median(ms),
        "cmd_p90_ms": p90(ms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    on: str
    flat: str


def _m(name: str, unit: str, moves: str, on: str, flat: str, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, better, moves, on, flat)


_ALL = "topology, structure, embed"
PER_LAYER = [
    _m("linalg.calls", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.self_s", "s", "cmds_per_s", _ALL, "none"),
    _m("linalg.rref.calls", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.rref.self_s", "s", "cmds_per_s", _ALL, "none"),
    _m("linalg.rref.cells", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.kernel.calls", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.intersect.calls", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.intersect.self_s", "s", "cmds_per_s", _ALL, "none"),
    _m("linalg.reduce.calls", "count", "cmds_per_s", _ALL, "none"),
    _m("linalg.reduce.self_s", "s", "cmds_per_s", _ALL, "none"),
    _m("algebra.multiply.calls", "count", "cmds_per_s, cmd_p90_ms", "structure", "embed"),
    _m("algebra.multiply.self_s", "s", "cmds_per_s, cmd_p90_ms", "structure", "embed"),
    _m("algebra.validate.self_s", "s", "cmds_per_s, cmd_p90_ms", "structure", "embed"),
    _m("algebra.self_s", "s", "cmds_per_s, cmd_p90_ms", "structure", "embed"),
    _m("modules.annihilator.calls", "count", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.annihilator.self_s", "s", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.spin.calls", "count", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.spin.self_s", "s", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.sub_quotient.calls", "count", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.vector_annihilator.calls", "count", "cmds_per_s", "structure, embed", "topology"),
    _m("modules.self_s", "s", "cmds_per_s", "structure, embed", "topology"),
    _m("meataxe.composition_factors.calls", "count", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed"),
    _m("meataxe.factors_out", "count", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed"),
    _m("meataxe.iso.calls", "count", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed"),
    _m("meataxe.iso.hit_ratio", "1", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed", "higher"),
    _m("meataxe.radical.calls", "count", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed"),
    _m("meataxe.self_s", "s", "cmds_per_s; cmd_p50_ms on topology", "structure, topology", "embed"),
    _m("topology.enumerate_irr.calls", "count", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.lattice.calls", "count", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.lattice.members", "count", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.lattice.intersect_per_member", "1", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.closed_family.self_s", "s", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.refined_closure.calls", "count", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.verify_form.calls", "count", "cmd_p90_ms, cmds_per_s", "topology", "structure, embed"),
    _m("topology.self_s", "s", "cmd_p90_ms, cmds_per_s; peak_rss_mb if lattices are cached", "topology", "structure, embed"),
    _m("pointclosure.validate.calls", "count", "cmd_p90_ms", "topology", "structure, embed"),
    _m("pointclosure.validate.self_s", "s", "cmd_p90_ms", "topology", "structure, embed"),
    _m("pointclosure.point_closure.self_s", "s", "cmd_p90_ms", "topology", "structure, embed"),
    _m("pointclosure.pairs_out", "count", "cmd_p90_ms", "topology", "structure, embed"),
    _m("pointclosure.self_s", "s", "cmd_p90_ms", "topology", "structure, embed"),
    _m("embeddings.find.calls", "count", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.find.candidates", "count", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.find.witness_ratio", "1", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure", "higher"),
    _m("embeddings.ann_of_vector.calls", "count", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.staged.self_s", "s", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.chain.self_s", "s", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.stability.subfamilies", "count", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("embeddings.self_s", "s", "cmd_p90_ms, cmds_per_s", "embed", "topology, structure"),
    _m("docs.parse.self_s", "s", "cmd_p50_ms", _ALL, "none"),
    _m("docs.resolve_factors.self_s", "s", "cmd_p50_ms", _ALL, "none"),
    _m("docs.render.self_s", "s", "cmd_p50_ms", _ALL, "none"),
    _m("docs.self_s", "s", "cmd_p50_ms", _ALL, "none"),
    _m("cli.self_s", "s", "cmd_p50_ms", _ALL, "none"),
    _m("cli.import_s", "s", "setup_s", _ALL, "none"),
    _m("trace.overhead_ratio", "1", "none", _ALL, "none"),
]

# Span names (as the tracer records them) behind each per-layer metric stem.
SPANS = {
    "linalg.rref": ["linalg.rref"],
    "linalg.kernel": ["linalg.kernel"],
    "linalg.intersect": ["linalg.Subspace.intersect"],
    "linalg.reduce": ["linalg.Subspace.reduce"],
    "algebra.multiply": ["algebra.Algebra.multiply"],
    "algebra.validate": ["algebra.validate_algebra"],
    "modules.annihilator": ["modules.annihilator"],
    "modules.spin": ["modules.spin_matrices"],  # every spin, primal or dual, runs through it
    "modules.sub_quotient": ["modules.sub_quotient"],
    "modules.vector_annihilator": ["modules.vector_annihilator"],
    "meataxe.composition_factors": ["meataxe.composition_factors"],
    "meataxe.iso": ["meataxe.is_isomorphic_simple"],
    "meataxe.radical": ["meataxe.jacobson_radical"],
    "topology.enumerate_irr": ["topology.enumerate_irr"],
    "topology.lattice": ["topology.semiprimitive_subspaces"],
    "topology.closed_family": ["topology.zariski_closed_family"],
    "topology.refined_closure": ["topology.refined_closure"],
    "topology.verify_form": ["topology.verify_closed_form"],
    "pointclosure.validate": ["pointclosure.FiniteSpace.validate"],
    "pointclosure.point_closure": ["pointclosure.point_closure"],
    "embeddings.find": ["embeddings.find_embedding"],
    "embeddings.ann_of_vector": ["embeddings.ann_of_vector"],
    "embeddings.staged": ["embeddings.staged_product_embedding"],
    "embeddings.chain": ["embeddings.chain_product_embedding"],
    "docs.parse": ["docs.parse_algebra", "docs.parse_family", "docs.parse_report", "docs.parse_preset_expr"],
    "docs.resolve_factors": ["docs.resolve_factors"],
    "docs.render": ["docs.render_report"],
    "cli": ["cli.run"],
}

RATIOS = {
    "meataxe.iso.hit_ratio": ("meataxe.iso.hits", "meataxe.iso.calls"),
    "topology.lattice.intersect_per_member": ("topology.lattice.intersects", "topology.lattice.members"),
    "embeddings.find.witness_ratio": ("embeddings.find.witnesses", "embeddings.find.candidates"),
}


def per_layer(tracer, import_s: float, overhead_ratio: float) -> dict:
    """Every per-layer metric from one traced pass."""
    counts = dict(tracer.counts)
    for stem, spans in SPANS.items():
        counts[f"{stem}.calls"] = sum(tracer.calls[s] for s in spans)
    layer_calls: dict = {}
    layer_self: dict = {}
    for span, n in tracer.calls.items():
        layer = span.split(".", 1)[0]
        layer_calls[layer] = layer_calls.get(layer, 0) + n
        layer_self[layer] = layer_self.get(layer, 0.0) + tracer.self_s[span]
    out: dict = {}
    for m in PER_LAYER:
        stem, _, what = m.name.rpartition(".")
        if m.name == "cli.import_s":
            out[m.name] = import_s
        elif m.name == "trace.overhead_ratio":
            out[m.name] = overhead_ratio
        elif m.name in RATIOS:
            num, den = RATIOS[m.name]
            out[m.name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif what == "self_s" and stem in SPANS:
            out[m.name] = sum(tracer.self_s[s] for s in SPANS[stem])
        elif what == "self_s":
            out[m.name] = layer_self.get(stem, 0.0)
        elif m.name.count(".") == 1 and what == "calls":
            out[m.name] = layer_calls.get(stem, 0)
        else:
            out[m.name] = counts.get(m.name, 0)
    return out


def count_metrics() -> list[str]:
    """Names of per-layer metrics that are deterministic for a fixed seed."""
    return [m.name for m in PER_LAYER if m.unit in ("count", "1") and m.name != "trace.overhead_ratio"]
