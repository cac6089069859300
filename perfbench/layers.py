"""Per-layer metrics of the traced run.

Times and counts are per unit of work (one sweep tree, one verify
instance, one probe pass) so runs of different lengths compare; rates
are per second of the span they describe. A layer a workload never
enters reads 0 there: that is the "should not move" side of the
prediction each metric carries (see README.md).
"""

from __future__ import annotations

from spans import NameStats, Tracer

# name -> unit, in reporting order
PER_LAYER = {
    "search_uct.uct_search.self_s": "s/unit",
    "search_uct.iterations": "count/unit",
    "search_uct.nodes": "count/unit",
    "search_uct.expand_ratio": "frac",
    "search_uct.iterations_per_s": "1/s",
    "search_uct.Random.calls": "count/unit",
    "search_uct.Random.s": "s/unit",
    "search_minimax.Random.calls": "count/unit",
    "search_minimax.Random.s": "s/unit",
    "heuristics.evaluate.calls": "count/unit",
    "heuristics.evaluate.histogram.s": "s/unit",
    "heuristics.evaluate.gaussian.s": "s/unit",
    "heuristics.parse_heuristic.calls": "count/unit",
    "heuristics.parse_heuristic.s": "s/unit",
    "tree_model.child_value.calls": "count/unit",
    "tree_model.child_value.s": "s/unit",
    "tree_model.node_meta.s": "s/unit",
    "search_minimax.alphabeta.self_s": "s/unit",
    "search_minimax.frontier_evals": "count/unit",
    "search_minimax.evals_per_s": "1/s",
    "search_minimax.prune_ratio": "frac",
    "experiments.run_grid.self_s": "s/unit",
    "experiments.emit_results.s": "s/unit",
    "tree_model.mean_plus_fractions.s": "s/unit",
    "tree_model.enum.nodes_per_s": "1/s",
    "tree_model.enum.bytes_computed": "B/unit",
    "pv_model.leaf_sum_difference.s": "s/unit",
    "pv_model.leaf_sum.nodes_per_s": "1/s",
    "pv_model.pv_naive_plan.s": "s/unit",
    "pv_model.plan.steps_per_s": "1/s",
    "engine.session.handshake.s": "s/unit",
    "engine.session.self_s": "s/unit",
    "engine.session.go_sent": "count/unit",
    "engine.session.cache_hit_ratio": "frac",
    "engine.session.warnings": "count/unit",
    "engine.transport.recv.calls": "count/unit",
    "engine.transport.recv_wait_s": "s/unit",
    "engine.transport.send.s": "s/unit",
    "engine.transport.timeouts": "count",
    "trace.overhead_frac": "frac",
    "trace.spans": "count/unit",
    # stage timings on fixed inputs (stages.py)
    "bitmix.mix64.calls_per_s": "1/s",
    "bitmix.mix64_np.elems_per_s": "1/s",
    "engine.session.replay_pass_s": "s",
    "stage.uct_b2.it_per_s": "1/s",
    "stage.uct_b10.it_per_s": "1/s",
    "stage.grid_tree_s": "s",
    "stage.enum_b3.s_per_seed": "s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer, units: int, overhead: float, stages: dict[str, float]
) -> dict[str, float]:
    stats = tracer.summary()
    none = NameStats()

    def get(name: str) -> NameStats:
        return stats.get(name, none)

    def count(name: str) -> float:
        return tracer.counts.get(name, 0)

    def per(x: float) -> float:
        return x / units

    uct = get("search_uct.uct_search")
    ab = get("search_minimax.alphabeta")
    enum = get("tree_model.mean_plus_fractions")
    leaf = get("pv_model.leaf_sum_difference")
    plan = get("pv_model.pv_naive_plan")
    send, recv = get("engine.transport.send"), get("engine.transport.recv")
    evals = [s for n, s in stats.items() if n.startswith("heuristics.evaluate.")]
    engine_requests = get("engine.session.probe_eval").calls + get("engine.session.legal_moves").calls

    values = {
        "search_uct.uct_search.self_s": per(uct.self_s),
        "search_uct.iterations": per(count("search_uct.iterations")),
        "search_uct.nodes": per(count("search_uct.nodes")),
        "search_uct.expand_ratio": _ratio(count("search_uct.nodes"), count("search_uct.iterations")),
        "search_uct.iterations_per_s": _ratio(count("search_uct.iterations"), uct.total_s),
        "search_uct.Random.calls": per(get("search_uct.Random").calls),
        "search_uct.Random.s": per(get("search_uct.Random").total_s),
        "search_minimax.Random.calls": per(get("search_minimax.Random").calls),
        "search_minimax.Random.s": per(get("search_minimax.Random").total_s),
        "heuristics.evaluate.calls": per(sum(s.calls for s in evals)),
        "heuristics.evaluate.histogram.s": per(get("heuristics.evaluate.histogram").total_s),
        "heuristics.evaluate.gaussian.s": per(get("heuristics.evaluate.gaussian").total_s),
        "heuristics.parse_heuristic.calls": per(get("heuristics.parse_heuristic").calls),
        "heuristics.parse_heuristic.s": per(get("heuristics.parse_heuristic").total_s),
        "tree_model.child_value.calls": per(get("tree_model.child_value").calls),
        "tree_model.child_value.s": per(get("tree_model.child_value").total_s),
        "tree_model.node_meta.s": per(get("tree_model.node_meta").total_s),
        "search_minimax.alphabeta.self_s": per(ab.self_s),
        "search_minimax.frontier_evals": per(count("search_minimax.frontier_evals")),
        "search_minimax.evals_per_s": _ratio(count("search_minimax.frontier_evals"), ab.total_s),
        "search_minimax.prune_ratio": _ratio(
            count("search_minimax.frontier_evals"), count("search_minimax.full_frontier")
        ),
        "experiments.run_grid.self_s": per(get("experiments.run_grid").self_s),
        "experiments.emit_results.s": per(get("experiments.emit_results").total_s),
        "tree_model.mean_plus_fractions.s": per(enum.total_s),
        "tree_model.enum.nodes_per_s": _ratio(count("tree_model.enum.nodes"), enum.total_s),
        "tree_model.enum.bytes_computed": per(count("tree_model.enum.bytes")),
        "pv_model.leaf_sum_difference.s": per(leaf.total_s),
        "pv_model.leaf_sum.nodes_per_s": _ratio(count("pv_model.leaf_sum.nodes"), leaf.total_s),
        "pv_model.pv_naive_plan.s": per(plan.total_s),
        "pv_model.plan.steps_per_s": _ratio(count("pv_model.plan.steps"), plan.total_s),
        "engine.session.handshake.s": per(get("engine.session.handshake").total_s),
        "engine.session.self_s": per(
            get("engine.run_probe").total_s - send.total_s - recv.total_s
        ),
        "engine.session.go_sent": per(count("engine.session.go_sent")),
        "engine.session.cache_hit_ratio": (
            1.0 - _ratio(count("engine.session.go_sent"), engine_requests) if engine_requests else 0.0
        ),
        "engine.session.warnings": per(count("engine.session.warnings")),
        "engine.transport.recv.calls": per(recv.calls),
        "engine.transport.recv_wait_s": per(recv.total_s),
        "engine.transport.send.s": per(send.total_s),
        "engine.transport.timeouts": count("engine.transport.timeouts"),
        "trace.overhead_frac": overhead,
        "trace.spans": per(len(tracer)),
    }
    values.update(stages)
    return {name: values[name] for name in PER_LAYER}
