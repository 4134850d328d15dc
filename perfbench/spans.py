"""Per-layer numbers from the spans of one traced command (tracer.py).

A span is [name, start, end, parent, counters]; `parent` indexes the
enclosing span (-1 at the root) and the layer is the name's first dotted
part. A layer's self time is the duration of its spans minus the part
their child spans cover.
"""

import statistics

LAYERS = ("cli", "graphs", "signals", "forests", "estimators", "linalg",
          "experiments", "ssl")
WALK_TABLES = "graphs.Graph.walk_tables"

# (name, unit) of every per-layer metric, in report order. Counts and
# times are 0 where a workload does not use the layer, and so are ratios
# whose base is then 0.
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.write_s", "s"),
    ("graphs.build_s", "s"), ("graphs.walk_tables_s", "s"),
    ("signals.load_s", "s"),
    ("forests.draws", "count"), ("forests.draw_s", "s"), ("forests.draw_ms.p50", "ms"),
    ("forests.walk_steps", "count"), ("forests.ns_per_step", "ns"),
    ("forests.rng_s", "s"), ("forests.unique_draw_ratio", "1"),
    ("estimators.xbar_s", "s"), ("estimators.add_s", "s"),
    ("estimators.add_calls", "count"), ("estimators.step_s", "s"),
    ("estimators.mc_self_s", "s"),
    ("linalg.cg_s", "s"), ("linalg.cg_calls", "count"),
    ("linalg.cg_iterations", "count"), ("linalg.lap_applies", "count"),
    ("linalg.lap_apply_us.p50", "us"), ("linalg.kinv_applies", "count"),
    ("linalg.lap_bytes", "B-computed"), ("linalg.lap_GBps", "GB/s-computed"),
    ("experiments.self_s", "s"), ("experiments.var_ratio", "1"),
    ("ssl.forest_self_s", "s"), ("ssl.exact_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "experiments"] + [
    ("trace.covered_s", "s"), ("trace.uncovered_s", "s"), ("trace.overhead_s", "s"),
]


def drop_repeats(spans, name):
    """Keep the first span called `name` and fold later ones into their
    parents, so that only the first call counts on its own."""
    keep, new_index, seen = [], {}, False
    for i, span in enumerate(spans):
        if span[0] == name:
            if seen:
                new_index[i] = new_index.get(span[3], -1)
                continue
            seen = True
        new_index[i] = len(keep)
        keep.append(list(span))
    for span in keep:
        span[3] = new_index.get(span[3], -1)
    return keep


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def covered(spans, names):
    """Time inside spans with one of `names`, nested ones counted once."""
    total = 0.0
    for s in spans:
        if s[0] in names:
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += s[2] - s[1]
    return total


def _named(spans, name):
    return [s for s in spans if s[0] == name]


def _counter(spans, key):
    return sum((s[4] or {}).get(key, 0) for s in spans)


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(raw_spans):
    """Per-layer metrics of one traced command (trace.* and
    experiments.var_ratio are filled in by the caller)."""
    spans = drop_repeats(raw_spans, WALK_TABLES)
    own = self_times(spans)
    by_layer = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        by_layer[s[0].split(".", 1)[0]] += t
    draws = [(s, t) for s, t in zip(spans, own) if s[0] == "forests.sample_forest"]
    draw_s = sum(t for _, t in draws)
    steps = _counter([s for s, _ in draws], "steps")
    keys = {tuple(s[4]["key"]) for s, _ in draws if s[4] and s[4]["key"] is not None}
    laps = _named(spans, "linalg.LaplacianOperator.apply")
    lap_s = sum(s[2] - s[1] for s in laps)
    lap_bytes = _counter(laps, "bytes")
    walk = _named(spans, WALK_TABLES)
    cg = _named(spans, "linalg.solve_exact_cg")
    m = {
        "cli.import_s": covered(spans, {"cli.import"}),
        "cli.write_s": covered(spans, {"cli._write_json", "cli._write_rows_csv"}),
        "graphs.build_s": covered(spans, {"graphs.gen_graph", "graphs.load_graph"}),
        "graphs.walk_tables_s": walk[0][2] - walk[0][1] if walk else 0.0,
        "signals.load_s": covered(spans, {"signals.load_signal", "signals.synthetic_signal"}),
        "forests.draws": len(draws),
        "forests.draw_s": draw_s,
        "forests.draw_ms.p50": 1e3 * _p50([t for _, t in draws]),
        "forests.walk_steps": steps,
        "forests.ns_per_step": 1e9 * draw_s / steps if steps else 0.0,
        "forests.rng_s": covered(spans, {"forests.forest_rng"}),
        "forests.unique_draw_ratio": len(keys) / len(draws) if draws else 0.0,
        "estimators.xbar_s": covered(spans, {"estimators.xbar_from_forest"}),
        "estimators.add_s": covered(spans, {"estimators.MonteCarloAccumulator.add"}),
        "estimators.add_calls": len(_named(spans, "estimators.MonteCarloAccumulator.add")),
        "estimators.step_s": covered(spans, {"estimators.resolve_alpha",
                                             "estimators.gradient_step",
                                             "estimators.safe_alpha"}),
        "estimators.mc_self_s": sum(t for s, t in zip(spans, own)
                                    if s[0] == "estimators.run_monte_carlo"),
        "linalg.cg_s": covered(spans, {"linalg.solve_exact_cg"}),
        "linalg.cg_calls": len(cg),
        "linalg.cg_iterations": _counter(cg, "iters"),
        "linalg.lap_applies": len(laps),
        "linalg.lap_apply_us.p50": 1e6 * _p50([s[2] - s[1] for s in laps]),
        "linalg.kinv_applies": len(_named(spans, "linalg.apply_K_inverse")),
        "linalg.lap_bytes": lap_bytes,
        "linalg.lap_GBps": lap_bytes / lap_s / 1e9 if lap_s else 0.0,
        "ssl.forest_self_s": sum(t for s, t in zip(spans, own) if s[0] == "ssl.ssl_forest"),
        "ssl.exact_s": covered(spans, {"ssl.ssl_exact"}),
        "trace.covered_s": sum(s[2] - s[1] for s in spans if s[3] < 0),
    }
    for layer, t in by_layer.items():
        m[f"{layer}.self_s"] = t
    return m
