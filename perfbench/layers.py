"""Per-layer metrics computed from a traced run's spans.

Times are self times or span durations in milliseconds per call (or per
step / sweep where named so); counts are exact and given per unit of work
the traced run completed.  A layer a workload does not run reports 0.
"""

from __future__ import annotations

from spans import LAYERS

#: every per-layer metric with its unit, in report order
UNITS = {
    "spectral.fft_pair_ms": "ms",
    "spectral.transforms_per_unit": "count",
    "dynamics.rhs_ms": "ms",
    "integrators.step_ms": "ms",
    "integrators.sweep_ms": "ms",
    "integrators.picard_iterations": "count",
    "integrators.fields_kept": "count",
    "norms.diag_ms": "ms",
    "norms.diag_calls": "count",
    "snapshots.write_ms": "ms",
    "snapshots.read_ms": "ms",
    "snapshots.bytes": "B",
    "dyadic.block_ms": "ms",
    "dyadic.modes_per_block": "count",
    "probes.product_ms": "ms",
    "probes.mode_pairs": "count",
    "probes.pairs_per_s": "1/s",
    "scenarios.self_ms": "ms",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.throughput_ratio": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, work_unit: str, n_units: int) -> dict:
    """Every metric of :data:`UNITS` except the two probe timings and the
    trace overhead, which the caller measures."""
    rows = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": {}}

    def row(name):
        return rows.get(name, empty)

    dur, own = tracer.durations()
    callback_s = sum(
        dur[i] for i, s in enumerate(tracer.spans)
        if s["name"] == "scenarios.callback" and s["parent"] >= 0
        and tracer.spans[s["parent"]]["name"] == "integrators.evolve")
    evolve, picard = row("integrators.evolve"), row("integrators.picard_solve")
    steps = evolve["info"].get("steps", 0)
    sweeps = picard["info"].get("iterations", 0)
    if work_unit == "steps":
        transforms = _ratio(evolve["info"].get("transforms", 0), steps)
    elif work_unit == "sweeps":
        transforms = _ratio(picard["info"].get("transforms", 0), sweeps)
    else:
        total = sum(r["info"].get("transforms", 0) for r in rows.values())
        transforms = _ratio(total, n_units)
    diag, write, read = (row("norms.diag"), row("snapshots.write_snapshot"),
                         row("snapshots.read_snapshot"))
    block, product = row("dyadic.random_block_sparse"), row(
        "probes.sparse_product_l2")
    pairs = product["info"].get("pairs", 0)
    scenario_self = sum(r["self_s"] for name, r in rows.items()
                        if name.startswith("scenarios."))
    fields_kept = max((s["info"].get("fields_kept", 0) for s in tracer.spans
                       if s["name"] == "integrators.evolve"), default=0)
    metrics = {
        "spectral.transforms_per_unit": transforms,
        "integrators.step_ms": 1e3 * _ratio(evolve["total_s"] - callback_s,
                                            steps),
        "integrators.sweep_ms": 1e3 * _ratio(picard["total_s"], sweeps),
        "integrators.picard_iterations": _ratio(sweeps, n_units),
        "integrators.fields_kept": fields_kept,
        "norms.diag_ms": 1e3 * _ratio(diag["total_s"], diag["calls"]),
        "norms.diag_calls": _ratio(diag["calls"], n_units),
        "snapshots.write_ms": 1e3 * _ratio(write["total_s"], write["calls"]),
        "snapshots.read_ms": 1e3 * _ratio(read["total_s"], read["calls"]),
        "snapshots.bytes": _ratio(write["info"].get("bytes", 0)
                                  + read["info"].get("bytes", 0), n_units),
        "dyadic.block_ms": 1e3 * _ratio(block["total_s"], block["calls"]),
        "dyadic.modes_per_block": _ratio(block["info"].get("modes", 0),
                                         block["calls"]),
        "probes.product_ms": 1e3 * _ratio(product["total_s"],
                                          product["calls"]),
        "probes.mode_pairs": _ratio(pairs, product["calls"]),
        "probes.pairs_per_s": _ratio(pairs, product["total_s"]),
        "scenarios.self_ms": 1e3 * _ratio(scenario_self, n_units),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    return metrics
