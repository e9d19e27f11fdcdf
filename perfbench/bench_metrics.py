"""Metric definitions: end-to-end metrics of an untraced run and per-layer
metrics of a traced run, each with the workload and end-to-end metric it
should move.

A ``_s`` layer metric is the self time of one module's spans (span duration
minus the spans it opened), summed over one pass of the op list and taken as
the median over the traced passes.  Counts are totals over one pass; every
pass of a run must give the same counts, so any drift is a correctness
failure.  Each ratio sits beside its base count.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, source, moves): source is a span name (self time), a
# count key, or a (numerator, denominator) pair of count keys.
PER_LAYER = (
    ("problems.encode_s", "s", "lower", "problems.encode", "ls-decide ops_per_s"),
    ("localsubset.assign_s", "s", "lower", "localsubset.solve",
     "ls-decide ops_per_s, latency_p90_ms (solve_via_oracle minus the oracle call)"),
    ("localsubset.evaluate_s", "s", "lower", "localsubset.evaluate",
     "ls-decide ops_per_s, latency_p90_ms (time inside the oracle callable)"),
    ("localsubset.tuples", "count", "lower", "localsubset.tuples",
     "ls-decide ops_per_s (computed from the instance, not counted)"),
    ("localsubset.witnesses", "count", "higher", "localsubset.witnesses", "ls-decide ops_per_s"),
    ("localsubset.witness_ratio", "ratio", "higher", ("localsubset.witnesses", "localsubset.tuples"),
     "ls-decide ops_per_s (base: localsubset.tuples)"),
    ("localsubset.yes_frac", "fraction", "higher", ("localsubset.yes", "localsubset.ops"),
     "ls-decide ops_per_s, latency_p90_ms (base: trace.ops)"),
    ("localsubset.stream_s", "s", "lower", "localsubset.stream",
     "ls-literal ops_per_s, latency_p90_ms (draining formulation_monomials)"),
    ("localsubset.monomials_emitted", "count", "lower", "localsubset.monomials_emitted",
     "ls-literal ops_per_s, latency_p90_ms"),
    ("localsubset.vector_s", "s", "lower", "localsubset.vector", "ls-literal ops_per_s"),
    ("polynomials.canonicalize_s", "s", "lower", "polynomials.canonicalize",
     "ls-literal ops_per_s, peak_rss_mb; circuit-verify via circuits.expand_s"),
    ("polynomials.distinct_monomials", "count", "lower", "polynomials.distinct_monomials",
     "ls-literal peak_rss_mb"),
    ("polynomials.merge_ratio", "ratio", "higher",
     ("polynomials.distinct_monomials", "localsubset.monomials_emitted"),
     "ls-literal ops_per_s, peak_rss_mb (base: localsubset.monomials_emitted)"),
    ("polynomials.eval_s", "s", "lower", "polynomials.eval",
     "ls-literal ops_per_s; circuit-verify ops_per_s"),
    ("oracle.log_s", "s", "lower", "oracle.log", "ls-decide ops_per_s (logging wrapper self time)"),
    ("oracle.calls", "count", "lower", "oracle.calls", "none: must repeat exactly"),
    ("oracle.calls_per_op", "ratio", "lower", ("oracle.calls", "localsubset.ops"),
     "none: must be exactly 1 on ls-decide"),
    ("oracle.charged_cost", "count", "lower", "oracle.charged_cost", "none: must repeat exactly"),
    ("circuits.build_s", "s", "lower", "circuits.build", "circuit-verify ops_per_s, latency_p90_ms"),
    ("circuits.homogenize_s", "s", "lower", "circuits.homogenize",
     "circuit-verify ops_per_s, latency_p90_ms"),
    ("circuits.expand_s", "s", "lower", "circuits.expand", "circuit-verify ops_per_s, latency_p90_ms"),
    ("circuits.compare_s", "s", "lower", "circuits.compare", "circuit-verify ops_per_s"),
    ("circuits.find_prime_s", "s", "lower", "circuits.find_prime", "circuit-verify ops_per_s"),
    ("circuits.gates", "count", "lower", "circuits.gates", "circuit-verify ops_per_s"),
    ("circuits.homogenized_gates", "count", "lower", "circuits.homogenized_gates",
     "circuit-verify ops_per_s, latency_p90_ms"),
    ("permanent.f_expand_s", "s", "lower", "permanent.f_expand", "counting ops_per_s"),
    ("permanent.traces_s", "s", "lower", "permanent.traces", "counting ops_per_s, latency_p90_ms"),
    ("permanent.terms", "count", "lower", "permanent.terms", "counting ops_per_s"),
    ("permanent.zero_terms_frac", "fraction", "lower", ("permanent.zero_terms", "permanent.terms"),
     "counting ops_per_s (base: permanent.terms)"),
    ("setcover.expand_s", "s", "lower", "setcover.expand", "counting ops_per_s"),
    ("setcover.branch_s", "s", "lower", "setcover.branch", "counting ops_per_s, latency_p90_ms"),
    ("setcover.partition_s", "s", "lower", "setcover.partition",
     "counting ops_per_s, latency_p90_ms"),
    ("setcover.branch_instances", "count", "lower", "setcover.branch_instances", "counting ops_per_s"),
    ("setcover.k_tried", "count", "lower", "setcover.k_tried", "counting ops_per_s, latency_p90_ms"),
    ("setcover.zero_instance_frac", "fraction", "lower",
     ("setcover.zero_instances", "setcover.branch_instances"),
     "counting ops_per_s (base: setcover.branch_instances)"),
)

# Run-level figures of the traced run, reported beside the layer metrics.
TRACE_RUN = (
    ("trace.ops", "count", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("host.calibration_ms", "ms", "lower"),
)


def layer_values(self_times: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values from one pass's self times and counts."""
    values = {}
    for name, unit, _, source, _ in PER_LAYER:
        if unit == "s":
            values[name] = self_times.get(source, 0.0)
        elif isinstance(source, tuple):
            numerator, denominator = (counts.get(key, 0) for key in source)
            values[name] = numerator / denominator if denominator else 0.0
        else:
            values[name] = counts.get(source, 0)
    return values
