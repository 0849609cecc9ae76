"""The benchmark's metrics: end-to-end (timed run, no tracing) and per layer
(traced run), with what each per-layer metric should move and on which
workload.  ``BENCHMARK.json`` lists the same names; ``run.py`` refuses to run
when the two disagree.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median a change may lose).
# Timings on a shared 2-vCPU host drift by 10-20% over minutes, with the same
# code and seed, so their bounds sit near the 0.25 ceiling; memory repeats to
# within 1%.  Set-up time gets the largest bound.
END_TO_END = (
    ("op_s.p50", "s", "lower", 0.24),
    ("op_s.p90", "s", "lower", 0.24),
    ("sweep_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_SWEEP_P90 = "sweep_s, op_s.p90"
_P90_RSS = "op_s.p90, peak_rss_mb"
_BOTH = "termwise, substitution"
_SUB = "substitution"
_TERM = "termwise"
_HIL = "hilbert only"
_CLS = "termwise (classify ops), hilbert"

# name, unit, better, should move, on
PER_LAYER = (
    ("multipoly.mon_mul.calls", "count", "lower", _SWEEP_P90, "substitution (most), termwise"),
    ("multipoly.MPoly.mul.calls", "count", "lower", _SWEEP_P90, "substitution (most), termwise"),
    ("multipoly.MPoly.mul.self_s", "s", "lower", _SWEEP_P90, "substitution (most), termwise"),
    ("multipoly.fast_linear_div.calls", "count", "lower", _SWEEP_P90, _SUB),
    ("multipoly.fast_linear_div.hit_ratio", "ratio", "higher", _SWEEP_P90, _SUB),
    ("multipoly.RatFunc.subs_u.calls", "count", "lower", _P90_RSS, _SUB),
    ("multipoly.RatFunc.subs_u.self_s", "s", "lower", _P90_RSS, _SUB),
    ("gklo.chevalley.calls", "count", "lower", _P90_RSS, _SUB),
    ("gklo.chevalley.self_s", "s", "lower", _P90_RSS, _SUB),
    ("gklo.orientation_flip_sign.self_s", "s", "lower", _P90_RSS, _SUB),
    ("gklo.d_identity_check.self_s", "s", "lower", _P90_RSS, _SUB),
    ("multipoly.ratfunc_sum.calls", "count", "lower", "sweep_s", _BOTH),
    ("multipoly.ratfunc_sum.terms", "count", "lower", "sweep_s", _BOTH),
    ("multipoly.ratfunc_sum.self_s", "s", "lower", "sweep_s", _BOTH),
    ("multipoly.factor_denominator.calls", "count", "lower", "sweep_s", _BOTH),
    ("multipoly.factor_denominator.self_s", "s", "lower", "sweep_s", _BOTH),
    ("multipoly.RatFunc.make.calls", "count", "lower", "sweep_s", _BOTH),
    ("multipoly.RatFunc.make.self_s", "s", "lower", "sweep_s", _BOTH),
    ("multipoly.poly_gcd.calls", "count", "lower",
     "none (guard: work routed into gcd shows here)", "all"),
    ("multipoly.poly_gcd.self_s", "s", "lower",
     "none (guard: work routed into gcd shows here)", "all"),
    ("multipoly.terms_sum_to_zero.calls", "count", "lower", "op_s.p50", _TERM),
    ("multipoly.terms_sum_to_zero.terms", "count", "lower", "op_s.p50", _TERM),
    ("multipoly.terms_sum_to_zero.self_s", "s", "lower", "op_s.p50", _TERM),
    ("multipoly.poly_text.calls", "count", "lower", "op_s.p50", _TERM),
    ("multipoly.poly_text.self_s", "s", "lower", "op_s.p50", _TERM),
    ("cli.main.self_s", "s", "lower", "op_s.p50", _TERM),
    ("cli.output_bytes", "bytes", "lower", "op_s.p50", _TERM),
    ("gklo.fmo_plus_terms.terms", "count", "lower", "sweep_s; caches also peak_rss_mb", _BOTH),
    ("gklo.fmo_plus_terms.self_s", "s", "lower", "sweep_s; caches also peak_rss_mb", _BOTH),
    ("gklo.fmo_minus_terms.terms", "count", "lower", "sweep_s; caches also peak_rss_mb", _BOTH),
    ("gklo.fmo_minus_terms.self_s", "s", "lower", "sweep_s; caches also peak_rss_mb", _BOTH),
    ("gklo.fmo.cache_hit_ratio", "ratio", "higher", "sweep_s; caches also peak_rss_mb", _BOTH),
    ("gklo.involution_fmo_report.self_s", "s", "lower", "sweep_s; caches also peak_rss_mb",
     _BOTH),
    ("gklo.involution_fmo_report.cache_hit_ratio", "ratio", "higher",
     "sweep_s; caches also peak_rss_mb", _BOTH),
    ("defect_embed.phi_fmo_terms.terms", "count", "lower", "sweep_s", _TERM),
    ("defect_embed.phi_fmo_terms.self_s", "s", "lower", "sweep_s", _TERM),
    ("defect_embed.verify_restriction.self_s", "s", "lower", "sweep_s", _TERM),
    ("defect_embed.verify_adding_defect_theorem.self_s", "s", "lower", "sweep_s", _TERM),
    ("defect_embed.restriction_route.cache_hit_ratio", "ratio", "higher", "sweep_s", _TERM),
    ("km_embedding.compose_embedding.self_s", "s", "lower", "sweep_s", _TERM),
    ("km_embedding.split_and_project.self_s", "s", "lower", "sweep_s", _TERM),
    ("km_embedding.fourier_step.self_s", "s", "lower", "sweep_s", _TERM),
    ("km_embedding.forget_matter_step.self_s", "s", "lower", "sweep_s", _TERM),
    ("monopole_hilbert.hilbert_series.self_s", "s", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.dominant_shell.points", "count", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.two_delta_general.calls", "count", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.two_delta_general.self_s", "s", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.stabilizer_poincare.calls", "count", "lower", "op_s.p90, sweep_s",
     _HIL),
    ("monopole_hilbert.stabilizer_poincare.self_s", "s", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.points_kept_ratio", "ratio", "higher", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.TruncSeries.mul.calls", "count", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.TruncSeries.mul.self_s", "s", "lower", "op_s.p90, sweep_s", _HIL),
    ("monopole_hilbert.classify_theory.self_s", "s", "lower", "op_s.p50", _CLS),
    ("quiver.check_conicity.self_s", "s", "lower", "op_s.p50", _CLS),
    ("quiver.check_good.self_s", "s", "lower", "op_s.p50", _CLS),
    ("quiver.affine_classify.self_s", "s", "lower", "op_s.p50", _CLS),
    ("trace.overhead", "ratio", "lower", "none: the tracer's own cost", "all"),
)

_FIELDS = {"calls": 0, "self_s": 1, "terms": 2, "points": 2}


def _ratio(num, den):
    """A ratio whose base is zero (no calls on this workload) reads 0."""
    return num / den if den else 0.0


def per_layer_values(stats: dict, caches: dict, output_bytes: int, overhead: float) -> dict:
    """Per-layer metric values of one traced pass.

    ``stats`` maps a tracer key to summed [calls, self_s, terms, extra, top];
    ``caches`` maps a cache name to summed [hits, misses]."""
    special = {
        "multipoly.poly_gcd.calls": stats["multipoly.poly_gcd"][4],
        "multipoly.fast_linear_div.hit_ratio": _ratio(
            stats["multipoly.fast_linear_div"][3], stats["multipoly.fast_linear_div"][0]),
        "monopole_hilbert.points_kept_ratio": _ratio(
            stats["monopole_hilbert.stabilizer_poincare"][0],
            stats["monopole_hilbert.two_delta_general"][0]),
        "cli.output_bytes": output_bytes,
        "trace.overhead": overhead,
    }
    out = {}
    for name, unit, _, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            key, field = name.rsplit(".", 1)
            if field == "cache_hit_ratio":
                hits, misses = caches[key]
                value = _ratio(hits, hits + misses)
            else:
                value = stats[key][_FIELDS[field]]
        out[name] = {"value": value, "unit": unit}
    return out
