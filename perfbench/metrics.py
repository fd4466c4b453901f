"""Every metric the benchmark reports, and which end-to-end metric each layer metric should move.

BENCHMARK.json at the repository root lists the same names, units and
directions; run.py refuses to run when the two disagree.
"""

from __future__ import annotations

# name -> (unit, better, bound).  Only metrics that every workload has and that
# sum a whole run's work are gated.  On a shared 2-core x86 VM, CPU throughput
# swung by about 30 % over a few seconds, so a figure measured over a fraction
# of a second could not hold any bound.  Between runs, the same torus ladder
# took 29 to 41 s, which is why the time bounds are at their 0.25 ceiling.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Figures each run prints on its context line, for the workloads that have them:
# build_s, analyze_s, canonicalize_s, verify_s (s), membership_qps (1/s),
# fail_frac (ratio), analyze_n72_s (s) and analyze_exp_n (slope) on torus_ladder,
# and analyze_exp_n on composite_groups.

T, G, O = "torus_ladder", "composite_groups", "oracle_verify"
ENGINE = [("pass_s", T), ("analyze_s", T), ("analyze_n72_s", T), ("analyze_exp_n", T)]
QUERIES = [("membership_qps", G), ("pass_s", G)]
CANON = [("canonicalize_s", G), ("pass_s", G)]
ANALYZE_G = [("analyze_s", G), ("pass_s", G)]
BUILD = [("build_s", T)]
ORACLE = [("pass_s", O), ("verify_s", O), ("peak_rss_mb", O)]

# name -> (unit, better, [(end-to-end metric, workload) it should move])
PER_LAYER = {
    "zmod.smith_normal_form.calls": ("count", "lower", ENGINE + QUERIES),
    "zmod.smith_normal_form.self_s": ("s", "lower", ENGINE + QUERIES),
    "zmod.smith_normal_form.cells": ("count", "lower", ENGINE + QUERIES),
    "zmod.smith_normal_form.repeat_ratio": ("calls/input", "lower", ENGINE + QUERIES),
    "zmod.solve_linear.calls": ("count", "lower", QUERIES),
    "zmod.solve_linear.self_s": ("s", "lower", QUERIES),
    "zmod.kernel_matrix.calls": ("count", "lower", BUILD),
    "zmod.kernel_matrix.self_s": ("s", "lower", BUILD),
    "zmod.ZdMatrix.det.calls": ("count", "lower", CANON),
    "zmod.ZdMatrix.det.self_s": ("s", "lower", CANON),
    "symplectic.SymplecticSpace.pairing.calls": ("count", "lower", ENGINE),
    "symplectic.SymplecticSpace.pairing.self_s": ("s", "lower", ENGINE),
    "symplectic.perp.self_s": ("s", "lower", ENGINE),
    "symplectic.structure_decomposition.self_s": ("s", "lower", ENGINE),
    "symplectic.extend_isotropic_basis.self_s": ("s", "lower", CANON),
    "pauli.multiply.calls": ("count", "lower", BUILD + ANALYZE_G),
    "pauli.multiply.self_s": ("s", "lower", BUILD + ANALYZE_G),
    "pauli.power.calls": ("count", "lower", BUILD + ANALYZE_G),
    "pauli.power.self_s": ("s", "lower", BUILD + ANALYZE_G),
    "pauli.commutation_phase.calls": ("count", "lower", BUILD + ANALYZE_G),
    "pauli.commutation_phase.self_s": ("s", "lower", BUILD + ANALYZE_G),
    "pauli.order_matched_lift.calls": ("count", "lower", BUILD + ANALYZE_G),
    "pauli.order_matched_lift.self_s": ("s", "lower", BUILD + ANALYZE_G),
    "heisenberg.crt_canonical_chain.calls": ("count", "lower", ANALYZE_G + [("fail_frac", G)]),
    "heisenberg.crt_canonical_chain.self_s": ("s", "lower", ANALYZE_G + [("fail_frac", G)]),
    "heisenberg.lift_symplectic.self_s": ("s", "lower", CANON),
    "stabilizer.validate.calls": ("count", "lower", BUILD),
    "stabilizer.validate.self_s": ("s", "lower", BUILD),
    "stabilizer.coset_order_matched_lift.calls": ("count", "lower", [("analyze_s", T)] + ANALYZE_G),
    "stabilizer.coset_order_matched_lift.self_s": ("s", "lower", [("analyze_s", T)] + ANALYZE_G),
    "stabilizer.analyze.self_s": ("s", "lower", [("analyze_s", T)] + ANALYZE_G),
    "stabilizer.analyze.exp_n": ("slope", "lower", [("analyze_exp_n", T)]),
    "stabilizer.membership.calls": ("count", "lower", QUERIES + [("pass_s", O)]),
    "stabilizer.membership.self_s": ("s", "lower", QUERIES + [("pass_s", O)]),
    "stabilizer.canonical_conjugation.self_s": ("s", "lower", CANON),
    "oracle.represent.calls": ("count", "lower", ORACLE),
    "oracle.represent.self_s": ("s", "lower", ORACLE),
    "oracle.represent.states": ("count", "lower", ORACLE),
    "oracle.represent.repeat_ratio": ("calls/input", "lower", ORACLE),
    "oracle.protected_dimension.self_s": ("s", "lower", ORACLE),
    "oracle.protected_basis.self_s": ("s", "lower", ORACLE),
    "oracle.eigenspace_dimensions.self_s": ("s", "lower", ORACLE),
    "oracle.verify_report.self_s": ("s", "lower", ORACLE),
    "oracle.states_per_s": ("1/s", "higher", ORACLE),
    "oracle.checks_skipped": ("count", "lower", []),
    "kitaev.build_model.self_s": ("s", "lower", BUILD),
    "kitaev.apply_twist.self_s": ("s", "lower", BUILD),
    "cli.main.self_s": ("s", "lower", []),
    "ops.fail_frac": ("ratio", "lower", [("fail_frac", G)]),
    "ops.deadline_misses": ("count", "lower", [("fail_frac", G), ("pass_s", G)]),
    "trace.overhead_frac": ("ratio", "lower", []),
    "trace.unwrapped_s": ("s", "lower", []),
}
LAYER_MOVES = {
    "zmod": ENGINE + QUERIES, "symplectic": ENGINE, "pauli": BUILD + ANALYZE_G,
    "heisenberg": ANALYZE_G, "stabilizer": ENGINE + QUERIES, "oracle": ORACLE,
    "kitaev": BUILD, "cli": [],
}
for _layer, _moves in LAYER_MOVES.items():
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower", _moves)
