"""Catalogue of the per-layer metrics reported by a traced run.

Layers are critsense's modules. `X.calls` counts calls, `X.self_s` sums self
time and `validate.<check>.s` sums a check's inclusive time, all over one
traced pass. Ratios are 0 when their denominator did not occur.
"""

CALLS = (
    "gaussian.GaussianState",
    "gaussian.mean_photons",
    "dynamics.evolve_critical",
    "dynamics.evolve_passive",
    "dynamics.steady_state",
    "metrology.differentiate_at_zero_shift",
    "metrology.fi_homodyne",
    "protocols.best_homodyne",
    "protocols.optimize_time",
    "protocols.fundamental_bound",
    "oracle.lyapunov_rk4",
    "oracle.fock_evolve",
)

SELF_S = (
    "gaussian.GaussianState",
    "dynamics.evolve_critical",
    "dynamics.evolve_passive",
    "dynamics.propagator",
    "metrology.differentiate_at_zero_shift",
    "metrology.qfi",
    "metrology.fi_homodyne",
    "protocols.best_homodyne",
    "protocols.optimize_time",
    "protocols.fundamental_bound",
    "protocols.total_qfi",
    "oracle.lyapunov_rk4",
    "oracle.fock_evolve",
    "oracle.uhlmann_fidelity",
    "cli.figure_fig2",
    "cli.figure_fig3",
    "cli.figure_fig4",
    "cli.figure_fig7",
    "cli.figure_fignoisy",
    "cli.write_csv",
    "cli.run_compute",
    "cli.write_json",
)

# The 16 entries of validate.ALL_CHECKS.
CHECKS = (
    "check_rk4_agreement",
    "check_semigroup",
    "check_exceptional_continuity",
    "check_steady_state_residual",
    "check_photon_monotonicity",
    "check_physicality",
    "check_measurement_bounds",
    "check_qfi_fidelity_agreement",
    "check_qfi_symplectic_invariance",
    "check_fd_convergence",
    "check_bound_gate",
    "check_cqs_qfi_monotone",
    "check_omega0_optimality",
    "check_homodyne_near_optimality",
    "check_temperature_invariance",
    "check_beyond_threshold",
)

DERIVED = {
    "metrology.evolutions_per_derivative": "1",
    "metrology.warn_share": "1",
    "protocols.fi_homodyne_per_best_homodyne": "1",
    "protocols.objective_evals_per_optimize": "1",
    "protocols.integrand_evals_per_bound": "1",
    "oracle.rk4_steps": "count",  # computed from oracle.default_step, not counted in the loop
    "oracle.fock_dim_mean": "count",
    "oracle.fock_retries_per_op": "1",
    "trace_overhead_ratio": "1",
}


def catalogue() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    out = {f"{name}.calls": "count" for name in CALLS}
    out.update({f"{name}.self_s": "s" for name in SELF_S})
    out.update({f"validate.{name}.s": "s" for name in CHECKS})
    out.update(DERIVED)
    return out
