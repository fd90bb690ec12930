"""Adaptive MCMC on finite state spaces with exact decomposition diagnostics."""

from .adaptation import (
    BernoulliSchedule,
    ConstantScheme,
    DeterministicSchedule,
    MeanTrackingScheme,
    RareCycleScheme,
    RateTargetScheme,
    ScheduleScheme,
    WaningReport,
    bernoulli_log_schedule,
    converging_index_schedule,
    log_increment_schedule,
    waning_diagnostic,
)
from .families import (
    KernelFamily,
    cyclic_pair,
    iid_family,
    mixture_family,
    random_metropolis_family,
    smoothed_family,
)
from .kernels import (
    Distribution,
    ErgodicityConstants,
    StochasticMatrix,
    dobrushin_coefficient,
    fit_ergodicity_constants,
    kernel_apply,
    max_tv_between_kernels,
    read_kernel_json,
    stationary_distribution,
    sup_tv_to_pi_curve,
    tv_distance,
    write_kernel_json,
)
from .ledger import (
    DecompositionLedger,
    Trajectory,
    an_bound_check,
    chain_generator,
    clt_study,
    decompose,
    lln_study,
    martingale_check,
    run_adaptive_chain,
    write_ledger_csv,
)
from .poisson import (
    BoundReport,
    PoissonSolution,
    TestFunction,
    check_lipschitz_bound,
    check_poisson_bound,
    clt_variance,
    solve_poisson_exact,
    solve_poisson_neumann,
)
from .rwm import (
    CompactTarget,
    RwmParameter,
    build_discrete_rwm,
    discrete_acceptance_expectation,
    run_rwm_chain,
    rwm_propose_accept,
    truncated_gaussian_target,
    uniform_target,
)

__version__ = "0.1.0"
