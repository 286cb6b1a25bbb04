"""Desk-scale numerics for covert communication over classical-quantum channels."""

from .operators import (
    DensityOperator,
    Spectrum,
    dimension_cap,
    kron_power,
    make_density,
    matrix_from_json,
    matrix_inv_sqrt,
    matrix_log,
    matrix_power,
    spectral_decomposition,
    support_projector,
)
from .divergences import (
    chi_squared,
    helstrom_error,
    holevo_information,
    psi_functional,
    relative_entropy,
    trace_distance,
)
from .channel import (
    CqChannelPair,
    Povm,
    ScenarioClass,
    ScenarioReport,
    SupportRelation,
    channel_from_json,
    classify_scenario,
    induce_dmc,
    load_channel,
    mixture_feasibility,
    support_relations,
)
from .coding import (
    Codebook,
    DecoderPovm,
    ExperimentConfig,
    NogoReport,
    TrialReport,
    build_srm_decoder,
    covertness_report,
    exact_pe_bob,
    nogo_experiment,
    run_experiment,
    sample_codebook,
    select_best,
    willie_average_state,
)
from .scaling import (
    ConverseBounds,
    ScalingReport,
    SqrtnLognReport,
    converse_bounds,
    optimize_ptilde,
    product_measurement_coefficients,
    scaling_report,
    sqrtnlogn_coefficient,
)

__version__ = "0.1.0"
