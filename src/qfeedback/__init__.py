"""Simulation and verification of classical communication over quantum
discrete memoryless channels assisted by noiseless classical feedback."""

__version__ = "0.1.0"

from .quantum import (  # noqa: F401
    DensityMatrix,
    Ensemble,
    Povm,
    QuantumChannel,
    ValidationError,
    amplitude_damping_channel,
    apply_channel,
    apply_channel_at,
    basis_state,
    bloch_state,
    density,
    dephasing_channel,
    depolarizing_channel,
    entropy,
    fully_depolarizing_channel,
    holevo_chi,
    identity_channel,
    measure,
    pure_state,
    square_root_measurement,
)
from .cqstate import (  # noqa: F401
    CqState,
    conditional_mutual_information,
    cq_entropy,
    mutual_information,
)
from .protocol import (  # noqa: F401
    CapExceededError,
    Codebook,
    FeedbackCode,
    ProtocolTranscript,
    ehs_state,
    ehs_states,
    enumerate_transcripts,
    error_probability,
    random_feedback_code,
    round_zero,
    sample_transcript,
    validate_code,
)
from .directed import (  # noqa: F401
    RateReport,
    directed_information_final,
    directed_information_total,
    directed_terms,
    fano_bound,
    message_information,
    rate_report,
    verify_ddpi,
)
from .capacity import (  # noqa: F401
    OptimizerConfig,
    estimate_feedback_capacity,
    grid_search_chi,
    holevo_capacity,
)
from .achievability import (  # noqa: F401
    build_double_blocked_code,
    cond_typical_projector,
    gamma_operator,
    gentle_measurement_check,
    hayashi_nagaoka_check,
    cumulative_disturbance_report,
    rate_split,
    typical_projector,
    typical_set,
    typicality_bounds_check,
)
