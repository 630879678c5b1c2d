"""certbound: sample-complexity bounds and desk-scale simulators for
certifying sampling distributions from classical samples."""

from .distvec import (
    ProbVec,
    l1_distance,
    lp_quasinorm,
    min_entropy,
    remove_max,
    renyi_entropy,
    truncate_tail,
    truncated_core,
)
from .bounds import (
    BoundReport,
    norm23_bounds,
    postselected_lower_bound,
    smin_boson,
    smin_boson_full_space,
    smin_design,
    smin_from_min_entropy,
    smin_iqp,
    vv_lower_bound,
    vv_upper_bound,
)
from .qsim import (
    CircuitEnsemble,
    IqpWeights,
    haar_state_distribution,
    haar_unitary,
    iqp_output_distribution,
    local_random_circuit_distribution,
    sample_outcomes,
)
from .boson import (
    BosonEnsemble,
    BosonInstance,
    ModeOccupation,
    boson_distribution,
    bs_flatness_tail_bound,
    collision_weight,
    enumerate_phi,
    gaussian_concentration_bound,
    gaussian_repeated_sample,
    permanent,
    trivial_permanent_bound,
)
from .moments import (
    MomentEstimate,
    anti_concentration_check,
    estimate_second_moments,
    min_entropy_tail_check,
)
from .certtest import (
    CertificationTester,
    TesterConfig,
    TestVerdict,
    empirical_sample_complexity,
)
from .errors import CertboundError, InvalidParameterError, ResourceLimitError

__version__ = "0.1.0"
