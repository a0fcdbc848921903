"""setlab: exact and approximate sum-decompositions of functions on sets."""

from .errors import (
    CertMismatch,
    ConfigError,
    DivergenceError,
    DomainError,
    InfeasibleLatent,
    ProbeDegenerate,
    SearchExhausted,
    SetlabError,
    ShapeError,
    SizeError,
)
from .sets import as_set_input, as_simplex, build_face_pair, canonicalize, f_star
from .powersum import (
    VarSizeCodec,
    exact_eval,
    power_sum_decode,
    power_sum_encode,
    varsize_decode,
    varsize_encode,
)
from .approx import (
    CollisionCertificate,
    PhiSpec,
    error_lower_bound,
    find_collision,
    gamma,
    lse_max,
    nu,
    pooled_encoding,
)
from .mlp import Mlp
from .nnet import (
    DeepSetsModel,
    TrainConfig,
    canonical_grid,
    deepsets_eval,
    deepsets_eval_batch,
    grid_error,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .pooling import (
    enumerate_ktuples,
    janossy_pool,
    max_decomp_counterexample,
    sampled_pool,
    sorted_eval,
)
from .verify import CHECKS, SUITES, run_suite

__version__ = "0.1.0"
