"""Approximation machinery: smooth max, the cube-to-simplex map, encoder
collision certificates, and contour grids."""

from .collision import (
    NEWTON_STARTS,
    CollisionCertificate,
    error_lower_bound,
    find_collision,
    gamma,
    gamma_batch,
    left_shift,
    left_shift_batch,
    load_certificate,
    pooled_encoding,
    save_certificate,
)
from .contours import emit_contour_grid, write_contour_csv
from .phispec import (
    PhiSpec,
    load_phispec,
    monomial_family,
    random_mlp_encoder,
    random_piecewise_linear,
    save_phispec,
    semicircle,
    shifted_linear,
    reference_encoders,
)
from .simplexmap import nu, nu_batch, nu_pair_batch
from .smoothmax import lse_max, lse_max_batch
