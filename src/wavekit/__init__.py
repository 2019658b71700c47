"""wavekit: minimal wave speeds and pulsating traveling waves for
non-cooperative KPP reaction-diffusion systems with space-time periodic
coefficients."""

from .coeffs import (
    AssumptionReport,
    KPPSystem,
    Mode,
    PeriodicField,
    field_eval,
    nondimensionalize,
    system_from_json,
    system_to_json,
    validate_assumptions,
)
from .errors import InputError, NumericalError, WavekitError
from .frame import (
    FrameSystem,
    MovingFrame,
    RationalDirection,
    compute_periods,
    frame_for,
    make_frame,
    rational_basis,
    transform_coefficients,
)
from .pde_core import (
    Grid,
    GridField,
    OperatorSpec,
    apply_operator,
    build_operator_mu,
    solve_periodic_bvp,
)
from .eigen import (
    EigenEvaluator,
    PrincipalEigenpair,
    lambda_mu_curve,
    principal_eigenvalue,
)
from .dispersion import (
    DispersionCurve,
    RootPair,
    minimal_speed,
    persistence_check,
    speed_roots,
    static_frame,
)
from .waves import (
    CriticalEnvelopes,
    SupercriticalEnvelopes,
    WaveProfile,
    build_envelopes_critical,
    build_envelopes_supercritical,
    critical_fixed_point,
    cylinder_grid,
    extend_to_entire,
    fixed_point_truncated,
    verify_wave,
)
from .cauchy import (
    SimulationRun,
    logistic_envelope,
    measure_spreading_speed,
    nonexistence_probe,
    simulate,
)

__version__ = "0.1.0"
