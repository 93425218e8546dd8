"""qmkit: simulate quantum measurement, state tomography, and metrology
with dense complex matrices.

The flat namespace re-exports the everyday API; the submodules
(:mod:`qmkit.qcore`, :mod:`qmkit.states`, :mod:`qmkit.operators`,
:mod:`qmkit.measurement`, :mod:`qmkit.phasespace`, :mod:`qmkit.tomography`,
:mod:`qmkit.metrology`) hold the rest.
"""

from . import errors
from .measurement import (
    MeasurementOutcome,
    MeasurementSet,
    SamplerBackend,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    measure,
    measure_and_sample,
    post_measurement_state,
    probabilities,
    sample_cdf_continuous,
    sample_cdf_discrete,
    sample_mc,
    timed_measurement,
    weyl_displacement,
)
from .metrology import (
    MetrologyScenario,
    PrecisionCurve,
    cat_state,
    classical_fisher,
    cramer_rao_bounds,
    encode_phase,
    error_propagation,
    quantum_fisher,
    run_scenario,
)
from .operators import (
    displacement,
    identity,
    lowering,
    pauli,
    raising,
    spin,
    squeezing,
)
from .phasespace import (
    PhaseSpaceGrid,
    PlanarGrid,
    SphericalGrid,
    clebsch_gordan,
    husimi_planar,
    husimi_spherical,
    read_grid,
    spherical_harmonic,
    wigner_planar,
    wigner_spherical,
    write_grid,
)
from .qcore import (
    EigenDecomposition,
    Kind,
    QuantumObject,
    adjoint,
    classify,
    conjugate,
    density_matrix,
    diagonalize,
    dot,
    eigen,
    ground,
    l2norm,
    mat_exp,
    mat_sqrt,
    normalize,
    partial_trace,
    tensor,
    to_operator,
    trace,
    transpose,
)
from .states import (
    add_random_noise,
    add_white_noise,
    basis,
    coherent,
    dicke,
    dual_basis,
    ghz,
    position_state,
    random_haar,
    spin_coherent,
    squeezed,
    w,
    zeeman,
)
from .tomography import (
    TomographyRun,
    fidelity,
    reconstruct_linear_inversion,
    run_tomography,
    trace_distance,
    trace_distance_pure,
)

__version__ = "0.1.0"
