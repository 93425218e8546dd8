"""qmkit: simulate quantum measurement, state tomography, and metrology
with dense complex matrices.

The flat namespace re-exports the everyday API; the submodules
(:mod:`qmkit.qcore`, :mod:`qmkit.states`, :mod:`qmkit.operators`,
:mod:`qmkit.measurement`, :mod:`qmkit.phasespace`, :mod:`qmkit.tomography`,
:mod:`qmkit.metrology`) hold the rest.  A submodule is imported when one of
its names is first used, so a process compiles only the modules it calls.
"""

import importlib

from . import errors

# submodule -> the names the flat namespace re-exports from it
_EXPORTS = {
    "measurement": "MeasurementOutcome MeasurementSet SamplerBackend build_mub_set "
                   "build_pauli_set build_sic_set build_stoke_set measure measure_and_sample "
                   "post_measurement_state probabilities sample_cdf_continuous "
                   "sample_cdf_discrete sample_mc timed_measurement weyl_displacement",
    "metrology": "MetrologyScenario PrecisionCurve cat_state classical_fisher cramer_rao_bounds "
                 "encode_phase error_propagation quantum_fisher run_scenario",
    "operators": "displacement identity lowering pauli raising spin squeezing",
    "phasespace": "PhaseSpaceGrid PlanarGrid SphericalGrid clebsch_gordan husimi_planar "
                  "husimi_spherical read_grid spherical_harmonic wigner_planar wigner_spherical "
                  "write_grid",
    "qcore": "EigenDecomposition Kind QuantumObject adjoint classify conjugate density_matrix "
             "diagonalize dot eigen ground l2norm mat_exp mat_sqrt normalize partial_trace tensor "
             "to_operator trace transpose",
    "states": "add_random_noise add_white_noise basis coherent dicke dual_basis ghz position_state "
              "random_haar spin_coherent squeezed w zeeman",
    "tomography": "TomographyRun fidelity reconstruct_linear_inversion run_tomography "
                  "trace_distance trace_distance_pure",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["errors", *_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the module that defines an exported name, on first use;
    the name is then kept here, so later reads do not come back."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
