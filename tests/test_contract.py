"""The input contract of the public API, in one table.

``KINDS`` gives each kind of parameter its invalid values, each with the
error it raises (and a ``match=`` pattern where one is pinned), and the
forms of a valid value that must give the same bytes.  ``CALLS`` gives each
public callable one valid keyword call, the kind of each parameter, and the
invalid values of its own.  The walker fails on any public parameter, of a
public function or of a public method of a public class, that no row lists;
the test runs every (row, parameter).
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from fnmatch import fnmatch

import numpy as np
import pytest

import qmkit
from qmkit import (
    MeasurementSet, MetrologyScenario, PlanarGrid, QuantumObject, SamplerBackend, SphericalGrid,
    add_random_noise, add_white_noise, adjoint, basis, build_mub_set, build_pauli_set,
    build_sic_set, build_stoke_set, cat_state, classical_fisher, classify, clebsch_gordan,
    coherent, conjugate, cramer_rao_bounds, density_matrix, diagonalize, dicke, displacement, dot,
    dual_basis, eigen, encode_phase, error_propagation, fidelity, ghz, ground, husimi_planar,
    husimi_spherical, identity, l2norm, lowering, mat_exp, mat_sqrt, measure, measure_and_sample,
    normalize, partial_trace, pauli, position_state, post_measurement_state, probabilities,
    quantum_fisher, raising, random_haar, read_grid, reconstruct_linear_inversion, run_scenario,
    run_tomography, sample_cdf_continuous, sample_cdf_discrete, sample_mc, spherical_harmonic,
    spin, spin_coherent, squeezed, squeezing, tensor, timed_measurement, to_operator, trace,
    trace_distance, trace_distance_pure, transpose, w, weyl_displacement, wigner_planar,
    wigner_spherical, write_grid, zeeman,
)
from qmkit.errors import (
    DimensionMismatch, IndexOutOfRange, InvalidDistribution, InvalidObject, InvalidParameter,
    InvalidQuantumNumber, NotDiagonalizable, NotHermitian, NotPositive, NotQubitSystem,
    OutcomeImpossible, QmkitError, UnsupportedDimension, ZeroNorm,
)
from qmkit.phasespace import grid_lines, spherical_multipole


@dataclasses.dataclass(frozen=True)
class _Path:
    """A path ``name`` in the test's scratch directory, first written with ``text`` if given."""

    name: str
    text: str | None = None

    def at(self, root) -> str:
        if self.text is not None:
            (root / self.name).write_text(self.text)
        return str(root / self.name)


def _bad(error, *values, match=None) -> list:
    return [(v, error, match) for v in values]


_NAN, _INF, _GIB = math.nan, math.inf, "over the 1 GiB limit"
_KET, _MIXED, _WIDE, _SKEW = basis(2, 0), identity(2) / 2, np.ones((2, 3)), [[0, 1], [0, 0]]
_PLANE, _SPHERE, _P1 = PlanarGrid(nx=5, ny=4), SphericalGrid(ntheta=5, nphi=4), build_pauli_set(1)
_GRID_FILE = "# kind=husimi coords=planar n1=1 n2=2\n0,0,0.5\n0,1,{}\n"
# no n1, no '=', a non-numeric cell, no text, two columns, no rows
_MALFORMED_GRIDS = ("# kind=husimi coords=planar n2=1\n0,0,1\n",
                    "# kind husimi coords=planar n1=1 n2=1\n0,0,1\n",
                    "# kind=husimi coords=planar n1=1 n2=1\n0,x,1\n", "",
                    "# kind=husimi coords=planar n1=1 n2=1\n0,0\n",
                    "# kind=husimi coords=planar n1=0 n2=1\n")
_PAIR = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def _ints(v):
    return [[v, np.int64(v)]]


def _counts(least: int, *more) -> tuple:
    bad = _bad(InvalidParameter, 2.5, 2.0, "3", least - 1, np.float64(3),
               match=f"must be an integer >= {least}, got")
    return bad + list(more), _ints


_MATRIX = (_bad(InvalidObject, None, "a", [], np.ones((2, 2, 2)))
           + _bad(InvalidObject, [1, None], [[_NAN, 0], [0, 1]], [[1, 0], [0, -_INF]],
                  match="must be finite"))
_SQUARE = _MATRIX + _bad(DimensionMismatch, _WIDE)
_HERMITIAN = _SQUARE + _bad(NotHermitian, _SKEW)
_OPERATORS = (
    _bad(InvalidObject, 5, None, np.full((2, 2, 2), _NAN),
         np.array([np.eye(2), np.eye(3)], dtype=object), [[[1, 2], [3]]], [1.0, 2.0],
         [np.zeros((0, 0))], [np.ones((1, 2, 2))], [np.eye(2), None],
         [np.eye(2), [["a", "b"], ["c", "d"]]], [np.array([[1, None], [None, 1]])],
         [np.eye(2), np.full((2, 2), _NAN)], [np.diag([_INF, 1.0])],
         [np.eye(2), np.full((3, 3), _NAN)])
    + _bad(DimensionMismatch, [np.eye(2), np.eye(3)],
           [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], [basis(2, 0), basis(2, 1)],
           [np.ones(2), np.ones(2)], [np.ones(2), np.ones(3)], (identity(2), identity(3)), ()))
_REAL = _bad(InvalidParameter, _NAN, _INF, -_INF, "a", None, 10**400, 1j, 0.5 + 1e-3j)
_REALS = _bad(InvalidParameter,
              *(w for v in (_NAN, _INF, -_INF, "a", None, 1j) for w in (v, [0.3, v])),
              [0.3, [0.3, 0.4]], "0.3", match="must be finite real numbers")
_LABEL = _bad(InvalidQuantumNumber, 0.3, "a", None, _NAN, _INF)


def _no_forms(v):
    return []


def _spins(v):
    return [[v, np.int64(v), float(v)]]


def _arrays(v):
    return [[v, tuple(v), [float(x) for x in v], np.array(v, dtype=float)]]


# kind -> (invalid values as (value, error, match), valid value -> groups of equal forms)
KINDS = {
    "operator": (_MATRIX, _no_forms),
    "square": (_SQUARE, _no_forms),
    "hermitian": (_HERMITIAN, _no_forms),
    "generator": (_HERMITIAN + _bad(DimensionMismatch, identity(3), spin(1, "+")), _no_forms),
    # a ket is a state by construction, even when its squared norm overflows
    "state": (_HERMITIAN + _bad(InvalidObject, identity(2))
              + _bad(NotPositive, np.diag([1.5, -0.5]))
              + _bad(NotHermitian, [[0.5, 1.0], [0.0, 0.5]]) + _bad(ZeroNorm, [0, 0]),
              lambda v: [[[1e200, 1e200], [1.0, 1.0]]]),
    "operators": (_OPERATORS, lambda v: [[list(v), tuple(v), np.array(v)]]),
    # a list, tuple or array of operators is read as the set's ungrouped copy
    "set": (_OPERATORS + _bad(InvalidObject, 0.5) + _bad(DimensionMismatch, build_pauli_set(2)),
            lambda v: [[MeasurementSet("custom", v.stack), v.stack.tolist(), tuple(v.elements),
                        np.array(v.stack)]]),
    "count": _counts(1),
    "dimension": _counts(1, *_bad(UnsupportedDimension, 2**96, match=_GIB)),
    "cutoff": _counts(2, *_bad(UnsupportedDimension, 2**96, match=_GIB)),
    # past 2**53 a float no longer holds every count
    "shots": _counts(1, *_bad(InvalidParameter, 2**53 + 1, 2**65, 10**400,
                              match=r"at most 2\*\*53")),
    "seed": _counts(0),
    "index": (_bad(InvalidParameter, 2.5, "1", None, np.float64(1), match="must be an integer"),
              _ints),
    "indices": (_bad(InvalidParameter, 1, None, [1.5], ["1"])
                + _bad(IndexOutOfRange, [1, 1], [0], [3]),
                lambda v: [[v, tuple(v), np.array(v), [np.int64(i) for i in v]]]),
    "groups": (_bad(InvalidParameter, 5, None, [[0.5]], [[2**70]], match="integer")
               + _bad(InvalidParameter, [[]], match="group 0 is empty")
               + _bad(InvalidParameter, [[0, 5]], match="index 5 is outside")
               + _bad(InvalidParameter, [[-1]], match="index -1 is outside")
               + _bad(InvalidParameter, [[0], [0]], match="element 0 is in more"),
               lambda v: [[v, tuple(map(tuple, v)), np.array(v)]]),
    "spin": (_LABEL + _bad(InvalidQuantumNumber, -1), _spins),
    "spin label": (_LABEL, _spins),
    "integer label": (_LABEL + _bad(InvalidQuantumNumber, 0.5), _spins),
    "real": (_REAL, lambda v: [[v, np.float64(v)]]),
    "probability": (_REAL + _bad(InvalidParameter, -0.1, 1.1), lambda v: [[v, np.float64(v)]]),
    "complex": (_bad(InvalidParameter, _NAN, _INF, -_INF, complex(_INF, 0), "a", None, 10**400),
                lambda v: [[v, np.complex128(v)]]),
    "reals": (_REALS, _arrays),
    "frequencies": ([(v, InvalidDistribution, m) for v, _, m in _REALS], _arrays),
    # each end of a range is a real; (0.0, 3.0) is valid for every grid
    "range": ([(r, e, m) for v, e, m in _REAL for r in ((v, 3.0), (0.0, v))]
              + _bad(InvalidParameter, 5, None, (1.0, 2.0, 3.0)),
              lambda v: [[v, list(v), np.array(v)]]),
    "choice": (_bad(InvalidParameter, "w", 1, ["x"], np.array(["x", "y"])), _no_forms),
    "grid": (_bad(InvalidParameter, None, "grid", 61, (61, 61)), _no_forms),
    "callable": (_bad(InvalidParameter, 5, "f", [np.sqrt]), _no_forms),
    "backend": (_bad(InvalidParameter, "cdf", 5), _no_forms),
    "scenario": (_bad(InvalidParameter, None, "scenario", _KET), _no_forms),
    "path": (_bad(InvalidParameter, _Path(""), _Path("missing/grid.csv"), 5), _no_forms),
    "name": (_bad(InvalidParameter, None, 3, ["a"]), _no_forms),
}


def _own(kind: str, *bad: list, same=()) -> tuple:
    """A parameter of ``kind`` with invalid values and groups of equal forms of its own."""
    return kind, sum(bad, []), list(same)


def _encode(phi):
    return encode_phase(_KET, pauli("x"), phi)


_ALIGN = _bad(DimensionMismatch, [0.0, 0.5, 1.0], match="must align")    # three points, not two
_SCENARIO = dict(probe=_KET, generator=pauli("z"), phis=[0, 1, 2], observable=pauli("x"))
# a spin whose (2j + 1)**2 entries pass the size rule, as ``spin`` and ``clebsch_gordan`` read it
_SPIN_SQUARED = _own("spin", _bad(UnsupportedDimension, 2**96, 1e29, match=_GIB))
# a set whose Gram matrix overflows the float range, though its entries are finite
_HUGE_SET = _own("set", _bad(InvalidObject, 1e200 * _P1.stack, match="Gram matrix"))
# an end past 1e150, where |alpha|^2 would overflow
_PLANAR_RANGE = _own("range", _bad(InvalidParameter, (1e151, 3.0), (0.0, -1e151)))

# row -> (callable, one valid keyword call, {parameter: kind or _own(...)}[, result reader])
CALLS = {
    # qcore
    "QuantumObject": (QuantumObject, dict(data=[[1, 0], [0, 1]]),
                      dict(data=_own("operator", _bad(InvalidObject, np.zeros((0, 0)))))),
    "QuantumObject * factor": (_KET.__mul__, dict(scalar=0.5 - 2j), dict(scalar="complex")),
    "QuantumObject / divisor": (_KET.__truediv__, dict(scalar=0.5 - 2j), dict(scalar="complex")),
    "QuantumObject.is_hermitian": (pauli("x").is_hermitian, dict(tol=1e-10),
                                   dict(tol=_own("real", _bad(InvalidParameter, -1.0)))),
    **{f.__name__: (f, dict(x=_KET), dict(x="operator"))
       for f in (adjoint, classify, conjugate, transpose, l2norm)},
    "normalize": (normalize, dict(x=_KET),
                  dict(x=_own("operator", _bad(ZeroNorm, [0, 0], [[1, 0], [0, -1]])))),
    "to_operator": (to_operator, dict(x=_KET),
                    dict(x=_own("operator", _bad(ZeroNorm, [0, 0])))),
    "density_matrix": (density_matrix, dict(x=_KET), dict(x="state")),
    "trace": (trace, dict(x=pauli("x")), dict(x=_own("square", _bad(InvalidObject, [1, 1])))),
    "eigen": (eigen, dict(x=pauli("x")), dict(x="square")),
    "mat_exp": (mat_exp, dict(x=pauli("x")), dict(x="square")),
    "diagonalize": (diagonalize, dict(x=pauli("x")),
                    dict(x=_own("square", _bad(NotDiagonalizable, _SKEW)))),
    "ground": (ground, dict(x=pauli("x")), dict(x="hermitian")),
    "mat_sqrt": (mat_sqrt, dict(x=identity(2)),
                 dict(x=_own("hermitian", _bad(NotPositive, np.diag([1.0, -1.0]))))),
    "partial_trace": (partial_trace, dict(x=identity(4), traced=[1]),
                      dict(x=_own("square", _bad(NotQubitSystem, identity(3))), traced="indices")),
    "dot": (dot, dict(factors=(_KET.data.T, _KET)),
            dict(factors=_own("operator", _bad(DimensionMismatch, np.ones((3, 3)))))),
    "tensor": (tensor, dict(factors=(_KET, _KET)), dict(factors="operator")),
    # measurement
    "MeasurementSet": (MeasurementSet, dict(kind="custom", elements=_PAIR, groups=[[0, 1]]),
                       dict(kind="name", elements="operators", groups="groups")),
    "MeasurementSet.group_sums": (_P1.group_sums, dict(values=[1, 2, 3, 4, 5, 6]), dict(
        values=_own("reals", _bad(DimensionMismatch, range(8), [0.3, 0.5])))),
    "SamplerBackend": (SamplerBackend, dict(method="mc", seed=1, iterations=10), dict(
        method=_own("choice", _bad(InvalidParameter, None)), iterations="shots",
        seed=_own("seed", _bad(InvalidParameter, None, np.random.default_rng(1))))),
    "build_pauli_set": (build_pauli_set, dict(n=1), dict(
        n=_own("dimension", _bad(UnsupportedDimension, 6, 40, 230, match=_GIB)))),
    "build_stoke_set": (build_stoke_set, dict(n=1),
                        dict(n=_own("dimension", _bad(UnsupportedDimension, 7, 300, match=_GIB)))),
    # 1, 6, 10 and 12 are not prime powers; 97 is past the stack limit
    "build_mub_set": (build_mub_set, dict(d=3), dict(d=_own(
        "dimension", _bad(UnsupportedDimension, 1, 6, 10, 12, match="prime-power"),
        _bad(UnsupportedDimension, 97, match=_GIB)))),
    "build_sic_set": (build_sic_set, dict(d=3),
                      dict(d=_own("count", _bad(UnsupportedDimension, 9, 2**96)))),
    "weyl_displacement": (weyl_displacement, dict(d=3, j=1, k=2), dict(
        d="dimension", j=_own("index", _bad(InvalidParameter, -1, 3)),
        k=_own("index", _bad(InvalidParameter, -1, 3)))),
    "probabilities": (probabilities, dict(state=_KET, observables=_P1),
                      dict(state="state", observables="set")),
    "timed_measurement": (timed_measurement, dict(state=_KET, mset=_P1),
                          dict(state="state", mset="set"), lambda r: r[0]),
    "measure": (measure, dict(state=_KET, kraus_ops=_PAIR), dict(
        state="state", kraus_ops=_own("operators", _bad(DimensionMismatch, [identity(3)])))),
    "post_measurement_state": (post_measurement_state, dict(state=_KET, kraus=_PAIR[0]), dict(
        state="state", kraus=_own("square", _bad(DimensionMismatch, identity(3)),
                                  _bad(OutcomeImpossible, _PAIR[1])))),
    **{f"measure_and_sample {m}": (measure_and_sample, dict(
        state=_KET, mset=_P1, backend=SamplerBackend(m, 1), shots=50), dict(
        state="state", mset="set", backend=_own("backend", _bad(InvalidParameter, None)),
        shots="shots")) for m in ("mc", "cdf")},
    "sample_mc": (sample_mc, dict(p=0.3, iterations=100, rng=1),
                  dict(p="probability", iterations="shots", rng="seed")),
    "sample_cdf_discrete": (sample_cdf_discrete, dict(probs=[0, 1, 0], shots=100, rng=1),
                            dict(probs=_own("frequencies", _bad(InvalidDistribution, [0.5, 0.4],
                                                                [1.5, -0.5]),
                                            _bad(InvalidDistribution, [], [[0.5, 0.5]],
                                                 match="1-d and non-empty")),
                                 shots="shots", rng="seed")),
    "sample_cdf_continuous": (sample_cdf_continuous, dict(inverse_cdf=np.sqrt, shots=10, rng=1),
                              dict(inverse_cdf=_own("callable", _bad(InvalidParameter, None)),
                                   shots="shots", rng="seed")),
    # metrology
    "encode_phase": (encode_phase, dict(state=_KET, generator=pauli("x"), phi=0.9),
                     dict(state="state", generator="generator", phi="real")),
    # the state that rho_of_phi returns is read by the state rule
    "classical_fisher": (classical_fisher, dict(rho_of_phi=_encode, mset=_P1, phi=0.4, dphi=1e-3),
                         dict(rho_of_phi=_own(
                             "callable", _bad(InvalidParameter, None),
                             _bad(InvalidObject, lambda p: identity(2)),
                             _bad(NotPositive, lambda p: np.diag([1.5, -0.5])),
                             _bad(DimensionMismatch, lambda p: _WIDE),
                             _bad(NotHermitian, lambda p: [[0.5, 1.0], [0.0, 0.5]]),
                             same=[[lambda p: [1e200, 1e200], lambda p: [1.0, 1.0]]]),
                              mset="set", phi="real",
                              dphi=_own("real", _bad(InvalidParameter, 0, -1e-3, 1e-17, 1e-300)))),
    # 4 Var(H) = 4e400 overflows
    "quantum_fisher": (quantum_fisher, dict(rho=_KET, generator=pauli("x")), dict(
        rho="state", generator=_own("generator", _bad(
            InvalidParameter, 1e200 * pauli("x"), match="quantum Fisher information overflows")))),
    "cramer_rao_bounds": (cramer_rao_bounds, dict(F=2.0, Q=3.0, N=3), dict(
        F=_own("real", _bad(InvalidParameter, -1.0)), Q=_own("real", _bad(InvalidParameter, -1.0)),
        N="shots")),
    "cat_state": (cat_state, dict(j=1, theta=0.7, phi=0.2), dict(
        j=_own("spin", _bad(UnsupportedDimension, 2**96, match=_GIB)),
        theta=_own("real", _bad(InvalidParameter, -0.1, 4.0)), phi="real")),
    # the last two invalid phase grids and moments overflow the derivative and the variance
    "error_propagation": (error_propagation, dict(phis=[0, 1], expectation=[0, 10**10],
                                                  second_moment=[1.0, 1e21]), dict(
        phis=_own("reals", _bad(InvalidParameter, [[0, 1], [2, 3]], [0], [0, 1e-300]), _ALIGN),
        expectation=_own("reals", _bad(InvalidParameter, [1e200, 2e200]), _ALIGN),
        second_moment=_own("reals", _ALIGN))),
    "MetrologyScenario": (MetrologyScenario, _SCENARIO, dict(
        probe="state", generator="generator", observable="generator",
        phis=_own("reals", _bad(InvalidParameter, [[0, 1], [2, 3]]))), run_scenario),
    "run_scenario": (run_scenario, dict(scenario=MetrologyScenario(**_SCENARIO)), dict(
        scenario=_own("scenario", _bad(InvalidParameter, MetrologyScenario(       # <A^2> overflows
            **{**_SCENARIO, "observable": 1e160 * pauli("x")}))))),
    # operators
    "identity": (identity, dict(d=3), dict(d="dimension")),
    "lowering": (lowering, dict(d=3), dict(d="cutoff")),
    "raising": (raising, dict(d=3), dict(d="cutoff")),
    "displacement": (displacement, dict(d=4, alpha=0.7 - 0.2j),
                     dict(d="dimension", alpha="complex")),
    "squeezing": (squeezing, dict(d=4, beta=0.3 + 0.1j), dict(d="cutoff", beta="complex")),
    "pauli": (pauli, dict(axis="x"), dict(axis=_own("choice", _bad(InvalidParameter, None)))),
    "spin": (spin, dict(s=1, axis="z"), dict(s=_SPIN_SQUARED, axis="choice")),
    # phasespace
    "PlanarGrid": (PlanarGrid, dict(x_range=(-3.0, 3.0), y_range=(-2.0, 2.0), nx=5, ny=4),
                   dict(x_range=_PLANAR_RANGE, y_range=_PLANAR_RANGE, nx="cutoff", ny="cutoff")),
    "SphericalGrid": (SphericalGrid, dict(theta_range=(0.0, 3.0), phi_range=(0.0, 6.0), ntheta=5,
                                          nphi=4), dict(
        theta_range=_own("range", _bad(InvalidParameter, (0.0, 4.0), (3.0, 1.0))),
        phi_range=_own("range", _bad(InvalidParameter, (0.0, 7.0))), ntheta="cutoff",
        nphi="cutoff")),
    "clebsch_gordan": (clebsch_gordan, dict(j1=1, m1=0, j2=1, m2=0, J=2, M=0), dict(
        j1=_SPIN_SQUARED, m1="spin label", j2=_SPIN_SQUARED, m2="spin label", J=_SPIN_SQUARED,
        M="spin label")),
    **{f.__name__: (f, dict(rho=_KET, grid=_PLANE), dict(rho="state", grid=_own(
        "grid", _bad(InvalidParameter, _SPHERE)))) for f in (husimi_planar, wigner_planar)},
    **{f.__name__: (f, dict(rho=_KET, grid=_SPHERE), dict(rho="state", grid=_own(
        "grid", _bad(InvalidParameter, _PLANE)))) for f in (husimi_spherical, wigner_spherical)},
    "grid_lines": (grid_lines, dict(grid=husimi_planar(_KET, _PLANE)),
                   dict(grid=_own("grid", _bad(InvalidParameter, _PLANE)))),
    "write_grid": (write_grid, dict(grid=husimi_planar(_KET, _PLANE), path=_Path("out.csv")),
                   dict(grid=_own("grid", _bad(InvalidParameter, _PLANE)), path="path")),
    "read_grid": (read_grid, dict(path=_Path("grid.csv", _GRID_FILE.format(0.25))), dict(path=_own(
        "path", _bad(InvalidParameter, None, _Path("nan.csv", _GRID_FILE.format("nan")),
                     _Path("inf.csv", _GRID_FILE.format("-inf")),
                     *(_Path(f"bad{i}.csv", t) for i, t in enumerate(_MALFORMED_GRIDS)))))),
    # SciPy takes k as a 64-bit integer
    "spherical_harmonic": (spherical_harmonic, dict(k=2, q=1, theta=[0, 1, 3], phi=[0, 1, 6]), {
        "k": _own("integer label", _bad(InvalidQuantumNumber, -1, 10**400, 1e300)),
        "q": _own("integer label", _bad(InvalidQuantumNumber, 5)), "theta": "reals",
        "phi": "reals"}),
    "spherical_multipole": (spherical_multipole, dict(rho=_KET, k=1, q=0), dict(
        rho="state", k=_own("integer label", _bad(InvalidQuantumNumber, -1)), q="integer label")),
    # states
    **{f.__name__: (f, dict(d=3, k=1), dict(d="dimension", k=_own(
        "index", _bad(IndexOutOfRange, -1, 3),
        _bad(InvalidParameter, 1.5, 1.0, "1", None, match="index must be an integer, got"))))
       for f in (basis, dual_basis)},
    "zeeman": (zeeman, dict(j=1, m=0), dict(
        j=_own("spin", _bad(UnsupportedDimension, 1e29, match=_GIB)),
        m=_own("spin label", _bad(InvalidQuantumNumber, 5, 0.5)))),
    "coherent": (coherent, dict(d=4, alpha=0.7 - 0.2j), dict(d="dimension", alpha="complex")),
    **{f"squeezed d={d}": (squeezed, dict(d=d, alpha=-0.5 + 0.1j, beta=0.3 + 0.1j),
                           dict(d="dimension", alpha="complex", beta="complex")) for d in (4, 1)},
    "position_state": (position_state, dict(d=4, x=0.4), dict(d="cutoff", x="real")),
    "random_haar": (random_haar, dict(d=3, rng=5), dict(d="dimension", rng="seed")),
    "ghz": (ghz, dict(n=2),
            dict(n=_own("dimension", _bad(UnsupportedDimension, 40, 64, match=_GIB)))),
    "w": (w, dict(n=2), dict(n=_own("dimension", _bad(UnsupportedDimension, 64, match=_GIB)))),
    "dicke": (dicke, dict(n=3, k=1), dict(
        n=_own("dimension", _bad(UnsupportedDimension, 64, match=_GIB)),
        k=_own("index", _bad(InvalidQuantumNumber, -1, 4),
               _bad(InvalidParameter, 1.5, match="excitation count must be an integer, got")))),
    "spin_coherent": (spin_coherent, dict(j=1, theta=1.1, phi=2.3), dict(
        j=_own("spin", _bad(UnsupportedDimension, 1e29, match=_GIB)), theta="real", phi="real")),
    "add_random_noise": (add_random_noise, dict(psi=_KET, mean=0.05, stdev=0.1, rng=1), dict(
        psi=_own("operator", _bad(InvalidParameter, _KET.data.T, _MIXED, [[1.0]],
                                  match="defined for kets")), mean="real",
        stdev=_own("real", _bad(InvalidParameter, -0.1)), rng="seed")),
    "add_white_noise": (add_white_noise, dict(state=_KET, p=0.25),
                        dict(state="state", p="probability")),
    # tomography; the scores check shapes first: a non-state of another dimension is a mismatch
    **{f.__name__: (f, dict(rho=_KET, sigma=_MIXED), dict.fromkeys(
        ("rho", "sigma"), _own("state", _bad(DimensionMismatch, identity(3)))))
       for f in (fidelity, trace_distance)},
    "trace_distance_pure": (trace_distance_pure, dict(psi=_KET, phi=basis(2, 1)), dict.fromkeys(
        ("psi", "phi"), _own("operator", _bad(DimensionMismatch, _MIXED, [[1.0]], _KET.data.T,
                                         match="expects two kets"),
                       _bad(DimensionMismatch, basis(3, 0))))),
    # the last frequencies are a group whose sum overflows
    "reconstruct_linear_inversion": (reconstruct_linear_inversion, dict(
        freqs=[1, 0, 1, 1, 0, 1], mset=_P1), dict(mset=_HUGE_SET, freqs=_own(
            "frequencies", _bad(DimensionMismatch, 0.5, np.full((6, 1), 0.5)),
            _bad(InvalidDistribution, [1e308, 9e307, 1, 1, 1, 1])))),
    "run_tomography": (run_tomography, dict(true_state=_KET, mset=_P1, shots=40, estimator=None,
                                            backend=SamplerBackend("cdf", 2)), dict(
        true_state="state", mset=_HUGE_SET, shots="shots", backend="backend",
        estimator=_own("callable", _bad(InvalidObject, lambda f, ms: identity(2)),
                       _bad(DimensionMismatch, lambda f, ms: identity(3) / 3)))),
}

# public callables without a row, and why
EXEMPT = {
    **dict.fromkeys(("TomographyRun", "PrecisionCurve", "EigenDecomposition", "MeasurementOutcome",
                     "PhaseSpaceGrid", "Kind"), "a result record, filled from checked inputs"),
    **dict.fromkeys(("cmd_*", "main", "build_parser", "entry_point"),
                    "the command line, which tests/test_cli_corpus.py runs"),
}


def _public() -> dict:
    """Each public callable of qmkit and its public modules, defined in a public qmkit module,
    and each public method of such a class, as ``Class.method``."""
    modules = [qmkit] + [importlib.import_module(f"qmkit.{m.name}")
                         for m in pkgutil.iter_modules(qmkit.__path__)
                         if not m.name.startswith("_")]
    public = {name: obj for module in modules for name, obj in vars(module).items()
              if callable(obj) and not name.startswith("_")
              and (home := getattr(obj, "__module__", None) or "").startswith("qmkit.")
              and not home.rpartition(".")[2].startswith("_")}
    return public | {f"{name}.{attr}": f for name, cls in public.items() if isinstance(cls, type)
                     for attr, f in vars(cls).items()
                     if inspect.isfunction(f) and not attr.startswith("_")}


def _unlisted(public: dict) -> list:
    """(name, parameter) of each public parameter that a row of its callable does not list;
    a row of a method calls it bound, so its ``self`` is not listed."""
    missing = []
    for name, obj in public.items():
        if any(fnmatch(name, p) for p in EXEMPT) or (isinstance(obj, type)
                                                     and issubclass(obj, QmkitError)):
            continue                                             # an error takes its message
        rows = [row[2] for row in CALLS.values()
                if getattr(row[0], "__func__", row[0]) is obj] or [{}]
        missing += [(name, p) for p in inspect.signature(obj).parameters
                    for kinds in rows if p not in kinds and not ("." in name and p == "self")]
    return missing


def test_every_public_parameter_has_a_kind():
    assert _unlisted(_public()) == []


def test_the_walker_fails_on_an_unlisted_parameter(monkeypatch):
    def shifted(state, offset):
        return state

    def scaled(self, factor):
        return self
    shifted.__module__ = "qmkit.states"
    monkeypatch.setattr(qmkit.states, "shifted", shifted, raising=False)
    monkeypatch.setattr(QuantumObject, "scaled", scaled, raising=False)
    assert _unlisted(_public()) == [("shifted", "state"), ("shifted", "offset"),
                                    ("QuantumObject.scaled", "factor")]


def test_rows_list_exactly_the_parameters_of_their_call_by_known_kinds():
    for call, _, kinds, *_ in CALLS.values():
        assert set(kinds) == set(inspect.signature(call).parameters), call
        assert all((k if isinstance(k, str) else k[0]) in KINDS for k in kinds.values())


def _bits(x):
    """What ``x`` holds, as comparable bytes and reprs."""
    if isinstance(x, QuantumObject):
        x = x.data
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if dataclasses.is_dataclass(x):
        return [_bits(getattr(x, f.name)) for f in dataclasses.fields(x)]
    return repr(x)


_ROWS = [(row, param) for row, (_, _, kinds, *_) in CALLS.items() for param in kinds]


def _case(row, param, tmp_path):
    """The parameter's invalid values and groups of equal forms, and a runner of the call."""
    call, valid, kinds, *read = CALLS[row]
    kind, own, same = (kinds[param], [], []) if isinstance(kinds[param], str) else kinds[param]
    bad, forms = KINDS[kind]
    variadic = inspect.signature(call).parameters[param].kind is inspect.Parameter.VAR_POSITIONAL

    def run(value):
        kw = {k: v.at(tmp_path) if isinstance(v, _Path) else v
              for k, v in {**valid, param: value}.items()}
        out = call(*kw.pop(param), **kw) if variadic else call(**kw)
        return read[0](out) if read else out

    invalid = [((value, *valid[param][1:]) if variadic else value, error, match)
               for value, error, match in bad + own]
    return run, valid[param], invalid, forms(valid[param]) + same


_FORMED = [(r, p) for r, p in _ROWS if _case(r, p, None)[3]]


@pytest.mark.parametrize("row, param", _ROWS, ids=[f"{r}-{p}" for r, p in _ROWS])
def test_invalid_values_raise_their_error(row, param, tmp_path):
    run, valid, invalid, _ = _case(row, param, tmp_path)
    run(valid)
    for value, error, match in invalid:
        with pytest.raises(error, match=match):
            run(value)


@pytest.mark.parametrize("row, param", _FORMED, ids=[f"{r}-{p}" for r, p in _FORMED])
def test_equal_forms_give_equal_bytes(row, param, tmp_path):
    run, _, _, groups = _case(row, param, tmp_path)
    for group in groups:
        want = _bits(run(group[0]))
        for form in group[1:]:
            assert _bits(run(form)) == want
            assert not isinstance(form, np.ndarray) or form.flags.writeable     # read, not frozen
