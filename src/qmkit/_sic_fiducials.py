"""Fiducial vectors whose Weyl-Heisenberg orbits form SIC-POVMs, d = 2..8.

d = 2 and d = 3 are the closed-form solutions; d = 4..8 were obtained by
numerically minimizing the squared deviation of all pairwise overlaps
from 1/(d+1) over the displacement orbit; the search is not shipped, and
the results are frozen here to 17 significant digits.  Every vector is
re-verified against the overlap condition before first use (see
measurement.build_sic_set).
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedDimension


def _d2() -> np.ndarray:
    r = 1.0 / np.sqrt(3.0)
    return np.array(
        [np.sqrt((1 + r) / 2), np.exp(1j * np.pi / 4) * np.sqrt((1 - r) / 2)]
    )


def _d3() -> np.ndarray:
    return np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)


_NUMERIC = {
    4: [
        (+0.068909968958553142) + (+0.48079909639615886) * 1j,
        (+0.75028485585342264) + (+1.2695676952426455e-17) * 1j,
        (+0.19915350650449642) + (-0.028543443725811177) * 1j,
        (+0.2980292031828593) + (+0.26806347546281289) * 1j,
    ],
    5: [
        (+0.70705358629745008) + (+1.7738410796651112e-18) * 1j,
        (-0.13488291140858444) + (-0.10574437644695961) * 1j,
        (-0.08291070940527219) + (-0.38215431883906298) * 1j,
        (+0.27482965031243201) + (-0.13237662539064343) * 1j,
        (-0.40897667903402912) + (-0.23972278237142322) * 1j,
    ],
    6: [
        (-0.16306873095344487) + (-0.33679443042115015) * 1j,
        (+0.65893292333977382) + (-2.2157634101590141e-17) * 1j,
        (-0.27130486466337567) + (-0.12074405375852146) * 1j,
        (+0.45533501953299965) + (-0.20866043106504512) * 1j,
        (+0.28667072897566948) + (+0.025105799298151751) * 1j,
        (+0.012351408258085981) + (-0.061383436301711343) * 1j,
    ],
    7: [
        (+0.07133365864658113) + (+0.00075980307744858951) * 1j,
        (-0.070583762173295803) + (+0.39039689599868055) * 1j,
        (+0.29323687781191504) + (-0.021963569048215056) * 1j,
        (+0.17169330735633426) + (-0.04155978097402243) * 1j,
        (+0.6403633847663146) + (+8.9148704846952199e-17) * 1j,
        (+0.26495085455689027) + (+0.31975751836824789) * 1j,
        (+0.32975731384259338) + (-0.16909783981516219) * 1j,
    ],
    8: [
        (+0.37451183961434165) + (+0.11176811483848231) * 1j,
        (+0.011095098769008408) + (-0.31842533261988026) * 1j,
        (+0.63285159820393766) + (+9.3898425645112398e-17) * 1j,
        (+0.012423126707250572) + (+0.24397383191027963) * 1j,
        (+0.018035109491375372) + (+0.12746348456538412) * 1j,
        (+0.26016482719620565) + (-0.16463036600743206) * 1j,
        (+0.23017394862657728) + (-0.2094326624812349) * 1j,
        (+0.14979753394186293) + (-0.23432835729127796) * 1j,
    ],
}

SUPPORTED_DIMS = (2, 3, 4, 5, 6, 7, 8)


def fiducial(d: int) -> np.ndarray:
    """Unit fiducial vector for dimension d in 2..8."""
    if d == 2:
        v = _d2()
    elif d == 3:
        v = _d3()
    elif d in _NUMERIC:
        v = np.array(_NUMERIC[d], dtype=complex)
    else:
        raise UnsupportedDimension(
            f"SIC fiducial vectors are available for d in {SUPPORTED_DIMS}, got {d}"
        )
    return v / np.linalg.norm(v)
