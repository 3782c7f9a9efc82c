"""Bundled reference families and small-parameter reference values.

The families ship as family files under ``zlq/data/families`` and are
parsed on access, so a transcription slip shows up as a verifier failure
in the test suite rather than as a silently wrong constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from math import comb

from .families import Family, parse_family

REFERENCE_QS = (3, 4, 5, 6, 7)
_SIZES = {3: 2, 4: 6, 5: 13, 6: 22, 7: 32}
_EXACT = {3: True, 4: True, 5: False, 6: False, 7: False}


def reference_family(q: int) -> Family:
    """The bundled verified family for q in 3..7 (sizes 2, 6, 13, 22, 32)."""
    if q not in REFERENCE_QS:
        raise ValueError(f"reference families exist for q in {REFERENCE_QS}, got {q}")
    text = (
        resources.files("zlq.data")
        .joinpath(f"families/q{q}.zlq")
        .read_text(encoding="utf-8")
    )
    return parse_family(text)


@dataclass(frozen=True)
class ReferenceRow:
    q: int
    z: int  # classical value q(q+1)
    z_limited: int  # value (exact) or best known lower bound
    exact: bool


def reference_table() -> tuple[ReferenceRow, ...]:
    """Small-parameter values: exact at q=3,4; lower bounds at q=5,6,7."""
    out = []
    for q in REFERENCE_QS:
        z = q * (q + 1)
        out.append(ReferenceRow(q=q, z=z, z_limited=z + _SIZES[q], exact=_EXACT[q]))
    return tuple(out)


def gap_ratio(q: int) -> float:
    """Relative improvement (z_limited - z) / z, as a percentage (q in 4..7)."""
    if q not in (4, 5, 6, 7):
        raise ValueError(f"gap ratios are tabulated for q in 4..7, got {q}")
    row = next(r for r in reference_table() if r.q == q)
    return 100.0 * (row.z_limited - row.z) / row.z


def k4t_bound(t: int) -> int:
    """Block-construction lower bound 2*C(4t,2) + 4t^2 - 2t for the 4t-vertex case."""
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return 2 * comb(4 * t, 2) + 4 * t * t - 2 * t
