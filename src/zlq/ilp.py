"""0-1 integer linear model of the admissibility rules, plus LP-file export.

Variables: one selection variable ``x_<k>`` per candidate 2-edge (canonical
candidate order) and one occupancy variable ``o_<i>_<j>_<c>`` per available
cell.  Rows:

* ``s_<a>``   (one per cell):  o_a - sum of x over candidates using a = 0
* ``c2_<k>``  (nondegenerate): x_k + occupancy of both opposite corners <= 2
* ``c3_<k>_<w>`` (per witness): x_k + the five pattern occupancies <= 5

The cells of every row come from the rule definitions in
``admissibility`` (``cell_claims`` for the s-rows; ``corner_cells``,
``witness_set`` and ``pattern_cells`` for c2 and c3), which the verifier
uses as well.  Occupancy of a 1-edge cell is the constant 1 and is moved
to the right-hand side at build time; coincident pattern cells of
degenerate candidates keep their multiplicity (coefficient 2), so every
c3 row carries exactly five occupancy terms counted with multiplicity.
Each coefficient-1 term is the one shared ``(1, var)`` tuple of its variable.
A row whose right-hand side collapses to ``x_k <= 0`` marks a candidate
that can never be selected; with static pruning enabled such candidates
are fixed to zero instead of emitting the row.  The objective maximizes
the sum of the x variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NamedTuple

from .board import (
    Mode,
    NONDEGENERATE,
    TwoEdge,
    check_mode,
    check_q,
    classify,
    available_cells,
    candidate_family,
    rows as board_rows_of,
)
from .families import Family
from .admissibility import (
    VerifyResult,
    _witnesses,
    cell_claims,
    corner_cells,
    pattern_cells,
    verify,
    witness_set,  # re-exported: part of this module's public surface
)

_PER_LINE = 8  # LP terms per line


class SolutionFormatError(ValueError):
    """Malformed or incomplete solution file."""


class LinearRow(NamedTuple):
    name: str
    terms: tuple[tuple[int, int], ...]  # (coefficient, variable index)
    sense: str  # "=" or "<="
    rhs: int
    tag: str  # "S" | "C2" | "C3"


@dataclass(frozen=True)
class IlpModel:
    q: int
    mode: Mode
    prune_static: bool
    candidates: tuple[TwoEdge, ...]
    cells: tuple[tuple[int, int, int], ...]
    var_names: tuple[str, ...]  # x variables first, then o variables
    rows: tuple[LinearRow, ...]
    fixed_zero: tuple[int, ...]  # candidate indices pinned to 0 by pruning

    @property
    def num_x(self) -> int:
        return len(self.candidates)

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def counts(self) -> dict[str, int]:
        out = {"S": 0, "C2": 0, "C3": 0}
        for row in self.rows:
            out[row.tag] += 1
        out["variables"] = self.num_vars
        out["fixed_zero"] = len(self.fixed_zero)
        return out


def build_model(q: int, mode: Mode = "full", prune_static: bool = False) -> IlpModel:
    """Construct the model for the candidate family of the q-board."""
    check_q(q)
    check_mode(mode)
    cells = available_cells(q)
    cands = candidate_family(q, mode)
    num_x = len(cands)
    var_names = [f"x_{k}" for k in range(num_x)]
    var_names += [f"o_{i}_{j}_{c}" for (i, j, c) in cells]
    unit = [(1, v) for v in range(len(var_names))]
    # a 1-edge cell has no o-variable (its occupancy 1 moves to the rhs)
    term_of = dict(zip(cells, unit[num_x:])).get
    new_row = partial(tuple.__new__, LinearRow)  # skips the Python-level __new__
    rows: list[LinearRow] = []
    fixed_zero: set[int] = set()

    claims = cell_claims(cands)
    for idx, cell in enumerate(cells):
        terms = (unit[num_x + idx], *[(-1, k) for k in claims.get(cell, ())])
        rows.append(new_row((f"s_{idx}", terms, "=", 0, "S")))

    nondeg = [classify(edge) == NONDEGENERATE for edge in cands]
    c2 = ((k, f"c2_{k}", "C2", corner_cells(e)) for k, e in enumerate(cands) if nondeg[k])
    board_rows = board_rows_of(q)
    c3 = (
        (k, f"c3_{k}_{w}", "C3", pattern_cells(e, witness))
        for k, e in enumerate(cands)
        for w, witness in enumerate(_witnesses(e, q, board_rows))
    )
    # each rule row: x_k + occupancy of the rule's cells <= their count
    for k, name, tag, rule_cells in chain(c2, c3):
        occupied = sorted(filter(None, map(term_of, rule_cells)))
        if not occupied and prune_static:
            # every cell is a 1-edge cell: x_k can never be 1
            fixed_zero.add(k)
            continue
        rhs = len(occupied)
        if not nondeg[k]:  # an edge sharing a row or a column can repeat a pattern cell
            distinct = dict.fromkeys(occupied)
            occupied = [t if (m := occupied.count(t)) == 1 else (m, t[1]) for t in distinct]
        rows.append(new_row((name, (unit[k], *occupied), "<=", rhs, tag)))

    return IlpModel(
        q=q,
        mode=mode,
        prune_static=prune_static,
        candidates=tuple(cands),
        cells=tuple(cells),
        var_names=tuple(var_names),
        rows=tuple(rows),
        fixed_zero=tuple(sorted(fixed_zero)),
    )


class _PerTerm(dict):
    """A function of a ``(coefficient, variable)`` term, computed once per distinct term."""

    def __init__(self, of):
        self.of = of

    def __missing__(self, term):
        value = self[term] = self.of(term)
        return value


def _wrap_terms(parts: list[str]) -> list[str]:
    return [" " + " ".join(parts[i : i + _PER_LINE]) for i in range(0, len(parts), _PER_LINE)]


def export_lp(model: IlpModel) -> str:
    """Deterministic LP-format text; byte-identical for identical inputs."""
    names = model.var_names
    lines = [
        f"\\ q={model.q} mode={model.mode} prune={'on' if model.prune_static else 'off'}"
        f" candidates={model.num_x} cells={len(model.cells)}",
        "Maximize",
    ]
    first, *rest = _wrap_terms([names[0], *[f"+ {n}" for n in names[1 : model.num_x]]])
    lines.append(" obj:" + first)
    lines.extend(rest)

    lines.append("Subject To")
    # "+ name", "- name" or "+ 2 name"; a row's first term drops a "+ " sign
    text = _PerTerm(
        lambda term: f"{'-' if term[0] < 0 else '+'} "
        f"{'' if abs(term[0]) == 1 else f'{abs(term[0])} '}{names[term[1]]}"
    ).__getitem__
    for name, terms, sense, rhs, _ in model.rows:
        parts = [*map(text, terms)]
        if parts[0][0] == "+":
            parts[0] = parts[0][2:]
        end = f" {'=' if sense == '=' else '<='} {rhs}"
        if len(parts) <= _PER_LINE:  # one line: no wrapping and no slices
            lines.append(f" {name}: {' '.join(parts)}{end}")
        else:
            body = _wrap_terms(parts)
            lines.append(f" {name}:{body[0]}")
            lines.extend(body[1:])
            lines[-1] += end

    if model.fixed_zero:
        lines.append("Bounds")
        lines.extend(f" {names[k]} = 0" for k in model.fixed_zero)

    lines.append("Binary")
    lines.extend(f" {name}" for name in names)
    lines.append("End\n")
    return "\n".join(lines)


def family_to_assignment(model: IlpModel, family: Family) -> list[int]:
    """Induced 0/1 vector: x per selected candidate, o per claimed cell.

    Occupancy is 1 on every cell in ``cell_claims``, also when two selected
    candidates share it, so the corresponding s-row registers the
    infeasibility instead of the vector silently leaving {0,1}.
    """
    if family.q != model.q:
        raise ValueError(f"family q={family.q} does not match model q={model.q}")
    cand_index = {e: k for k, e in enumerate(model.candidates)}
    values = [0] * model.num_vars
    cell_index = {cell: idx for idx, cell in enumerate(model.cells)}
    for edge in family.edges:
        k = cand_index.get(edge)
        if k is None:
            raise ValueError(f"edge {edge} is not a candidate of this model (mode={model.mode})")
        values[k] = 1
    for cell in cell_claims(family.edges):
        values[model.num_x + cell_index[cell]] = 1
    return values


def evaluate(model: IlpModel, values: list[int]) -> list[str]:
    """Names of constraint rows violated by a 0/1 vector, in model order."""
    if len(values) != model.num_vars:
        raise ValueError(f"expected {model.num_vars} values, got {len(values)}")
    value = _PerTerm(lambda term: term[0] * values[term[1]]).__getitem__
    violated = []
    for name, terms, sense, rhs, _ in model.rows:
        total = sum(map(value, terms))
        if total != rhs if sense == "=" else total > rhs:
            violated.append(name)
    for k in model.fixed_zero:
        if values[k]:
            violated.append(f"fixed_{model.var_names[k]}")
    return violated


def parse_solution_file(text: str, model: IlpModel) -> list[int]:
    """Read a ``name value`` per line assignment covering every variable.

    Lines starting with ``#`` and blank lines are skipped; values may be
    solver-style floats but must sit within 1e-6 of 0 or 1 (so ``inf`` and
    ``nan`` are not binary).
    """
    name_to_idx = {name: idx for idx, name in enumerate(model.var_names)}
    values: list[int | None] = [None] * model.num_vars
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise SolutionFormatError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, value_token = tokens
        idx = name_to_idx.get(name)
        if idx is None:
            raise SolutionFormatError(f"line {lineno}: unknown variable {name!r}")
        try:
            value = float(value_token)
        except ValueError:
            raise SolutionFormatError(f"line {lineno}: bad value {value_token!r}") from None
        rounded = round(value) if math.isfinite(value) else None
        if rounded not in (0, 1) or abs(value - rounded) > 1e-6:
            raise SolutionFormatError(f"line {lineno}: value {value_token!r} is not binary")
        if values[idx] is not None:
            raise SolutionFormatError(f"line {lineno}: duplicate assignment for {name}")
        values[idx] = int(rounded)
    missing = [model.var_names[i] for i, v in enumerate(values) if v is None]
    if missing:
        preview = ", ".join(missing[:5])
        raise SolutionFormatError(
            f"incomplete assignment: {len(missing)} variables missing ({preview}, ...)"
        )
    return [v for v in values if v is not None]


@dataclass(frozen=True)
class SolutionImport:
    family: Family
    objective: int  # number of selected candidates
    violated_rows: tuple[str, ...]
    ilp_feasible: bool
    verifier: VerifyResult
    consistent: bool  # ILP feasibility agrees with the verifier verdict


def import_solution(model: IlpModel, values: list[int]) -> SolutionImport:
    """Extract the selected family, re-check the rows, and cross-verify."""
    violated = tuple(evaluate(model, values))  # first: it rejects a vector of the wrong length
    selected = [model.candidates[k] for k in range(model.num_x) if values[k]]
    family = Family.from_edges(model.q, selected)
    verdict = verify(family)
    return SolutionImport(
        family=family,
        objective=len(selected),
        violated_rows=violated,
        ilp_feasible=not violated,
        verifier=verdict,
        consistent=(not violated) == verdict.ok,
    )
