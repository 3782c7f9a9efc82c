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
uses as well.  Occupancy of a 1-edge cell is the
constant 1 and is moved to the right-hand side at build time; coincident
pattern cells of degenerate candidates keep their multiplicity
(coefficient 2), so every c3 row carries exactly five occupancy terms
counted with multiplicity.  A row whose right-hand side collapses to
``x_k <= 0`` marks a candidate that can never be selected; with static
pruning enabled such candidates are fixed to zero instead of emitting the
row.  The objective maximizes the sum of the x variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .board import (
    Cell,
    Mode,
    NONDEGENERATE,
    TwoEdge,
    check_mode,
    check_q,
    classify,
    available_cells,
    candidate_family,
)
from .families import Family
from .admissibility import (
    VerifyResult,
    cell_claims,
    corner_cells,
    pattern_cells,
    verify,
    witness_set,  # re-exported: part of this module's public surface
)


class SolutionFormatError(ValueError):
    """Malformed or incomplete solution file."""


@dataclass(frozen=True)
class LinearRow:
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
    cell_index = {cell: idx for idx, cell in enumerate(cells)}
    num_x = len(cands)

    var_names = [f"x_{k}" for k in range(num_x)]
    var_names += [f"o_{i}_{j}_{c}" for (i, j, c) in cells]

    claims = cell_claims(cands)
    model_rows: list[LinearRow] = []
    fixed_zero: set[int] = set()

    for idx, cell in enumerate(cells):
        terms = [(1, num_x + idx)] + [(-1, k) for k in claims.get(cell, ())]
        model_rows.append(
            LinearRow(name=f"s_{idx}", terms=tuple(terms), sense="=", rhs=0, tag="S")
        )

    def add_rule_row(k: int, name: str, tag: str, rule_cells: tuple[Cell, ...]) -> None:
        """x_k + occupancy of the rule's cells <= their count.

        A cell without an o-variable is a 1-edge cell, whose occupancy is
        the constant 1 and moves to the right-hand side.
        """
        const = 0
        mult: dict[int, int] = {}
        for cell in rule_cells:
            idx = cell_index.get(cell)
            if idx is None:
                const += 1
            else:
                var = num_x + idx
                mult[var] = mult.get(var, 0) + 1
        rhs = len(rule_cells) - const
        if rhs == 0 and prune_static:
            # every cell is a 1-edge cell: x_k can never be 1
            fixed_zero.add(k)
            return
        terms = [(1, k)] + [(mult[v], v) for v in sorted(mult)]
        model_rows.append(
            LinearRow(name=name, terms=tuple(terms), sense="<=", rhs=rhs, tag=tag)
        )

    for k, edge in enumerate(cands):
        if classify(edge) == NONDEGENERATE:
            add_rule_row(k, f"c2_{k}", "C2", corner_cells(edge))
    for k, edge in enumerate(cands):
        for w_idx, witness in enumerate(witness_set(edge, q)):
            add_rule_row(k, f"c3_{k}_{w_idx}", "C3", pattern_cells(edge, witness))

    return IlpModel(
        q=q,
        mode=mode,
        prune_static=prune_static,
        candidates=tuple(cands),
        cells=tuple(cells),
        var_names=tuple(var_names),
        rows=tuple(model_rows),
        fixed_zero=tuple(sorted(fixed_zero)),
    )


def _wrap_terms(parts: list[str], per_line: int = 8) -> list[str]:
    return [" " + " ".join(parts[i : i + per_line]) for i in range(0, len(parts), per_line)]


def export_lp(model: IlpModel) -> str:
    """Deterministic LP-format text; byte-identical for identical inputs."""
    lines = [
        f"\\ q={model.q} mode={model.mode} prune={'on' if model.prune_static else 'off'}"
        f" candidates={model.num_x} cells={len(model.cells)}",
        "Maximize",
    ]
    obj_parts = []
    for k in range(model.num_x):
        prefix = "" if k == 0 else "+ "
        obj_parts.append(f"{prefix}{model.var_names[k]}")
    first, *rest = _wrap_terms(obj_parts)
    lines.append(" obj:" + first)
    lines.extend(rest)

    lines.append("Subject To")
    for row in model.rows:
        parts = []
        for pos, (coef, var) in enumerate(row.terms):
            name = model.var_names[var]
            mag = "" if abs(coef) == 1 else f"{abs(coef)} "
            if pos == 0:
                sign = "- " if coef < 0 else ""
            else:
                sign = "- " if coef < 0 else "+ "
            parts.append(f"{sign}{mag}{name}")
        body = _wrap_terms(parts)
        body[-1] += f" {'=' if row.sense == '=' else '<='} {row.rhs}"
        lines.append(f" {row.name}:" + body[0])
        lines.extend(body[1:])

    if model.fixed_zero:
        lines.append("Bounds")
        for k in model.fixed_zero:
            lines.append(f" {model.var_names[k]} = 0")

    lines.append("Binary")
    for name in model.var_names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    violated = []
    for row in model.rows:
        total = sum(coef * values[var] for coef, var in row.terms)
        ok = total == row.rhs if row.sense == "=" else total <= row.rhs
        if not ok:
            violated.append(row.name)
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
