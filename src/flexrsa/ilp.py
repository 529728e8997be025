"""Per-request optimization model as an explicit linear constraint system.

Routes are pre-fixed from a candidate path list, so arc-usage variables
reduce to fixed bounds tied to the path-used variable.  All remaining
families are emitted symbolically over binary/integer variables:

    routing      xe_{p,e} = x_p on the route, 0 off it (and xei likewise)
    continuity   y_{p,i} equals the slot usage on every route arc
    consecutive  band size accounting and the span-vs-size big-M rule
    non-overlap  slot exclusivity between paths sharing an arc
    lin-gamma    gamma_{p,p',e} = xe_{p,e} * xe_{p',e} via three inequalities
    guard-band   forbidden slots near existing occupancy; pairwise slot gaps
    bandwidth    total slots across paths equal the demand
    gvd          dispersion skew tied to band size and route length
    lin-z        z_{p,e} = T_p * xe_{p,e} via three inequalities
    delay        path delay from arc delays
    diff-delay   pairwise delay spread plus skews bounded by M (deactivated
                 for unused path slots via a big-M term)

Coefficients and right-hand sides are plain integers, except in the gvd
rows, whose dispersion coefficients and half-unit slack are exact
``Fraction`` values.  So evaluation is exact, and the LP-format export is
bit-stable and parses back to an equal system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .physics import FiberParams, gvd_differential_delay_ps, slot_width_nm
from .spectrum import SlotRange
from .topology import Link, Network

FAMILIES = (
    "routing",
    "continuity",
    "consecutive",
    "non-overlap",
    "lin-gamma",
    "guard-band",
    "bandwidth",
    "gvd",
    "lin-z",
    "delay",
    "diff-delay",
)

_PREFIX = {
    "routing": "rt",
    "continuity": "ct",
    "consecutive": "cs",
    "non-overlap": "no",
    "lin-gamma": "lg",
    "guard-band": "gb",
    "bandwidth": "bw",
    "gvd": "gv",
    "lin-z": "lz",
    "delay": "dl",
    "diff-delay": "dd",
}
_FAMILY_OF_PREFIX = {v: k for k, v in _PREFIX.items()}


class ModelError(ValueError):
    """Raised for invalid model construction or evaluation input."""


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "binary" | "integer"
    lb: int = 0
    ub: int = 1


@dataclass(frozen=True)
class Constraint:
    name: str
    family: str
    coeffs: tuple[tuple[str, int | Fraction], ...]
    relation: str  # "<=" | ">=" | "="
    rhs: int | Fraction


@dataclass(frozen=True)
class ModelMeta:
    """Instance data needed to translate band solutions into assignments."""

    paths: tuple[tuple[int, ...], ...]  # arc ids per candidate path
    arc_delay: Mapping[int, int]
    arc_length: Mapping[int, float]
    slots: int
    gb: int
    max_dd_ps: int
    fiber: FiberParams
    occupied: Mapping[int, tuple[int, ...]]
    source: str
    destination: str
    demand: int


@dataclass
class ConstraintSystem:
    variables: dict[str, VarDecl]
    constraints: list[Constraint]
    objective: tuple[tuple[str, int | Fraction], ...]
    meta: ModelMeta | None = field(default=None, compare=False)

    def variable_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self.variables:
            prefix = name.split("_", 1)[0]
            counts[prefix] = counts.get(prefix, 0) + 1
        return counts

    def constraints_by_family(self, family: str) -> list[Constraint]:
        return [c for c in self.constraints if c.family == family]


def _normalize_paths(candidate_paths: Sequence) -> list[tuple[Link, ...]]:
    routes = []
    for path in candidate_paths:
        arcs = tuple(getattr(path, "arcs", path))
        if not arcs:
            raise ModelError("candidate path with no arcs")
        routes.append(arcs)
    return routes


def build_model(
    net: Network,
    source: str,
    destination: str,
    demand: int,
    candidate_paths: Sequence,
    *,
    slots: int,
    gb: int = 0,
    max_dd_ps: int = 128_000_000_000,
    fiber_params: FiberParams | None = None,
    occupied: Mapping[int, Iterable[int]] | None = None,
) -> ConstraintSystem:
    """Build the constraint system for one request over fixed candidate routes.

    ``occupied`` maps arc id to already-taken slot indices; slots within the
    guard band of taken spectrum become forbidden for the request (the
    available-set exclusion rule).
    """
    if not candidate_paths:
        raise ModelError("empty candidate path set")
    if slots <= 0:
        raise ModelError(f"slots must be positive, got {slots}")
    if demand < 1:
        raise ModelError(f"demand must be >= 1, got {demand}")
    if gb < 0:
        raise ModelError(f"gb must be >= 0, got {gb}")
    if max_dd_ps < 0:
        raise ModelError(f"max_dd_ps must be >= 0, got {max_dd_ps}")
    fiber = fiber_params or FiberParams()
    routes = _normalize_paths(candidate_paths)
    npaths = len(routes)
    if demand > npaths * slots:
        raise ModelError(
            f"demand {demand} exceeds the capacity |P|*|F| = {npaths}*{slots} = {npaths * slots}"
        )
    route_ids = [tuple(a.id for a in arcs) for arcs in routes]
    route_sets = [set(ids) for ids in route_ids]
    arc_by_id = {a.id: a for arcs in routes for a in arcs}
    e_used = sorted(arc_by_id)
    occ: dict[int, tuple[int, ...]] = {
        e: tuple(sorted(int(i) for i in v)) for e, v in (occupied or {}).items()
    }

    route_delay = [sum(arc_by_id[e].delay_ps for e in ids) for ids in route_ids]
    route_len = [sum(arc_by_id[e].length_km for e in ids) for ids in route_ids]
    width_nm = slot_width_nm(fiber)
    gvd_ub = [
        int(math.ceil(fiber.dispersion_ps_per_nm_km * slots * width_nm * length)) + 1
        for length in route_len
    ]
    big_m = max(d + g for d, g in zip(route_delay, gvd_ub)) + 1

    def x(p):
        return f"x_p{p + 1}"

    def xe(p, e):
        return f"xe_p{p + 1}_e{e}"

    def y(p, i):
        return f"y_p{p + 1}_f{i}"

    def xei(p, e, i):
        return f"xei_p{p + 1}_e{e}_f{i}"

    def o(p, q):
        return f"o_p{p + 1}_p{q + 1}"

    def g(p, q, e):
        return f"g_p{p + 1}_p{q + 1}_e{e}"

    def z(p, e):
        return f"z_p{p + 1}_e{e}"

    variables: dict[str, VarDecl] = {}

    def declare(name, kind, lb=0, ub=1):
        variables[name] = VarDecl(name, kind, lb, ub)

    for p in range(npaths):
        declare(x(p), "binary")
    for p in range(npaths):
        for e in e_used:
            declare(xe(p, e), "binary")
    for p in range(npaths):
        for i in range(slots):
            declare(y(p, i), "binary")
    for p in range(npaths):
        for e in e_used:
            for i in range(slots):
                declare(xei(p, e, i), "binary")
    pairs = [(p, q) for p in range(npaths) for q in range(p + 1, npaths)]
    shared = {(p, q): sorted(route_sets[p] & route_sets[q]) for p, q in pairs}
    for p, q in pairs:
        declare(o(p, q), "binary")
    for p, q in pairs:
        for e in shared[(p, q)]:
            declare(g(p, q, e), "binary")
    for p in range(npaths):
        for e in route_ids[p]:
            declare(z(p, e), "integer", 0, slots)
    for p in range(npaths):
        declare(f"pd_p{p + 1}", "integer", 0, route_delay[p])
    for p in range(npaths):
        declare(f"T_p{p + 1}", "integer", 0, slots)
    for p in range(npaths):
        declare(f"gvd_p{p + 1}", "integer", 0, gvd_ub[p])

    constraints: list[Constraint] = []
    counters = {fam: 0 for fam in FAMILIES}

    def emit(family, coeffs, relation, rhs):
        idx = counters[family]
        counters[family] += 1
        merged: dict[str, int | Fraction] = {}
        for n, c in coeffs:
            merged[n] = merged.get(n, 0) + c
        constraints.append(
            Constraint(
                f"{_PREFIX[family]}_{idx}",
                family,
                tuple((n, c) for n, c in merged.items() if c != 0),
                relation,
                rhs,
            )
        )

    one = 1

    # routing: arc usage pinned to the fixed route
    for p in range(npaths):
        on_route = route_sets[p]
        for e in e_used:
            if e in on_route:
                emit("routing", [(xe(p, e), one), (x(p), -one)], "=", 0)
            else:
                emit("routing", [(xe(p, e), one)], "=", 0)
        for e in e_used:
            if e not in on_route:
                for i in range(slots):
                    emit("routing", [(xei(p, e, i), one)], "=", 0)

    # continuity: y equals source-arc usage; usage carried along the route
    src_arcs = [e for e in e_used if arc_by_id[e].src == source]
    for p in range(npaths):
        for i in range(slots):
            coeffs = [(y(p, i), one)] + [(xei(p, e, i), -one) for e in src_arcs]
            emit("continuity", coeffs, "=", 0)
        for e1, e2 in zip(route_ids[p], route_ids[p][1:]):
            for i in range(slots):
                emit("continuity", [(xei(p, e1, i), one), (xei(p, e2, i), -one)], "=", 0)

    # consecutive: band size accounting and span rule
    for p in range(npaths):
        coeffs = [(f"T_p{p + 1}", one)]
        for e in src_arcs:
            for i in range(slots):
                coeffs.append((xei(p, e, i), -one))
        emit("consecutive", coeffs, "=", 0)
    for p in range(npaths):
        for e in route_ids[p]:
            for i in range(slots):
                for j in range(i, slots):
                    # j*xj - i*xi + 1 <= T + (2 - xi - xj)*F
                    coeffs = [
                        (xei(p, e, j), j + slots),
                        (xei(p, e, i), slots - i),
                        (f"T_p{p + 1}", -one),
                    ]
                    emit("consecutive", coeffs, "<=", 2 * slots - 1)

    # non-overlap
    for p, q in pairs:
        for e in shared[(p, q)]:
            emit("non-overlap", [(xe(p, e), one), (xe(q, e), one), (o(p, q), -one)], "<=", 1)
    for p, q in pairs:
        for i in range(slots):
            emit("non-overlap", [(y(p, i), one), (y(q, i), one), (o(p, q), one)], "<=", 2)
    for p in range(npaths):
        for i in range(slots):
            emit("non-overlap", [(y(p, i), one), (x(p), -one)], "<=", 0)

    # lin-gamma: o capped by shared-arc products, gamma = xe*xe'
    for p, q in pairs:
        coeffs = [(o(p, q), one)] + [(g(p, q, e), -one) for e in shared[(p, q)]]
        emit("lin-gamma", coeffs, "<=", 0)
    for p, q in pairs:
        for e in shared[(p, q)]:
            emit("lin-gamma", [(g(p, q, e), one), (xe(p, e), -one)], "<=", 0)
            emit("lin-gamma", [(g(p, q, e), one), (xe(q, e), -one)], "<=", 0)
            emit(
                "lin-gamma",
                [(xe(p, e), one), (xe(q, e), one), (g(p, q, e), -one)],
                "<=",
                1,
            )

    # guard-band: slots near existing occupancy are unavailable; pairwise gaps
    for p in range(npaths):
        for e in route_ids[p]:
            taken = occ.get(e, ())
            if not taken:
                continue
            forbidden = sorted(
                {
                    i
                    for q_slot in taken
                    for i in range(max(0, q_slot - gb), min(slots, q_slot + gb + 1))
                }
            )
            for i in forbidden:
                emit("guard-band", [(xei(p, e, i), one)], "=", 0)
    if gb > 0:
        for p, q in pairs:
            for e in shared[(p, q)]:
                for j in range(slots):
                    for i in range(max(0, j - gb), min(slots, j + gb + 1)):
                        emit(
                            "guard-band",
                            [(xei(p, e, j), one), (xei(q, e, i), one), (o(p, q), one)],
                            "<=",
                            2,
                        )

    # bandwidth: total slots equal the demand
    emit(
        "bandwidth",
        [(y(p, i), one) for p in range(npaths) for i in range(slots)],
        "=",
        demand,
    )

    # gvd: skew equals dispersion * slot width * band size * route length,
    # within the half-unit rounding slack of the integer variable
    half = Fraction(1, 2)
    for p in range(npaths):
        coeffs = [(f"gvd_p{p + 1}", one)]
        for e in route_ids[p]:
            c = Fraction(fiber.dispersion_ps_per_nm_km * width_nm * arc_by_id[e].length_km)
            coeffs.append((z(p, e), -c))
        emit("gvd", coeffs, "<=", half)
        emit("gvd", [(n, -c) for n, c in coeffs], "<=", half)

    # lin-z: z = T * xe
    for p in range(npaths):
        for e in route_ids[p]:
            emit("lin-z", [(z(p, e), one), (xe(p, e), -slots)], "<=", 0)
            emit("lin-z", [(z(p, e), one), (f"T_p{p + 1}", -one)], "<=", 0)
            emit(
                "lin-z",
                [(f"T_p{p + 1}", one), (xe(p, e), slots), (z(p, e), -one)],
                "<=",
                slots,
            )

    # delay: path delay from its arcs
    for p in range(npaths):
        coeffs = [(f"pd_p{p + 1}", one)]
        for e in route_ids[p]:
            coeffs.append((xe(p, e), -arc_by_id[e].delay_ps))
        emit("delay", coeffs, "=", 0)

    # diff-delay: |pd_p - pd_q| + skews <= M when both paths are used
    for p, q in pairs:
        for sign in (one, -one):
            emit(
                "diff-delay",
                [
                    (f"pd_p{p + 1}", sign),
                    (f"pd_p{q + 1}", -sign),
                    (f"gvd_p{p + 1}", one),
                    (f"gvd_p{q + 1}", one),
                    (x(p), big_m),
                    (x(q), big_m),
                ],
                "<=",
                max_dd_ps + 2 * big_m,
            )

    objective = tuple(
        (xei(p, e, i), one)
        for p in range(npaths)
        for e in e_used
        for i in range(slots)
    )
    meta = ModelMeta(
        paths=tuple(route_ids),
        arc_delay={e: arc_by_id[e].delay_ps for e in e_used},
        arc_length={e: arc_by_id[e].length_km for e in e_used},
        slots=slots,
        gb=gb,
        max_dd_ps=max_dd_ps,
        fiber=fiber,
        occupied=occ,
        source=source,
        destination=destination,
        demand=demand,
    )
    return ConstraintSystem(variables, constraints, objective, meta)


# ---------------------------------------------------------------------------
# evaluation


def check_assignment(model: ConstraintSystem, assignment: Mapping[str, int]) -> list[tuple[str, int]]:
    """Evaluate every constraint exactly; returns violations as (family, index).

    An empty list means feasible.  Bound or integrality breaches are reported
    under the pseudo-family "bounds".  Missing variables raise ModelError.
    """
    violations: list[tuple[str, int]] = []
    for idx, decl in enumerate(model.variables.values()):
        if decl.name not in assignment:
            raise ModelError(f"assignment missing variable {decl.name}")
        v = assignment[decl.name]
        if v != int(v) or not (decl.lb <= v <= decl.ub):
            violations.append(("bounds", idx))
    fam_idx: dict[str, int] = {}
    for con in model.constraints:
        i = fam_idx.get(con.family, 0)
        fam_idx[con.family] = i + 1
        lhs = sum(c * assignment[n] for n, c in con.coeffs)
        ok = (
            lhs <= con.rhs
            if con.relation == "<="
            else lhs >= con.rhs
            if con.relation == ">="
            else lhs == con.rhs
        )
        if not ok:
            violations.append((con.family, i))
    return violations


def solution_cost(assignment: Mapping[str, int]) -> int:
    """Objective value: total slot-arc usage."""
    return int(sum(v for n, v in assignment.items() if n.startswith("xei_")))


def assignment_from_bands(
    model: ConstraintSystem,
    bands: Sequence[SlotRange | None],
) -> dict[str, int]:
    """Full variable assignment for one band (or None) per candidate path slot.

    Derived variables follow the model's own defining equalities: pd and T
    from the route, gvd from the physics rounding, o/gamma/z from the
    products they linearize.
    """
    meta = model.meta
    if meta is None:
        raise ModelError("model has no instance metadata")
    if len(bands) != len(meta.paths):
        raise ModelError(f"expected {len(meta.paths)} band entries, got {len(bands)}")
    npaths = len(meta.paths)
    e_used = sorted({e for ids in meta.paths for e in ids})
    a: dict[str, int] = {}
    used = [band is not None for band in bands]
    route_sets = [set(ids) for ids in meta.paths]

    for p, band in enumerate(bands):
        a[f"x_p{p + 1}"] = int(used[p])
        slots_of = set(range(band.start, band.start + band.length)) if band else set()
        for i in range(meta.slots):
            a[f"y_p{p + 1}_f{i}"] = int(i in slots_of)
        for e in e_used:
            on = used[p] and e in route_sets[p]
            a[f"xe_p{p + 1}_e{e}"] = int(on)
            for i in range(meta.slots):
                a[f"xei_p{p + 1}_e{e}_f{i}"] = int(on and i in slots_of)
        t = band.length if band else 0
        a[f"T_p{p + 1}"] = t
        a[f"pd_p{p + 1}"] = sum(meta.arc_delay[e] for e in meta.paths[p]) if used[p] else 0
        if used[p]:
            length = sum(meta.arc_length[e] for e in meta.paths[p])
            a[f"gvd_p{p + 1}"] = gvd_differential_delay_ps(meta.fiber, t, length) if t else 0
        else:
            a[f"gvd_p{p + 1}"] = 0
        for e in meta.paths[p]:
            a[f"z_p{p + 1}_e{e}"] = t if used[p] else 0

    for p in range(npaths):
        for q in range(p + 1, npaths):
            both = used[p] and used[q]
            shares = route_sets[p] & route_sets[q]
            a[f"o_p{p + 1}_p{q + 1}"] = int(both and bool(shares))
            for e in sorted(shares):
                a[f"g_p{p + 1}_p{q + 1}_e{e}"] = int(both)
    return a


# ---------------------------------------------------------------------------
# LP-format export / import


def _fmt_num(fr: int | Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return repr(float(fr))


def _fmt_terms(coeffs: Iterable[tuple[str, int | Fraction]]) -> str:
    parts: list[str] = []
    for name, c in coeffs:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        term = name if mag == 1 else f"{_fmt_num(mag)} {name}"
        if not parts:
            parts.append(term if sign == "+" else f"- {term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def _wrap(line: str, width: int = 200) -> list[str]:
    if len(line) <= width:
        return [line]
    out = []
    cur = ""
    for tok in line.split(" "):
        if cur and len(cur) + len(tok) + 1 > width:
            out.append(cur)
            cur = "      " + tok
        else:
            cur = tok if not cur else f"{cur} {tok}"
    out.append(cur)
    return out


def export_lp(model: ConstraintSystem) -> str:
    """CPLEX-LP text: objective, named constraints by family, bounds, types."""
    lines = ["Minimize"]
    lines.extend(_wrap(" obj: " + _fmt_terms(model.objective)))
    lines.append("Subject To")
    for con in model.constraints:
        rel = con.relation
        lines.extend(_wrap(f" {con.name}: {_fmt_terms(con.coeffs)} {rel} {_fmt_num(con.rhs)}"))
    integers = [v for v in model.variables.values() if v.kind == "integer"]
    binaries = [v for v in model.variables.values() if v.kind == "binary"]
    if integers:
        lines.append("Bounds")
        for v in integers:
            lines.append(f" {v.lb} <= {v.name} <= {v.ub}")
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(v.name for v in binaries[i : i + 8]))
    if integers:
        lines.append("Generals")
        for i in range(0, len(integers), 8):
            lines.append(" " + " ".join(v.name for v in integers[i : i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _parse_number(tok: str) -> int | Fraction:
    if "." in tok or "e" in tok or "E" in tok:
        return Fraction(float(tok))
    return int(tok)


def _parse_expr(tokens: list[str]) -> tuple[tuple[str, int | Fraction], ...]:
    coeffs: list[tuple[str, int | Fraction]] = []
    sign = 1
    pending: int | Fraction | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok[0].isdigit() or tok[0] == ".":
            pending = _parse_number(tok)
        else:
            mag = pending if pending is not None else 1
            coeffs.append((tok, sign * mag))
            sign = 1
            pending = None
    return tuple(coeffs)


def parse_lp(text: str) -> ConstraintSystem:
    """Parse the dialect produced by :func:`export_lp` back into a system."""
    section = None
    obj_tokens: list[str] = []
    con_tokens: list[str] = []
    bounds: dict[str, tuple[int, int]] = {}
    binaries: list[str] = []
    generals: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            section = "objective"
            continue
        if low == "subject to":
            section = "constraints"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "binaries":
            section = "binaries"
            continue
        if low in ("generals", "general"):
            section = "generals"
            continue
        if low == "end":
            break
        tokens = line.split()
        if section == "objective":
            obj_tokens.extend(tokens)
        elif section == "constraints":
            con_tokens.extend(tokens)
        elif section == "bounds":
            # "<lb> <= <name> <= <ub>"
            lb, _, name, _, ub = tokens
            bounds[name] = (int(lb), int(ub))
        elif section == "binaries":
            binaries.extend(tokens)
        elif section == "generals":
            generals.extend(tokens)

    if obj_tokens and obj_tokens[0].endswith(":"):
        obj_tokens = obj_tokens[1:]
    objective = _parse_expr(obj_tokens)

    constraints: list[Constraint] = []
    current_name: str | None = None
    current: list[str] = []

    def flush():
        if current_name is None:
            return
        rel_idx = next(i for i, t in enumerate(current) if t in ("<=", ">=", "="))
        expr = _parse_expr(current[:rel_idx])
        relation = current[rel_idx]
        rhs = _parse_number(current[rel_idx + 1])
        prefix = current_name.split("_", 1)[0]
        family = _FAMILY_OF_PREFIX.get(prefix, prefix)
        constraints.append(Constraint(current_name, family, expr, relation, rhs))

    for tok in con_tokens:
        if tok.endswith(":"):
            flush()
            current_name = tok[:-1]
            current = []
        else:
            current.append(tok)
    flush()

    variables: dict[str, VarDecl] = {}
    order: list[str] = []
    seen = set()
    for name, _ in objective:
        if name not in seen:
            seen.add(name)
            order.append(name)
    for con in constraints:
        for name, _ in con.coeffs:
            if name not in seen:
                seen.add(name)
                order.append(name)
    binary_set = set(binaries)
    general_set = set(generals)
    for name in order:
        if name in binary_set:
            variables[name] = VarDecl(name, "binary")
        elif name in general_set:
            lb, ub = bounds[name]
            variables[name] = VarDecl(name, "integer", lb, ub)
        else:
            raise ModelError(f"variable {name} missing from Binaries/Generals")
    return ConstraintSystem(variables, constraints, objective, None)
