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
    gvd          dispersion skew tied to band size and route length (pinned
                 to 0 when the model is built without ``FiberParams``)
    lin-z        z_{p,e} = T_p * xe_{p,e} via three inequalities
    delay        path delay from arc delays
    diff-delay   pairwise delay spread plus skews bounded by M (deactivated
                 for unused path slots via a big-M term)

Coefficients and right-hand sides are plain integers, except in the gvd
rows, whose dispersion coefficients and half-unit slack are exact
``Fraction`` values.  So evaluation is exact, and the LP-format export is
bit-stable and parses back to an equal system.

Rows and variable declarations are plain tuples (``Constraint``,
``VarDecl``), and rows share their ``(name, coefficient)`` term tuples.
The parser reads one row per line, a wrapped row's continuation lines
included, and declares variables in Binaries-then-Generals order, which is
the order ``build_model`` declares them in: parsing an export gives back
the same variable order, and exporting the parse gives back the same text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class VarDecl(NamedTuple):
    name: str
    kind: str  # "binary" | "integer"
    lb: int = 0
    ub: int = 1


class Constraint(NamedTuple):
    name: str
    family: str
    coeffs: tuple[tuple[str, int | Fraction], ...]
    relation: str  # "<=" | "=": build_model emits no other
    rhs: int | Fraction


class PathSlot(NamedTuple):
    """One candidate path slot: its route and the names of its variables."""

    arcs: tuple[int, ...]  # arc ids, in route order
    delay_ps: int
    length_km: float
    x: str
    t: str
    pd: str
    gvd: str
    y: list[str]  # per frequency slot
    xe: dict[int, str]  # per model arc
    xei: dict[int, list[str]]  # per model arc, per frequency slot
    z: dict[int, str]  # per route arc


@dataclass(frozen=True)
class ModelMeta:
    """What ``assignment_from_bands`` needs: the names ``build_model`` made, and the routes."""

    paths: tuple[PathSlot, ...]
    pairs: tuple[tuple[int, int, str, tuple[str, ...]], ...]  # (p, q, o name, g name per shared arc)
    slots: int
    fiber: FiberParams | None


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


def check_capacity(demand: int, npaths: int, slots: int) -> None:
    """Raise ModelError when ``demand`` slots exceed what ``npaths`` routes of ``slots`` hold."""
    if demand > npaths * slots:
        raise ModelError(
            f"demand {demand} exceeds the capacity |P|*|F| = {npaths}*{slots} = {npaths * slots}"
        )


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
    available-set exclusion rule).  Without ``fiber_params`` the dispersion
    is 0, so the gvd rows pin every skew variable to 0.
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
    routes = _normalize_paths(candidate_paths)
    npaths = len(routes)
    check_capacity(demand, npaths, slots)
    route_ids = [tuple(a.id for a in arcs) for arcs in routes]
    route_sets = [set(ids) for ids in route_ids]
    arc_by_id = {a.id: a for arcs in routes for a in arcs}
    e_used = sorted(arc_by_id)
    occ: dict[int, tuple[int, ...]] = {
        e: tuple(sorted(int(i) for i in v)) for e, v in (occupied or {}).items()
    }

    route_delay = [sum(arc_by_id[e].delay_ps for e in ids) for ids in route_ids]
    route_len = [sum(arc_by_id[e].length_km for e in ids) for ids in route_ids]
    if fiber_params is None:
        dispersion = width_nm = 0.0
    else:
        dispersion = fiber_params.dispersion_ps_per_nm_km
        width_nm = slot_width_nm(fiber_params)
    gvd_ub = [int(math.ceil(dispersion * slots * width_nm * length)) + 1 for length in route_len]
    big_m = max(d + g for d, g in zip(route_delay, gvd_ub)) + 1

    pairs = [(p, q) for p in range(npaths) for q in range(p + 1, npaths)]
    shared = {(p, q): sorted(route_sets[p] & route_sets[q]) for p, q in pairs}

    # every variable name is formatted once, here
    paths = range(npaths)
    x = [f"x_p{p + 1}" for p in paths]
    xe = [{e: f"xe_p{p + 1}_e{e}" for e in e_used} for p in paths]
    y = [[f"y_p{p + 1}_f{i}" for i in range(slots)] for p in paths]
    xei = [{e: [f"xei_p{p + 1}_e{e}_f{i}" for i in range(slots)] for e in e_used} for p in paths]
    o = {(p, q): f"o_p{p + 1}_p{q + 1}" for p, q in pairs}
    g = {(p, q, e): f"g_p{p + 1}_p{q + 1}_e{e}" for p, q in pairs for e in shared[(p, q)]}
    z = [{e: f"z_p{p + 1}_e{e}" for e in route_ids[p]} for p in paths]
    pd = [f"pd_p{p + 1}" for p in paths]
    t = [f"T_p{p + 1}" for p in paths]
    gv = [f"gvd_p{p + 1}" for p in paths]

    binaries = list(x)
    for p in paths:
        binaries.extend(xe[p].values())
    for p in paths:
        binaries.extend(y[p])
    for p in paths:
        for names in xei[p].values():
            binaries.extend(names)
    binaries.extend(o.values())
    binaries.extend(g.values())
    variables = {n: VarDecl(n, "binary") for n in binaries}
    for p in paths:
        for n in z[p].values():
            variables[n] = VarDecl(n, "integer", 0, slots)
    for p in paths:
        variables[pd[p]] = VarDecl(pd[p], "integer", 0, route_delay[p])
    for p in paths:
        variables[t[p]] = VarDecl(t[p], "integer", 0, slots)
    for p in paths:
        variables[gv[p]] = VarDecl(gv[p], "integer", 0, gvd_ub[p])

    # rows by family, each named by its prefix and its index within the family
    rows: dict[str, list[Constraint]] = {family: [] for family in FAMILIES}

    def emit(family, coeffs, relation, rhs):
        out = rows[family]
        terms = tuple(term for term in coeffs if term[1] != 0)
        out.append(Constraint(f"{_PREFIX[family]}_{len(out)}", family, terms, relation, rhs))

    # routing: arc usage pinned to the fixed route
    for p in paths:
        on_route = route_sets[p]
        for e in e_used:
            if e in on_route:
                emit("routing", [(xe[p][e], 1), (x[p], -1)], "=", 0)
            else:
                emit("routing", [(xe[p][e], 1)], "=", 0)
        for e in e_used:
            if e not in on_route:
                for n in xei[p][e]:
                    emit("routing", [(n, 1)], "=", 0)

    # continuity: y equals source-arc usage; usage carried along the route
    src_arcs = [e for e in e_used if arc_by_id[e].src == source]
    for p in paths:
        for i in range(slots):
            emit("continuity", [(y[p][i], 1)] + [(xei[p][e][i], -1) for e in src_arcs], "=", 0)
        for e1, e2 in zip(route_ids[p], route_ids[p][1:]):
            for n1, n2 in zip(xei[p][e1], xei[p][e2]):
                emit("continuity", [(n1, 1), (n2, -1)], "=", 0)

    # consecutive: band size accounting and the span rule
    #   j*xj - i*xi + 1 <= T + (2 - xi - xj)*F  for i <= j,
    # i.e. (j+F)*xj + (F-i)*xi - T <= 2F-1; at j == i the two terms merge into 2F*xi
    for p in paths:
        emit("consecutive", [(t[p], 1)] + [(n, -1) for e in src_arcs for n in xei[p][e]], "=", 0)
    # The span rows, about 60% of a model, skip emit: no name repeats in them
    # and no coefficient is zero.  They share their term tuples.
    span = rows["consecutive"]
    prefix = _PREFIX["consecutive"]
    cap = 2 * slots - 1
    for p in paths:
        t_neg = (t[p], -1)
        for e in route_ids[p]:
            names = xei[p][e]
            diag = [(n, 2 * slots) for n in names]
            hi = [(n, j + slots) for j, n in enumerate(names)]
            lo = [(n, slots - i) for i, n in enumerate(names)]
            for i in range(slots):
                terms = (diag[i], t_neg)
                span.append(Constraint(f"{prefix}_{len(span)}", "consecutive", terms, "<=", cap))
                for j in range(i + 1, slots):
                    terms = (hi[j], lo[i], t_neg)
                    span.append(Constraint(f"{prefix}_{len(span)}", "consecutive", terms, "<=", cap))

    # non-overlap
    for p, q in pairs:
        for e in shared[(p, q)]:
            emit("non-overlap", [(xe[p][e], 1), (xe[q][e], 1), (o[p, q], -1)], "<=", 1)
    for p, q in pairs:
        for i in range(slots):
            emit("non-overlap", [(y[p][i], 1), (y[q][i], 1), (o[p, q], 1)], "<=", 2)
    for p in paths:
        for i in range(slots):
            emit("non-overlap", [(y[p][i], 1), (x[p], -1)], "<=", 0)

    # lin-gamma: o capped by shared-arc products, gamma = xe*xe'
    for p, q in pairs:
        emit("lin-gamma", [(o[p, q], 1)] + [(g[p, q, e], -1) for e in shared[(p, q)]], "<=", 0)
    for p, q in pairs:
        for e in shared[(p, q)]:
            emit("lin-gamma", [(g[p, q, e], 1), (xe[p][e], -1)], "<=", 0)
            emit("lin-gamma", [(g[p, q, e], 1), (xe[q][e], -1)], "<=", 0)
            emit("lin-gamma", [(xe[p][e], 1), (xe[q][e], 1), (g[p, q, e], -1)], "<=", 1)

    # guard-band: slots near existing occupancy are unavailable; pairwise gaps
    for p in paths:
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
                emit("guard-band", [(xei[p][e][i], 1)], "=", 0)
    if gb > 0:
        for p, q in pairs:
            for e in shared[(p, q)]:
                ours, theirs = xei[p][e], xei[q][e]
                for j in range(slots):
                    for i in range(max(0, j - gb), min(slots, j + gb + 1)):
                        emit("guard-band", [(ours[j], 1), (theirs[i], 1), (o[p, q], 1)], "<=", 2)

    # bandwidth: total slots equal the demand
    emit("bandwidth", [(n, 1) for p in paths for n in y[p]], "=", demand)

    # gvd: skew equals dispersion * slot width * band size * route length,
    # within the half-unit rounding slack of the integer variable
    half = Fraction(1, 2)
    for p in paths:
        coeffs = [(gv[p], 1)]
        for e in route_ids[p]:
            c = Fraction(dispersion * width_nm * arc_by_id[e].length_km)
            coeffs.append((z[p][e], -c))
        emit("gvd", coeffs, "<=", half)
        emit("gvd", [(n, -c) for n, c in coeffs], "<=", half)

    # lin-z: z = T * xe
    for p in paths:
        for e in route_ids[p]:
            emit("lin-z", [(z[p][e], 1), (xe[p][e], -slots)], "<=", 0)
            emit("lin-z", [(z[p][e], 1), (t[p], -1)], "<=", 0)
            emit("lin-z", [(t[p], 1), (xe[p][e], slots), (z[p][e], -1)], "<=", slots)

    # delay: path delay from its arcs
    for p in paths:
        coeffs = [(pd[p], 1)] + [(xe[p][e], -arc_by_id[e].delay_ps) for e in route_ids[p]]
        emit("delay", coeffs, "=", 0)

    # diff-delay: |pd_p - pd_q| + skews <= M when both paths are used
    for p, q in pairs:
        for sign in (1, -1):
            emit(
                "diff-delay",
                [
                    (pd[p], sign), (pd[q], -sign), (gv[p], 1), (gv[q], 1),
                    (x[p], big_m), (x[q], big_m),
                ],
                "<=",
                max_dd_ps + 2 * big_m,
            )

    constraints = [con for family in FAMILIES for con in rows[family]]
    objective = tuple((n, 1) for p in paths for e in e_used for n in xei[p][e])
    meta = ModelMeta(
        paths=tuple(
            PathSlot(route_ids[p], route_delay[p], route_len[p], x[p], t[p], pd[p], gv[p],
                     y[p], xe[p], xei[p], z[p])
            for p in paths
        ),
        pairs=tuple((p, q, o[p, q], tuple(g[p, q, e] for e in shared[p, q])) for p, q in pairs),
        slots=slots,
        fiber=fiber_params,
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
    for idx, (name, _, lb, ub) in enumerate(model.variables.values()):
        if name not in assignment:
            raise ModelError(f"assignment missing variable {name}")
        v = assignment[name]
        if v != int(v) or not lb <= v <= ub:
            violations.append(("bounds", idx))
    seen: dict[str, int] = {}  # rows of each family so far
    for _, family, coeffs, relation, rhs in model.constraints:
        idx = seen.get(family, 0)
        seen[family] = idx + 1
        lhs = 0
        for n, c in coeffs:
            lhs += c * assignment[n]
        if relation == "<=":
            if lhs <= rhs:
                continue
        elif lhs == rhs:
            continue
        violations.append((family, idx))
    return violations


def assignment_from_bands(
    model: ConstraintSystem,
    bands: Sequence[SlotRange | None],
) -> dict[str, int]:
    """Full variable assignment for one band (or None) per candidate path slot.

    Every variable starts at 0, and the used path slots fill in the names
    ``build_model`` made.  Derived variables follow the model's own defining
    equalities: pd and T from the route, gvd from the physics rounding (0 for
    a model built without ``FiberParams``), o/gamma/z from the products they
    linearize.  Slots of a band outside the spectrum stay 0.
    """
    meta = model.meta
    if meta is None:
        raise ModelError("model has no instance metadata")
    if len(bands) != len(meta.paths):
        raise ModelError(f"expected {len(meta.paths)} band entries, got {len(bands)}")
    a = dict.fromkeys(model.variables, 0)
    for path, band in zip(meta.paths, bands):
        if band is None:
            continue
        size = band.length
        filled = range(max(band.start, 0), min(band.start + size, meta.slots))
        a[path.x] = 1
        a[path.t] = size
        a[path.pd] = path.delay_ps
        if size and meta.fiber is not None:
            a[path.gvd] = gvd_differential_delay_ps(meta.fiber, size, path.length_km)
        for i in filled:
            a[path.y[i]] = 1
        for e in path.arcs:
            a[path.xe[e]] = 1
            a[path.z[e]] = size
            names = path.xei[e]
            for i in filled:
                a[names[i]] = 1
    for p, q, o, g in meta.pairs:
        if g and bands[p] is not None and bands[q] is not None:
            a[o] = 1
            for n in g:
                a[n] = 1
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
    for name, _, coeffs, relation, rhs in model.constraints:
        lines.extend(_wrap(f" {name}: {_fmt_terms(coeffs)} {relation} {_fmt_num(rhs)}"))
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


def _parse_term(text: str) -> tuple[str, int | Fraction]:
    """One signed term, "+ name" or "- 17 name", as (name, coefficient)."""
    sign, *rest = text.split(" ")
    mag = _parse_number(rest[0]) if len(rest) > 1 else 1
    return rest[-1], -mag if sign == "-" else mag


class _Memo(dict):
    """A dict that computes a missing key's value once, as ``make(key)``, and keeps it.

    Terms repeat across rows, so the parser reads each distinct term once,
    and rows that share a term share its tuple.
    """

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _parse_expr(text: str, terms: _Memo) -> tuple[tuple[str, int | Fraction], ...]:
    """Terms of "a - 17 b + c" as (name, coefficient) pairs; "0" is no term."""
    text = text.strip()
    if text == "0":
        return ()
    if not text.startswith("- "):
        text = "+ " + text
    # one "<sign> [<magnitude>] <name>" piece per term
    pieces = text.replace(" + ", "\n+ ").replace(" - ", "\n- ").split("\n")
    return tuple(map(terms.__getitem__, pieces))


_SECTIONS = {
    "minimize": "objective",
    "subject to": "constraints",
    "bounds": "bounds",
    "binaries": "binaries",
    "generals": "generals",
    "end": "end",
}
_RELATIONS = {rel: rel for rel in ("<=", "=")}


def parse_lp(text: str) -> ConstraintSystem:
    """Parse the dialect produced by :func:`export_lp` back into a system.

    Each row is one line plus the continuation lines that :func:`_wrap`
    split off; variables are declared in Binaries-then-Generals order.
    """
    section = None
    obj_lines: list[str] = []
    rows: list[list[str]] = []  # [name, text] per constraint row
    bounds: dict[str, tuple[int, int]] = {}
    binaries: list[str] = []
    generals: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if section == "constraints":
            name, colon, body = line.partition(":")
            if colon:
                rows.append([name, body])
                continue
        header = _SECTIONS.get(line.lower())
        if header == "end":
            break
        if header:
            section = header
        elif section == "constraints":
            rows[-1][1] += " " + line
        elif section == "objective":
            obj_lines.append(line)
        elif section == "bounds":
            # "<lb> <= <name> <= <ub>"
            lb, _, name, _, ub = line.split()
            bounds[name] = (int(lb), int(ub))
        elif section == "binaries":
            binaries.extend(line.split())
        elif section == "generals":
            generals.extend(line.split())

    terms = _Memo(_parse_term)  # every distinct term, parsed once
    numbers = _Memo(_parse_number)
    obj_text = " ".join(obj_lines)
    if ":" in obj_text:  # the objective's name
        obj_text = obj_text.partition(":")[2]
    objective = _parse_expr(obj_text, terms)
    constraints: list[Constraint] = []
    for name, body in rows:
        expr, rel, rhs = body.rsplit(" ", 2)
        relation = _RELATIONS.get(rel)
        if relation is None:
            raise ModelError(f"row {name} has no relation")
        prefix = name.partition("_")[0]
        family = _FAMILY_OF_PREFIX.get(prefix, prefix)
        constraints.append(
            Constraint(name, family, _parse_expr(expr, terms), relation, numbers[rhs])
        )

    variables = {name: VarDecl(name, "binary") for name in binaries}
    for name in generals:
        lb, ub = bounds[name]
        variables[name] = VarDecl(name, "integer", lb, ub)
    for name, _ in terms.values():
        if name not in variables:
            raise ModelError(f"variable {name} missing from Binaries/Generals")
    return ConstraintSystem(variables, constraints, objective, None)
