"""Immutable network data model, case-file parsing, and validation.

Two input formats are supported: a MATPOWER subset (baseMVA, bus, gen,
branch tables) and a native JSON format that carries the fields MATPOWER
lacks (switched-shunt step sizes, tap control setpoints, AGC factors,
remote-controlled buses). All electrical quantities are stored per-unit
on the system MVA base.

Native schema: an object with format_version (1), s_base, name (default
"") and agc_enabled (default false), and the lists buses, branches,
generators, loads, fixed_shunts and shunts (default []) of records. A
record's keys are its dataclass fields, except that a branch's ends are
"from"/"to" and a bus's v_init_real/v_init_imag are one pair "v_init".
A field with a default may be absent, as may a fixed shunt's g and b
(0.0); tap (a TapControl object), remote_bus and step_size may be null.
A generator's in_service (default true, and written only when false) is
a boolean; false is an out-of-service unit, MATPOWER's GEN_STATUS 0.
Integer fields take integral numbers; a boolean or a string is no
number. A key the schema does not name is an error, at the top level
and in a record.
Remote control groups are not stored: they are inferred from generators.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)

from .errors import CaseParseError, CaseValidationError

SLACK = "slack"
PV = "pv"
PQ = "pq"

NATIVE_FORMAT_VERSION = 1

_MATPOWER_BUS_TYPES = {3: SLACK, 2: PV, 1: PQ}


@dataclass(frozen=True)
class Bus:
    id: int
    base_kv: float
    kind: str  # slack | pv | pq
    v_init_real: float = 1.0
    v_init_imag: float = 0.0


@dataclass(frozen=True)
class TapControl:
    """Controllable turns ratio regulating a bus voltage.

    controlled_side selects which end's voltage is monitored: "primary"
    (the tapped from side; low voltage drives the ratio up) or
    "secondary" (the to side; the relation reverses). step_size, when
    present, defines the discrete ratio steps used by snapping.
    """

    tr_min: float
    tr_max: float
    v_set: float
    controlled_side: str = "primary"
    step_size: float | None = None


@dataclass(frozen=True)
class Branch:
    """Series pi-model branch. g + jb is the series admittance (per-unit);
    b_sh is the total line-charging susceptance; ratio is a fixed
    off-nominal turns ratio on the from side (1.0 for lines)."""

    from_bus: int
    to_bus: int
    g: float
    b: float
    b_sh: float = 0.0
    ratio: float = 1.0
    tap: TapControl | None = None


@dataclass(frozen=True)
class Generator:
    bus: int
    p_g: float
    v_set: float
    q_min: float
    q_max: float
    p_min: float
    p_max: float
    agc_factor: float = 0.0
    remote_bus: int | None = None
    remote_factor: float = 0.0
    # False: out of service (GEN_STATUS 0); the unit keeps its index and
    # its remote group, and injects nothing
    in_service: bool = True


@dataclass(frozen=True)
class Load:
    bus: int
    p: float
    q: float


@dataclass(frozen=True)
class FixedShunt:
    """Constant admittance to ground (MATPOWER GS/BS columns)."""

    bus: int
    g: float
    b: float


@dataclass(frozen=True)
class SwitchedShunt:
    bus: int
    b_min: float
    b_max: float
    step_size: float
    v_set: float


@dataclass(frozen=True)
class RemoteControlGroup:
    """Generators jointly regulating one remote bus voltage, inferred
    from their remote_bus and remote_factor (`NetworkCase.remote_groups`).

    members are generator indices into NetworkCase.generators; factors
    are their participation shares, normalized to sum to 1.
    """

    controlled_bus: int
    v_set: float
    members: tuple[int, ...]
    factors: tuple[float, ...]


@dataclass(frozen=True)
class NetworkCase:
    """A power-flow case. remote_groups is no constructor argument: it is
    inferred from the generators, also by `dataclasses.replace`."""

    s_base: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]
    fixed_shunts: tuple[FixedShunt, ...] = ()
    shunts: tuple[SwitchedShunt, ...] = ()
    remote_groups: tuple[RemoteControlGroup, ...] = field(init=False)
    agc_enabled: bool = False
    name: str = ""

    def __post_init__(self):
        # normalize container types and infer remote groups from generator
        # rows whose regulated bus differs from their own
        for name in ("buses", "branches", "generators", "loads",
                     "fixed_shunts", "shunts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "remote_groups", _infer_remote_groups(
            self.generators, self.bus_index()))

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def slack_bus(self) -> Bus:
        for b in self.buses:
            if b.kind == SLACK:
                return b
        raise CaseValidationError(["no slack bus"])

    def drop_generator(self, bus_id: int) -> "NetworkCase":
        """Case with the first in-service generator at bus_id switched off
        (contingency). No index changes: the unit keeps its own, and its
        place in its remote group, which is inferred whatever in_service
        says.

        The outage keeps the object whose map it shares as `_base`, an
        attribute that is no field, so `dataclasses.replace` drops it:
        this case, or this case's own `_base` when it is an outage itself,
        so an N-2 outage shares the root base's map.
        `circuit_stamps.build_index` switches the unit off on that map.
        Raises CaseValidationError when no in-service unit is at bus_id."""
        for i, g in enumerate(self.generators):
            if g.bus == bus_id and g.in_service:
                break
        else:
            raise CaseValidationError(
                [f"no in-service generator at bus {bus_id} to drop"])
        gens = list(self.generators)
        gens[i] = replace(g, in_service=False)
        out = replace(self, generators=gens)
        object.__setattr__(out, "_base", self.__dict__.get("_base", self))
        return out


def _infer_remote_groups(generators, bus_pos) -> tuple[RemoteControlGroup, ...]:
    """Group generators whose regulated bus differs from their own bus.

    Factors are normalized to sum to 1 per group so the group request
    equals the sum of member outputs while every member is in its linear
    region.
    """
    by_bus: dict[int, list[int]] = {}
    for i, g in enumerate(generators):
        if g.remote_bus is not None and g.remote_bus != g.bus:
            by_bus.setdefault(g.remote_bus, []).append(i)
    groups = []
    for ctl_bus in sorted(by_bus, key=lambda b: bus_pos.get(b, 1 << 30)):
        members = by_bus[ctl_bus]
        raw = [generators[i].remote_factor for i in members]
        if any(f < 0 for f in raw):
            raise CaseValidationError(
                [f"negative remote factor in group controlling bus {ctl_bus}"]
            )
        total = sum(raw)
        if total <= 0.0:
            # unweighted group: share equally
            factors = [1.0 / len(members)] * len(members)
        else:
            factors = [f / total for f in raw]
        groups.append(
            RemoteControlGroup(
                controlled_bus=ctl_bus,
                v_set=generators[members[0]].v_set,
                members=tuple(members),
                factors=tuple(factors),
            )
        )
    return tuple(groups)


# ---------------------------------------------------------------------------
# MATPOWER format
# ---------------------------------------------------------------------------

def _matpower_tables(text: str) -> tuple[float, dict[str, list[tuple[int, list[float]]]]]:
    """Extract baseMVA and the numeric tables from MATPOWER case text.

    Returns rows as (line_number, values) so errors can name their line.
    """
    base = None
    m = re.search(r"mpc\.baseMVA\s*=\s*([0-9eE.+-]+)\s*;", text)
    if m:
        base = float(m.group(1))
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"mpc\.(\w+)\s*=\s*\[", line)
        if m:
            current = m.group(1)
            tables[current] = []
            line = line[m.end():].strip()
        if current is None:
            continue
        done = False
        if "]" in line:
            line = line.split("]", 1)[0].strip()
            done = True
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                values = [float(tok) for tok in chunk.split()]
            except ValueError:
                raise CaseParseError(f"malformed table row {chunk!r}", line=lineno)
            if not all(map(math.isfinite, values)):
                raise CaseParseError(f"value not finite in row {chunk!r}",
                                     line=lineno)
            tables[current].append((lineno, values))
        if done:
            current = None
    if base is None:
        raise CaseParseError("missing mpc.baseMVA")
    if base <= 0:
        raise CaseParseError(f"baseMVA must be > 0, got {base}")
    return base, tables


def _integer(value: float, what: str, lineno: int | None = None) -> int:
    """A number that must be an integer, such as a bus id."""
    if not value.is_integer():
        raise CaseParseError(f"{what} {value!r} is not an integer", line=lineno)
    return int(value)


def parse_matpower(text: str, name: str = "") -> NetworkCase:
    """Parse a MATPOWER-style case (baseMVA, bus, gen, branch tables).

    Quantities are converted to per-unit on baseMVA. Bus types 3/2/1 map
    to slack/pv/pq; GS/BS bus columns become fixed shunts; an
    out-of-service generator row (GEN_STATUS 0) is an out-of-service unit,
    and an out-of-service branch row is dropped. Raises CaseParseError
    with the offending line, or CaseValidationError for structural
    problems.
    """
    base, tables = _matpower_tables(text)
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise CaseParseError(f"missing mpc.{required} table")

    buses = []
    fixed_shunts = []
    loads = []
    bus_kind = {}
    for lineno, row in tables["bus"]:
        if len(row) < 13:
            raise CaseParseError(
                f"bus row needs 13 columns, got {len(row)}", line=lineno
            )
        bus_id = _integer(row[0], "bus id", lineno)
        btype = _integer(row[1], "bus type", lineno)
        if btype == 4:
            raise CaseParseError(f"bus {bus_id} is isolated (type 4)", line=lineno)
        if btype not in _MATPOWER_BUS_TYPES:
            raise CaseParseError(f"bus {bus_id} has unknown type {btype}", line=lineno)
        kind = _MATPOWER_BUS_TYPES[btype]
        bus_kind[bus_id] = kind
        vm = row[7] if row[7] > 0 else 1.0
        buses.append(
            Bus(
                id=bus_id,
                base_kv=row[9] if row[9] > 0 else 1.0,
                kind=kind,
                v_init_real=vm if kind != PQ else 1.0,
                v_init_imag=0.0,
            )
        )
        pd, qd = row[2] / base, row[3] / base
        if pd != 0.0 or qd != 0.0:
            loads.append(Load(bus=bus_id, p=pd, q=qd))
        gs, bs = row[4] / base, row[5] / base
        if gs != 0.0 or bs != 0.0:
            fixed_shunts.append(FixedShunt(bus=bus_id, g=gs, b=bs))

    generators = []
    for lineno, row in tables["gen"]:
        if len(row) < 10:
            raise CaseParseError(
                f"gen row needs 10 columns, got {len(row)}", line=lineno
            )
        bus_id = _integer(row[0], "generator bus", lineno)
        generators.append(
            Generator(
                bus=bus_id,
                p_g=row[1] / base,
                v_set=row[5] if row[5] > 0 else 1.0,
                q_min=row[4] / base,
                q_max=row[3] / base,
                p_min=row[9] / base,
                p_max=row[8] / base,
                in_service=row[7] > 0,  # GEN_STATUS
            )
        )

    branches = []
    for lineno, row in tables["branch"]:
        if len(row) < 11:
            raise CaseParseError(
                f"branch row needs 11 columns, got {len(row)}", line=lineno
            )
        if row[10] <= 0:  # BR_STATUS
            continue
        f = _integer(row[0], "branch from bus", lineno)
        t = _integer(row[1], "branch to bus", lineno)
        r, x = row[2], row[3]
        if r == 0.0 and x == 0.0:
            raise CaseParseError(f"zero-impedance branch {f}-{t}", line=lineno)
        if row[9] != 0.0:
            raise CaseParseError(
                f"phase-shifting branch {f}-{t} unsupported", line=lineno
            )
        den = r * r + x * x
        ratio = row[8] if row[8] != 0.0 else 1.0
        branches.append(
            Branch(
                from_bus=f,
                to_bus=t,
                g=r / den,
                b=-x / den,
                b_sh=row[4],
                ratio=ratio,
            )
        )

    # PV buses start at their generator's setpoint
    vset_by_bus = {g.bus: g.v_set for g in generators if g.in_service}
    buses = [
        replace(b, v_init_real=vset_by_bus.get(b.id, b.v_init_real))
        if b.kind in (PV, SLACK) and b.id in vset_by_bus
        else b
        for b in buses
    ]

    case = NetworkCase(
        s_base=base,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        loads=tuple(loads),
        fixed_shunts=tuple(fixed_shunts),
        shunts=(),
        name=name,
    )
    problems = validate(case)
    if problems:
        raise CaseValidationError(problems)
    return case


# ---------------------------------------------------------------------------
# Native format (JSON)
# ---------------------------------------------------------------------------

# JSON key of each record field whose key is not the field's name; a
# bus's v_init is split into its two parts before decoding
_KEY = {"from_bus": "from", "to_bus": "to",
        "v_init_real": "v_init[0]", "v_init_imag": "v_init[1]"}
# fields the JSON may omit although the record requires them
_OMITTED = {(FixedShunt, "g"): 0.0, (FixedShunt, "b"): 0.0}
# the record lists of a case, by their key in the JSON and in NetworkCase
_LISTS = {"buses": Bus, "branches": Branch, "generators": Generator,
          "loads": Load, "fixed_shunts": FixedShunt, "shunts": SwitchedShunt}
# every key of a case's top-level object
_TOP_KEYS = {"format_version", "s_base", "name", "agc_enabled", *_LISTS}
# every key of each record type's JSON object
_JSON_KEYS = {cls: {_KEY.get(f.name, f.name) for f in fields(cls)}
              for cls in (TapControl, *_LISTS.values())}
_JSON_KEYS[Bus] = _JSON_KEYS[Bus] - {"v_init[0]", "v_init[1]"} | {"v_init"}


def _expect(value, kind: type, what: str, where: str):
    """value when it is a kind, else CaseParseError naming where."""
    if not isinstance(value, kind):
        raise CaseParseError(
            f"{where}: expected {what}, got {type(value).__name__}")
    return value


def _scalar(kind: str, value, where: str):
    """value as the record field type kind: 'str', 'bool', 'float' or
    'int'."""
    if kind == "str":
        return _expect(value, str, "a string", where)
    if kind == "bool":
        return _expect(value, bool, "a boolean", where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseParseError(
            f"{where}: expected a number, got {type(value).__name__}")
    if kind == "int" and isinstance(value, int):
        return value
    try:
        number = float(value)
    except OverflowError as exc:
        raise CaseParseError(f"{where}: {exc}") from exc
    return number if kind == "float" else _integer(number, where)


def _known_keys(obj: dict, keys, where: str):
    """CaseParseError naming the first key of obj not in keys, if any."""
    for key in obj:
        if key not in keys:
            raise CaseParseError(f"{where}: unknown field {key!r}")


def _decode(cls, obj, where: str):
    """The cls record a JSON object holds. Each field converts by its
    annotation; a field with a default may be absent, and an optional
    one may be null."""
    obj = _expect(obj, dict, "an object", where)
    _known_keys(obj, _JSON_KEYS[cls], where)
    if cls is Bus and "v_init" in obj:
        pair = obj["v_init"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise CaseParseError(f"{where}.v_init: expected a [real, imag] pair")
        obj = {**obj, "v_init[0]": pair[0], "v_init[1]": pair[1]}
    values = {}
    for f in fields(cls):
        key = _KEY.get(f.name, f.name)
        kind = f.type.removesuffix(" | None")
        if key not in obj:
            value = _OMITTED.get((cls, f.name), f.default)
            if value is MISSING:
                raise CaseParseError(f"{where}: missing field {key!r}")
        elif obj[key] is None and kind != f.type:  # an X | None field
            value = None
        elif kind == "TapControl":
            value = _decode(TapControl, obj[key], f"{where}.{key}")
        else:
            value = _scalar(kind, obj[key], f"{where}.{key}")
        values[f.name] = value
    return cls(**values)


def _encode(record) -> dict:
    """The JSON object of a record; inverse of _decode."""
    out = {_KEY.get(f.name, f.name): getattr(record, f.name)
           for f in fields(record)}
    if isinstance(record, Bus):
        out["v_init"] = [out.pop("v_init[0]"), out.pop("v_init[1]")]
    if isinstance(record, Branch) and record.tap is not None:
        out["tap"] = _encode(record.tap)
    if isinstance(record, Generator) and record.in_service:
        del out["in_service"]  # the default, which files leave out
    return out


def parse_native(text: str, name: str = "") -> NetworkCase:
    """Parse the native JSON case format (schema in the module docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"invalid JSON: {exc}") from exc
    doc = _expect(doc, dict, "an object", "case")
    _known_keys(doc, _TOP_KEYS, "case")
    for key in ("format_version", "s_base"):
        if key not in doc:
            raise CaseParseError(f"case: missing field {key!r}")
    version = doc["format_version"]
    if version != NATIVE_FORMAT_VERSION or isinstance(version, bool):
        raise CaseParseError(f"unsupported format_version {version}")
    s_base = _scalar("float", doc["s_base"], "case.s_base")
    agc_enabled = _expect(doc.get("agc_enabled", False), bool, "a boolean",
                          "case.agc_enabled")
    doc_name = _expect(doc.get("name", ""), str, "a string", "case.name")
    records = {
        key: [_decode(cls, obj, f"{key}[{i}]") for i, obj in enumerate(
            _expect(doc.get(key, []), list, "a list", f"case.{key}"))]
        for key, cls in _LISTS.items()
    }
    case = NetworkCase(s_base=s_base, agc_enabled=agc_enabled,
                       name=name or doc_name, **records)
    problems = validate(case)
    if problems:
        raise CaseValidationError(problems)
    return case


def serialize_native(case: NetworkCase) -> str:
    """Serialize to the native JSON format; parse_native round-trips it."""
    doc = {
        "format_version": NATIVE_FORMAT_VERSION,
        "name": case.name,
        "s_base": case.s_base,
        "agc_enabled": case.agc_enabled,
    }
    for key in _LISTS:
        doc[key] = [_encode(r) for r in getattr(case, key)]
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _islands(n: int, edges) -> list[int]:
    """The island of each of n nodes, numbered in order of their first
    node: a union-find over the edges (a, b), with path halving."""
    parent = list(range(n))

    def root(a):
        while (up := parent[a]) != a:
            parent[a] = a = parent[up]
        return a

    for a, b in edges:
        parent[root(a)] = root(b)
    first: dict[int, int] = {}
    return [first.setdefault(root(a), len(first)) for a in range(n)]


def _non_finite(obj, where: str) -> list[str]:
    """One message per nan or inf number in a (nested) case record."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{where} is not finite ({obj})"]
    if isinstance(obj, tuple):
        return [m for k, v in enumerate(obj)
                for m in _non_finite(v, f"{where}[{k}]")]
    if is_dataclass(obj):
        return [m for f in fields(obj)
                for m in _non_finite(getattr(obj, f.name), f"{where}.{f.name}")]
    return []


def validate(case: NetworkCase) -> list[str]:
    """Return all structural problems; empty list means solvable-shaped.

    Non-finite numbers are reported alone: every later check would
    misread them."""
    out = _non_finite(case, "case")
    if out:
        return out
    if case.s_base <= 0:
        out.append(f"s_base must be > 0, got {case.s_base}")

    ids = [b.id for b in case.buses]
    known = set(ids)
    if len(ids) != len(known):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        out.append(f"duplicate bus ids {dup}")
    if not case.buses:
        out.append("case has no buses")
        return out
    for b in case.buses:
        if b.base_kv <= 0:
            out.append(f"bus {b.id} base_kV must be > 0")
        if b.kind not in (SLACK, PV, PQ):
            out.append(f"bus {b.id} has unknown kind {b.kind!r}")

    for i, br in enumerate(case.branches):
        if br.from_bus == br.to_bus:
            out.append(f"branch {i} connects bus {br.from_bus} to itself")
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                out.append(f"branch {i} references unknown bus {end}")
        if br.g == 0.0 and br.b == 0.0:
            out.append(f"branch {i} has zero series admittance")
        if br.ratio <= 0.0:
            out.append(f"branch {i} has non-positive ratio {br.ratio}")
        if br.tap is not None:
            t = br.tap
            if not (0.0 < t.tr_min <= t.tr_max):
                out.append(
                    f"branch {i} tap limits invalid ({t.tr_min}, {t.tr_max})"
                )
            if t.controlled_side not in ("primary", "secondary"):
                out.append(
                    f"branch {i} tap controlled_side {t.controlled_side!r} unknown"
                )
            if t.step_size is not None and t.step_size <= 0.0:
                out.append(f"branch {i} tap step_size must be > 0")

    kind_of = {b.id: b.kind for b in case.buses}
    for i, g in enumerate(case.generators):
        if g.bus not in known:
            out.append(f"generator {i} references unknown bus {g.bus}")
            continue
        if g.q_min > g.q_max:
            out.append(f"generator {i} has q_min > q_max")
        if g.in_service and not (g.p_min <= g.p_g <= g.p_max):
            out.append(f"generator {i} p_g {g.p_g} outside [{g.p_min}, {g.p_max}]")
        if g.v_set <= 0:
            out.append(f"generator {i} v_set must be > 0")
        if g.agc_factor < 0:
            out.append(f"generator {i} agc_factor must be >= 0")
        if g.remote_factor < 0:
            out.append(f"generator {i} remote_factor must be >= 0")
        remote = g.remote_bus is not None and g.remote_bus != g.bus
        if remote and g.remote_bus not in known:
            out.append(f"generator {i} remote bus {g.remote_bus} unknown")
        # an out-of-service unit needs no control role
        if g.in_service and not remote and kind_of[g.bus] == PQ:
            out.append(f"generator {i} on PQ bus {g.bus} has no control role")

    for i, l in enumerate(case.loads):
        if l.bus not in known:
            out.append(f"load {i} references unknown bus {l.bus}")
    for i, s in enumerate(case.fixed_shunts):
        if s.bus not in known:
            out.append(f"fixed shunt {i} references unknown bus {s.bus}")
    for i, s in enumerate(case.shunts):
        if s.bus not in known:
            out.append(f"shunt {i} references unknown bus {s.bus}")
            continue
        if s.b_min > s.b_max:
            out.append(f"shunt {i} has b_min > b_max")
        if s.step_size <= 0:
            out.append(f"shunt {i} step_size must be > 0")
        if s.v_set <= 0:
            out.append(f"shunt {i} v_set must be > 0")

    for gi, grp in enumerate(case.remote_groups):
        if grp.controlled_bus not in known:
            out.append(f"remote group {gi} controls unknown bus {grp.controlled_bus}")
            continue
        for m, f in zip(grp.members, grp.factors):
            if not f > 0.0:
                out.append(f"remote group {gi} (bus {grp.controlled_bus}) gives "
                           f"generator {m} participation factor {f}; must be > 0")
        vsets = {case.generators[m].v_set for m in grp.members}
        if len(vsets) > 1:
            out.append(
                f"remote group {gi} members disagree on v_set for bus "
                f"{grp.controlled_bus}: {sorted(vsets)}"
            )
        # a locally regulated bus cannot also be remote-controlled
        if kind_of[grp.controlled_bus] != PQ:
            out.append(
                f"remote group {gi} controls bus {grp.controlled_bus} which is "
                f"{kind_of[grp.controlled_bus]}; remote-controlled buses must be pq"
            )

    # one slack, one island; a bus id is one node, however often it occurs
    node: dict[int, int] = {}
    for b in case.buses:
        node.setdefault(b.id, len(node))
    island = _islands(len(node), (
        (node[br.from_bus], node[br.to_bus]) for br in case.branches
        if br.from_bus in node and br.to_bus in node))
    slack_ids = [b.id for b in case.buses if b.kind == SLACK]
    if not slack_ids:
        out.append("missing slack bus")
    n_slack = Counter(island[node[s]] for s in slack_ids)
    out += [f"multiple slack buses in island {ci}"
            for ci in sorted(n_slack) if n_slack[ci] > 1]
    sizes = sorted(Counter(island).values())
    if len(sizes) > 1:
        out.append(
            f"network has {len(sizes)} islands (sizes {sizes}); only a single "
            f"slack-connected island is supported"
        )

    # PV buses need a local voltage controller in service, which no group
    # member is
    local_ctl_buses = {g.bus for g in case.generators if g.in_service
                       and (g.remote_bus is None or g.remote_bus == g.bus)}
    for b in case.buses:
        if b.kind == PV and b.id not in local_ctl_buses:
            out.append(f"pv bus {b.id} has no local generator")

    return out

