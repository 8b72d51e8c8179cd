"""Ion-species registry: energy levels, lifetimes, U(2) data, level roles.

Level data is loaded from a JSON file with one record per level or
transition (schema ``oqcsim-species-v1``, documented in the README).
A registry pre-seeded with the built-in ions ships with the package;
user files are merged on top of it.

Role assignment convention: every scheme has exactly one level at
0 cm^-1 (the energy reference).  The ``role`` field marks how a level
is used by a gate protocol -- ``qubit0``/``qubit1`` levels should have
small squared diagonal U(2) elements, ``auxiliary`` levels large ones,
``ground`` marks a separate reservoir level |g> where the protocol uses
one, and ``unassigned`` levels take no part.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .errors import (ParseError, RegistryLookupError, ValidationError, entries, known_keys,
                     number, read_json, require, string)

SCHEMA_NAME = "oqcsim-species-v1"


class LevelRole(enum.Enum):
    GROUND = "ground"
    QUBIT0 = "qubit0"
    QUBIT1 = "qubit1"
    AUXILIARY = "auxiliary"
    UNASSIGNED = "unassigned"


_ROLES = {role.value for role in LevelRole}


@dataclass(frozen=True)
class EnergyLevel:
    """One electronic level of an ion.

    energy is in cm^-1 above the scheme's ground level; lifetime (s) and
    u2_diag_sq (squared diagonal U(2) element) are optional because the
    source data does not quote them for every level.
    """

    term_symbol: str
    energy: float
    lifetime: float | None = None
    lifetime_host: str | None = None
    u2_diag_sq: float | None = None
    role: LevelRole = LevelRole.UNASSIGNED
    note: str | None = None

    def __post_init__(self):
        if self.energy < 0:
            raise ValidationError(f"{self.term_symbol}: energy must be >= 0 cm^-1")
        if self.lifetime is not None and self.lifetime <= 0:
            raise ValidationError(f"{self.term_symbol}: lifetime must be > 0 s")
        if self.u2_diag_sq is not None and self.u2_diag_sq < 0:
            raise ValidationError(f"{self.term_symbol}: u2_diag_sq must be >= 0")


@dataclass(frozen=True)
class TransitionDatum:
    """Inter-level transition record; uk_sq maps rank (2, 4, 6) to |U(k)|^2."""

    from_level: str
    to_level: str
    uk_sq: Mapping[int, float] = field(default_factory=dict)
    radiative_rate: float | None = None

    def __post_init__(self):
        if self.from_level == self.to_level:
            raise ValidationError("transition endpoints must differ")
        for k, v in self.uk_sq.items():
            if k not in (2, 4, 6):
                raise ValidationError(f"U(k) rank must be 2, 4 or 6, got {k}")
            if v < 0:
                raise ValidationError("uk_sq values must be >= 0")


@dataclass(frozen=True)
class SpeciesScheme:
    """All level and transition data for one (species, host) pair."""

    species_name: str
    host: str
    levels: tuple[EnergyLevel, ...]
    transitions: tuple[TransitionDatum, ...] = ()

    def __post_init__(self):
        names = [lv.term_symbol for lv in self.levels]
        if len(set(names)) != len(names):
            raise ValidationError(f"{self.species_name}: duplicate level names")
        at_zero = [lv for lv in self.levels if lv.energy == 0.0]
        if len(at_zero) != 1:
            raise ValidationError(
                f"{self.species_name}: exactly one level must sit at 0 cm^-1, found {len(at_zero)}"
            )
        for role in (LevelRole.QUBIT0, LevelRole.QUBIT1, LevelRole.AUXILIARY):
            n = sum(1 for lv in self.levels if lv.role is role)
            if n > 1:
                raise ValidationError(f"{self.species_name}: role {role.value} assigned {n} times")
        known = set(names)
        for tr in self.transitions:
            if tr.from_level not in known or tr.to_level not in known:
                raise ValidationError(
                    f"{self.species_name}: transition {tr.from_level}->{tr.to_level} "
                    "references an unknown level"
                )

    def level(self, term_symbol: str) -> EnergyLevel:
        for lv in self.levels:
            if lv.term_symbol == term_symbol:
                return lv
        raise RegistryLookupError(f"{self.species_name} has no level {term_symbol!r}")

    def role_level(self, role: LevelRole) -> EnergyLevel | None:
        for lv in self.levels:
            if lv.role is role:
                return lv
        return None


@dataclass(frozen=True)
class LevelDiagnostic:
    term_symbol: str
    role: LevelRole
    status: str          # "ok" | "warning" | "fail"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    diagnostics: tuple[LevelDiagnostic, ...]


def validate_scheme(scheme: SpeciesScheme, u2_threshold: float = 1.0) -> ValidationReport:
    """Check that role assignments respect the small/large U(2) rule.

    Qubit levels must have u2_diag_sq below the threshold, auxiliary
    levels at or above it.  Levels whose U(2) data is absent are assumed
    small and produce a warning rather than a failure.  A threshold that
    is not finite is a ValidationError: NaN would pass every level.
    """
    require(math.isfinite(u2_threshold), f"U(2) threshold must be finite, got {u2_threshold!r}")
    diags: list[LevelDiagnostic] = []
    for lv in scheme.levels:
        if lv.role in (LevelRole.QUBIT0, LevelRole.QUBIT1):
            if lv.u2_diag_sq is None:
                diags.append(LevelDiagnostic(
                    lv.term_symbol, lv.role, "warning",
                    "no U(2) data; assumed small"))
            elif lv.u2_diag_sq >= u2_threshold:
                diags.append(LevelDiagnostic(
                    lv.term_symbol, lv.role, "fail",
                    f"qubit level has large U(2) element {lv.u2_diag_sq} >= {u2_threshold}"))
            else:
                diags.append(LevelDiagnostic(lv.term_symbol, lv.role, "ok", "small U(2) element"))
        elif lv.role is LevelRole.AUXILIARY:
            if lv.u2_diag_sq is None:
                diags.append(LevelDiagnostic(
                    lv.term_symbol, lv.role, "warning",
                    "no U(2) data on auxiliary level"))
            elif lv.u2_diag_sq < u2_threshold:
                diags.append(LevelDiagnostic(
                    lv.term_symbol, lv.role, "fail",
                    f"auxiliary level has small U(2) element {lv.u2_diag_sq} < {u2_threshold}"))
            else:
                diags.append(LevelDiagnostic(lv.term_symbol, lv.role, "ok", "large U(2) element"))
    passed = not any(d.status == "fail" for d in diags)
    return ValidationReport(passed, tuple(diags))


class SpeciesRegistry:
    """Immutable collection of species schemes keyed by (name, host)."""

    def __init__(self, schemes: Iterable[SpeciesScheme]):
        self._schemes: dict[tuple[str, str], SpeciesScheme] = {}
        for sc in schemes:
            key = (sc.species_name, sc.host)
            if key in self._schemes:
                raise ValidationError(f"duplicate species entry {key}")
            self._schemes[key] = sc

    def __len__(self) -> int:
        return len(self._schemes)

    def __iter__(self):
        return iter(self._schemes.values())

    def names(self) -> list[tuple[str, str]]:
        return sorted(self._schemes.keys())

    def get(self, species_name: str, host: str | None = None) -> SpeciesScheme:
        if host is not None:
            try:
                return self._schemes[(species_name, host)]
            except KeyError:
                raise RegistryLookupError(f"no species {species_name!r} in host {host!r}") from None
        matches = [sc for (n, _), sc in self._schemes.items() if n == species_name]
        if not matches:
            raise RegistryLookupError(f"unknown species {species_name!r}")
        if len(matches) > 1:
            hosts = [sc.host for sc in matches]
            raise RegistryLookupError(
                f"species {species_name!r} present in several hosts {hosts}; pass host=")
        return matches[0]


def _parse_level(rec: dict, where: str) -> EnergyLevel:
    known_keys(rec, {"term", "energy_cm", "role", "u2_diag_sq", "lifetime_s", "lifetime_host",
                     "note"}, where)
    role = string(rec, "role", where, LevelRole.UNASSIGNED.value)
    require(role in _ROLES, f"{where}: unknown role {role!r}", ParseError)
    return EnergyLevel(
        term_symbol=string(rec, "term", where),
        energy=number(rec, "energy_cm", where),
        lifetime=number(rec, "lifetime_s", where, None),
        lifetime_host=rec.get("lifetime_host"),
        u2_diag_sq=number(rec, "u2_diag_sq", where, None),
        role=LevelRole(role),
        note=rec.get("note"),
    )


def _parse_transition(rec: dict, where: str) -> TransitionDatum:
    known_keys(rec, {"from", "to", "uk_sq", "radiative_rate_s"}, where)
    uk_sq = {} if rec.get("uk_sq") is None else rec["uk_sq"]
    known_keys(uk_sq, {"2", "4", "6"}, f"{where}.uk_sq")
    return TransitionDatum(
        from_level=string(rec, "from", where),
        to_level=string(rec, "to", where),
        uk_sq={rank: number(uk_sq, str(rank), f"{where}.uk_sq") for rank in (2, 4, 6)
               if uk_sq.get(str(rank)) is not None},
        radiative_rate=number(rec, "radiative_rate_s", where, None),
    )


def _parse_document(doc: dict, origin: str) -> list[SpeciesScheme]:
    known_keys(doc, {"schema", "species"}, origin)
    schema = doc.get("schema", SCHEMA_NAME)
    require(schema == SCHEMA_NAME, f"{origin}: unsupported schema {schema!r}", ParseError)
    schemes = []
    for i, rec in enumerate(entries(doc, "species", origin)):
        where = f"{origin}: species[{i}]"
        known_keys(rec, {"name", "host", "levels", "transitions"}, where)
        name, host = string(rec, "name", where), string(rec, "host", where)
        levels = tuple(_parse_level(lv, f"{where}.levels[{j}]")
                       for j, lv in enumerate(entries(rec, "levels", where)))
        transitions = tuple(_parse_transition(tr, f"{where}.transitions[{j}]")
                            for j, tr in enumerate(entries(rec, "transitions", where)))
        schemes.append(SpeciesScheme(name, host, levels, transitions))
    return schemes


def builtin_schemes() -> list[SpeciesScheme]:
    return _parse_document(read_json(resources.files("oqcsim.data") / "species_builtin.json"),
                           "builtin")


def load_registry(path: str | Path | None = None) -> SpeciesRegistry:
    """Build a registry from the built-in data plus an optional user file.

    path names a JSON file of extra species data in the documented
    schema (read by read_json, so an OSError reading it propagates); None
    (or an empty document) yields the built-ins only.  Duplicates of a
    built-in (same name and host) are rejected.
    """
    schemes = builtin_schemes()
    if path is not None:
        schemes.extend(_parse_document(read_json(path), str(path)))
    return SpeciesRegistry(schemes)
