import json

import pytest

from oqcsim.errors import ParseError, RegistryLookupError, ValidationError
from oqcsim.species import EnergyLevel, LevelRole, SpeciesScheme, load_registry, validate_scheme


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def write(directory, doc):
    """The path of a registry file in directory holding doc, JSON or, for a str, raw text."""
    path = directory / "registry.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def test_builtin_tm_1i6(registry):
    lv = registry.get("Tm3+").level("1I6")
    assert lv.energy == 34684.0
    assert lv.u2_diag_sq == 4.88
    assert lv.lifetime == pytest.approx(300e-6)
    assert lv.lifetime_host == "beta-NaYF4"


def test_builtin_pr_1g4_lifetime(registry):
    assert registry.get("Pr3+").level("1G4").lifetime == pytest.approx(14e-6)


def test_empty_source_gives_builtins_only(registry):
    assert load_registry().names() == registry.names()
    assert len(registry) == 6


def test_load_registry_merges_user_species(registry, tmp_path):
    doc = {"species": [{
        "name": "Eu3+", "host": "Y2O3",
        "levels": [
            {"term": "7F0", "energy_cm": 0.0, "role": "auxiliary"},
            {"term": "5D0", "energy_cm": 17216.0, "role": "qubit0", "lifetime_s": 1e-3},
        ],
        "transitions": [
            {"from": "7F0", "to": "5D0", "uk_sq": {"2": 0.0032, "4": 0.0},
             "radiative_rate_s": 120.0},
        ],
    }]}
    reg = load_registry(write(tmp_path, doc))
    assert len(reg) == len(registry) + 1
    assert reg.get("Eu3+").level("5D0").energy == 17216.0
    tr = reg.get("Eu3+").transitions[0]
    assert tr.uk_sq == {2: 0.0032, 4: 0.0}
    assert tr.radiative_rate == 120.0


def test_duplicate_species_rejected(tmp_path):
    doc = {"species": [{
        "name": "Tm3+", "host": "Ca(1-x)Sr(x)F2",
        "levels": [{"term": "3H6", "energy_cm": 0.0}],
    }]}
    with pytest.raises(ValidationError):
        load_registry(write(tmp_path, doc))


def test_schema_violations_report_context(tmp_path):
    with pytest.raises(ParseError, match=r"species\[0\]"):
        load_registry(write(tmp_path, {"species": [{"name": "X3+"}]}))
    with pytest.raises(ParseError, match="line"):
        load_registry(write(tmp_path, "{not json"))
    with pytest.raises(ParseError):
        load_registry(write(tmp_path, {"species": [{"name": "X", "host": "Y", "levels": [
            {"term": "a", "energy_cm": 0.0, "role": "superqubit"}]}]}))


def test_a_registry_file_that_cannot_be_read_raises_its_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_registry(tmp_path / "absent.json")
    with pytest.raises(IsADirectoryError):
        load_registry(tmp_path)


def test_load_is_deterministic():
    a, b = load_registry(), load_registry()
    assert [sc.levels for sc in a] == [sc.levels for sc in b]


def test_registry_lookup_errors(registry):
    with pytest.raises(RegistryLookupError):
        registry.get("Xx9+")
    with pytest.raises(RegistryLookupError):
        registry.get("Tm3+", host="MgO")


def test_tm_default_scheme_passes_at_threshold_1(registry):
    report = validate_scheme(registry.get("Tm3+"), u2_threshold=1.0)
    assert report.passed
    # qubit levels carry no U(2) data in the source: warned, not failed
    assert {d.term_symbol for d in report.diagnostics if d.status == "warning"} == {"3F4", "1D2"}


def test_tm_alternative_scheme_with_1i6_auxiliary(registry):
    alt = registry.get("Tm3+").with_roles({
        "3H6": LevelRole.GROUND, "3H4": LevelRole.QUBIT0,
        "1D2": LevelRole.QUBIT1, "1I6": LevelRole.AUXILIARY,
    })
    assert validate_scheme(alt, u2_threshold=1.0).passed


def test_zero_u2_auxiliary_fails():
    scheme = SpeciesScheme("X3+", "host", (
        EnergyLevel("a", 0.0, u2_diag_sq=0.0, role=LevelRole.AUXILIARY),
        EnergyLevel("b", 100.0, role=LevelRole.QUBIT0),
    ))
    report = validate_scheme(scheme)
    assert not report.passed
    assert [d.term_symbol for d in report.diagnostics if d.status == "fail"] == ["a"]


def test_large_u2_qubit_fails():
    scheme = SpeciesScheme("X3+", "host", (
        EnergyLevel("a", 0.0, u2_diag_sq=2.0, role=LevelRole.AUXILIARY),
        EnergyLevel("b", 100.0, u2_diag_sq=3.5, role=LevelRole.QUBIT0),
    ))
    assert not validate_scheme(scheme).passed


def test_scheme_invariants():
    with pytest.raises(ValidationError):   # two levels at zero
        SpeciesScheme("X", "h", (EnergyLevel("a", 0.0), EnergyLevel("b", 0.0)))
    with pytest.raises(ValidationError):   # duplicated role
        SpeciesScheme("X", "h", (
            EnergyLevel("a", 0.0, role=LevelRole.QUBIT0),
            EnergyLevel("b", 10.0, role=LevelRole.QUBIT0)))
    with pytest.raises(ValidationError):   # negative energy
        SpeciesScheme("X", "h", (EnergyLevel("a", -1.0), EnergyLevel("b", 0.0)))


def test_transition_invariants():
    from oqcsim.species import TransitionDatum
    with pytest.raises(ValidationError):   # same endpoints
        TransitionDatum("a", "a")
    with pytest.raises(ValidationError):   # bad rank
        TransitionDatum("a", "b", uk_sq={3: 0.1})
    with pytest.raises(ValidationError):   # negative element
        TransitionDatum("a", "b", uk_sq={2: -0.1})
