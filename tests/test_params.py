from dataclasses import replace

import pytest

from wolbopt.params import (
    PRESET_CAP_L,
    StrainParams,
    UnknownStrainError,
    offspring_numbers,
    parse_number,
    preset,
)
from wolbopt.scenarios import build_scenario


def test_presets_load():
    assert preset("wmel").name == "wmel"
    assert preset("WMELPOP").name == "wmelpop"
    with pytest.raises(UnknownStrainError):
        preset("walbB")


def test_scenario_cap_defaults_to_the_presets_only():
    for name, cap in PRESET_CAP_L.items():
        assert build_scenario(preset(name)).cap_l == cap
    # No preset, no default cap: a renamed strain does not get wmel's.
    custom = replace(preset("wmel"), name="custom")
    with pytest.raises(KeyError):
        build_scenario(custom)
    assert build_scenario(custom, cap_l=500.0).cap_l == 500.0


def test_preset_values_exact(wmel):
    assert wmel.rho_n == 4.55
    assert wmel.delta_n == 1.0 / 28.0
    assert wmel.sigma == 0.1 / 140.0
    assert wmel.rho_w == pytest.approx(4.095)
    assert wmel.delta_w == pytest.approx(0.0396825, rel=1e-3)


@pytest.mark.parametrize(
    "field,value",
    [
        ("rho_n", -1.0),
        ("sigma", 0.0),
        ("nu", 1.2),
        ("eta", -0.1),
        ("omega", -1e-9),
    ],
)
def test_invalid_fields_rejected(wmel, field, value):
    with pytest.raises(ValueError):
        StrainParams(**{**wmel.__dict__, field: value})


def test_fitness_ordering_enforced(wmel):
    with pytest.raises(ValueError):
        StrainParams(**{**wmel.__dict__, "rho_w": wmel.rho_n + 1.0})
    with pytest.raises(ValueError):
        StrainParams(**{**wmel.__dict__, "delta_w": wmel.delta_n / 2.0})


def test_offspring_numbers_wmel(wmel):
    q = offspring_numbers(wmel)
    # Evaluating the defining formulas with the preset values.
    assert q.q_x == pytest.approx(4.55 * 28.0)
    assert q.q_y == pytest.approx(0.95 * 4.095 / (0.001 + (1 / 28) / 0.9), rel=1e-12)
    assert q.q_y == pytest.approx(95.62, abs=0.05)
    assert q.q_yx == pytest.approx((0.05 * 4.095 + 0.001 * q.q_y) * 28.0, rel=1e-12)
    assert q.q_c == pytest.approx((q.q_yx + q.q_y + 0.98 * q.q_x) / q.q_x, rel=1e-12)
    assert q.viable


def test_offspring_cross_term_vanishes_at_perfect_transmission(wmel):
    p = StrainParams(**{**wmel.__dict__, "nu": 1.0, "omega": 0.0})
    assert offspring_numbers(p).q_yx == 0.0


def test_nonviable_flagged_not_raised(wmel):
    # Infected deaths so high that q_y < 1: reported via the flag.
    p = StrainParams(**{**wmel.__dict__, "delta_w": 4.2})
    q = offspring_numbers(p)
    assert q.q_y < 1.0
    assert not q.viable


def test_parse_number_rational():
    assert parse_number("1/28") == pytest.approx(1.0 / 28.0, rel=1e-15)
    assert parse_number(" 0.95 ") == 0.95
    assert parse_number("0.1/140") == pytest.approx(0.1 / 140.0, rel=1e-15)
    with pytest.raises(ValueError, match="divides by zero"):
        parse_number("1/0")
