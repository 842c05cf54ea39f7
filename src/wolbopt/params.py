"""Strain parameters, derived offspring numbers, and named presets.

Two presets ship with the package, ``wmel`` and ``wmelpop``.  Every field
can be overridden from a config file where values may be decimal strings
or rationals like ``1/28`` (rates are stored unrounded for this reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class StrainParams:
    """Biological constants of the two-population release model.

    Attributes:
        name: Preset or user-supplied label.
        rho_n: Fecundity of wild insects (1/day).
        rho_w: Fecundity of infected insects (1/day).
        delta_n: Wild mortality (1/day).
        delta_w: Infected mortality (1/day).
        sigma: Intraspecific competition coefficient (1/individual).
        nu: Maternal transmission probability, in [0, 1].
        eta: Cytoplasmic incompatibility probability, in [0, 1].
        omega: Infection-loss rate from thermal stress (1/day).
    """

    name: str
    rho_n: float
    rho_w: float
    delta_n: float
    delta_w: float
    sigma: float
    nu: float
    eta: float
    omega: float

    def __post_init__(self) -> None:
        for field_name in ("rho_n", "rho_w", "delta_n", "delta_w", "sigma"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be strictly positive")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError("nu must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.omega < 0.0:
            raise ValueError("omega must be nonnegative")
        if not self.rho_n > self.rho_w:
            raise ValueError("wild fecundity must exceed infected fecundity")
        if not self.delta_n < self.delta_w:
            raise ValueError("wild mortality must be below infected mortality")


@dataclass(frozen=True)
class OffspringNumbers:
    """Basic offspring numbers derived from strain parameters.

    ``viable`` is true iff q_x > q_y > 1, the regime in which both
    populations persist on their own.
    """

    q_x: float
    q_y: float
    q_yx: float
    q_c: float
    viable: bool


def offspring_numbers(params: StrainParams) -> OffspringNumbers:
    """Compute the basic offspring numbers for a parameter set.

    q_x and q_y are the mean lifetime offspring of one wild and one
    infected individual; q_yx counts the wild offspring produced by one
    infected individual (failed maternal transmission plus infection
    loss); q_c is the composite number governing coexistence.
    """
    q_x = params.rho_n / params.delta_n
    q_y = params.nu * params.rho_w / (params.omega + params.delta_w)
    q_yx = ((1.0 - params.nu) * params.rho_w + params.omega * q_y) / params.delta_n
    q_c = (q_yx + q_y + params.eta * q_x) / q_x
    return OffspringNumbers(
        q_x=q_x, q_y=q_y, q_yx=q_yx, q_c=q_c, viable=q_x > q_y > 1.0
    )


# wMelPop note: several sources list eta = 0.95 for this strain, but that
# value is inconsistent with its known coexistence equilibria; 0.99 is the
# value that reproduces them and is used throughout.
_PRESETS: dict[str, StrainParams] = {
    "wmel": StrainParams(
        name="wmel",
        rho_n=4.55,
        rho_w=0.9 * 4.55,
        delta_n=1.0 / 28.0,
        delta_w=(1.0 / 28.0) / 0.9,
        sigma=0.1 / 140.0,
        nu=0.95,
        eta=0.98,
        omega=0.001,
    ),
    "wmelpop": StrainParams(
        name="wmelpop",
        rho_n=4.55,
        rho_w=0.5 * 4.55,
        delta_n=1.0 / 28.0,
        delta_w=(1.0 / 28.0) / 0.5,
        sigma=0.1 / 140.0,
        nu=0.99,
        eta=0.99,
        omega=0.00015,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))

# Daily production capacity L and the GA/OCP defaults tied to each preset.
PRESET_CAP_L: dict[str, float] = {"wmel": 750.0, "wmelpop": 1000.0}


class UnknownStrainError(KeyError):
    """Raised when a preset name does not exist."""


def preset(name: str) -> StrainParams:
    """Return a named strain preset.

    Raises:
        UnknownStrainError: If ``name`` is not a known preset.
    """
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise UnknownStrainError(
            f"unknown strain {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def parse_number(text: str) -> float:
    """Parse a decimal or rational string such as ``0.95`` or ``1/28``.

    Raises:
        ValueError: If ``text`` is not a number or divides by zero.
    """
    text = text.strip()
    if "/" in text:
        num, den = (Fraction(part.strip()) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"{text!r} divides by zero")
        return float(num / den)
    return float(text)
