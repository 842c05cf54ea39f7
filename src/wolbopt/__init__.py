"""Release-schedule optimization for Wolbachia-based mosquito biocontrol.

The package plans releases of infected mosquitoes against a bistable
two-population model: equilibrium and basin analysis, a free-time optimal
release solver, impulsive schedule construction, and a genetic search for
discrete release plans.
"""

from .ga import (
    FitnessReport,
    GAConfig,
    GAResult,
    ReleasePlan,
    epsilon_loop,
    run_ga,
)
from .impulsive import (
    DailyImpulseSequence,
    IndicatorReport,
    PeriodicImpulseSequence,
    aggregate_periodic,
    daily_impulses,
    evaluate_schedule,
    excess_periodic,
    select_rule,
)
from .model import (
    EquilibriumSet,
    State,
    equilibria,
    in_secure_region,
    jacobian,
    secure_region,
)
from .ocp import (
    ContinuousControl,
    OCPConfig,
    OCPSolution,
    objective,
    solve,
)
from .params import (
    OffspringNumbers,
    StrainParams,
    offspring_numbers,
    preset,
)
from .sim import (
    ImpulseSchedule,
    SimOptions,
    Trajectory,
    first_basin_entry,
    integrate,
    phase_field,
    separatrix,
    simulate_impulsive,
)

__version__ = "0.1.0"
