"""Published reference indicators, read-only.

``scenarios.table2`` and ``scenarios.table4`` pair them with reproduced
values; the acceptance tests assert on those pairs.
"""

from __future__ import annotations

from types import MappingProxyType

# Saddle (unstable) and stable coexistence states per strain.
EQUILIBRIA = MappingProxyType(
    {
        "wmel": {"eu": (4592.0, 1793.0), "es": (598.0, 5787.0)},
        "wmelpop": {"eu": (1050.0, 3778.0), "es": (135.0, 4693.0)},
    }
)

# Continuous optimal-release benchmarks (horizon in days, total released).
CONTINUOUS = MappingProxyType(
    {
        "wmel": {"t_star": 13.72, "total": 5961.0},
        "wmelpop": {"t_star": 64.87, "total": 33125.0},
    }
)

# Impulsive-schedule indicators: (number of releases, overall size).
IMPULSIVE = MappingProxyType(
    {
        "wmel": {1: (14, 5966), 7: (2, 5966), 14: (1, 5966)},
        "wmelpop": {1: (65, 33169), 7: (9, 35574), 14: (5, 41804)},
    }
)

# Genetic-search indicators: (number of releases, total released).
GA = MappingProxyType(
    {
        "wmel": {1: (11, 5436), 7: (2, 5226), 14: (1, 4956)},
        "wmelpop": {1: (60, 24481), 7: (9, 27259), 14: (5, 31323)},
    }
)
