"""repro.population — cohort-vectorized client populations.

Simulates *populations* of synthetic users per ISP instead of
individual scripted clients: each cohort carries a Zipf browsing mix
over the million-domain :class:`~repro.websites.synthetic
.SyntheticCorpus` and a diurnal session-arrival schedule, and a whole
day of sessions runs as per-(cohort, hour) batches over flyweight
``array`` columns — no per-packet or per-session objects.  Outcomes
accumulate in mergeable sketches (count-min + bottom-k reservoir) so
memory stays O(cohorts) no matter how many sessions run.  See
``docs/POPULATION.md``.
"""

from .cohorts import (
    CohortSpec,
    DEFAULT_COHORTS,
    DIURNAL_PROFILES,
    apportion,
    hourly_sessions,
)
from .engine import (
    OUTCOME_NAMES,
    POPULATION_SCALE_ENV,
    PopulationConfig,
    PopulationEngine,
    PopulationOutcome,
    population_scale,
    zipf_mix,
)
from .sketches import BottomKReservoir, CountMinSketch

__all__ = [
    "BottomKReservoir",
    "CohortSpec",
    "CountMinSketch",
    "DEFAULT_COHORTS",
    "DIURNAL_PROFILES",
    "OUTCOME_NAMES",
    "POPULATION_SCALE_ENV",
    "PopulationConfig",
    "PopulationEngine",
    "PopulationOutcome",
    "apportion",
    "hourly_sessions",
    "population_scale",
    "zipf_mix",
]
