"""Population scale — a day of user sessions per ISP, Table 2-style.

The paper measures mechanisms from a handful of vantage clients; this
experiment asks what those mechanisms *mean* at population scale: for
each of the ten modeled ISPs, a day of synthetic user sessions (Zipf
browsing mixes, diurnal arrival curves) runs through
:class:`~repro.population.engine.PopulationEngine` over the
million-domain :class:`~repro.websites.synthetic.SyntheticCorpus`, and
the per-(ISP, category) block rates are tabulated in the style of the
paper's Table 2 — with the paper's master-blocklist share
(``blocked / 1200``) alongside for comparison.

Campaign shape: one unit per ISP, so ``--workers N`` parallelizes
across ISPs.  Session volume is apportioned across ISPs by subscriber
weight *before* any unit runs (largest-remainder over the full ISP
set), so a unit's workload never depends on which other units run —
the invariant serial-vs-parallel byte-identity rests on.  The unit
payload also carries a ``population`` summary for ``repro report``
and an ``obs_metrics`` snapshot the runner folds into the campaign's
deterministic metrics sidecar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..isps.profiles import PROFILES
from ..obs.metrics import MetricsRegistry
from ..population.cohorts import apportion
from ..population.engine import (PopulationConfig, PopulationEngine,
                                 PopulationOutcome, population_scale)
from ..websites.synthetic import (DEFAULT_SYNTHETIC_SIZE,
                                  MASTER_LIST_FRACTIONS, SyntheticCorpus)
from .common import (
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    format_table,
    get_world,
    run_degradable,
)

#: Paper context (Table 2 / Figure 2): fraction of the 1,200-site PBW
#: corpus on each censoring ISP's master blocklist — the number the
#: simulated master-hit rate (blocked + leaked) should track.
PAPER_MASTER_FRACTIONS = dict(MASTER_LIST_FRACTIONS)

#: Relative subscriber bases (millions, 2018-era) driving how the
#: session volume is split across ISPs.  Chokepoint weighting in the
#: spirit of Gosain et al.'s "Mending Wall": the big four eyeball
#: networks carry most of the day's sessions.
SUBSCRIBER_WEIGHTS: Dict[str, float] = {
    "airtel": 300.0,
    "jio": 250.0,
    "vodafone": 220.0,
    "idea": 190.0,
    "bsnl": 110.0,
    "mtnl": 35.0,
    "tata": 20.0,
    "sify": 8.0,
    "siti": 6.0,
    "nkn": 4.0,
}

#: Canonical unit order: descending subscriber weight, so the biggest
#: populations lead the table.
POPULATION_ISPS: Sequence[str] = tuple(SUBSCRIBER_WEIGHTS)

#: Sessions simulated across all ISPs at scale 1.0 (the acceptance
#: floor is one million; smoke jobs shrink via REPRO_POPULATION_SCALE).
DEFAULT_SESSIONS_TOTAL = 1_250_000

CAMPAIGN = TableSpec(
    title="Population scale: per-category block rates over a simulated day",
    headers=("ISP", "Category", "Sessions", "Blocked", "Leaked",
             "Block %", "Mechanism", "paper master %"),
    footer=("blocked = master-listed and enforced this session; "
            "leaked = master-listed but unenforced (coverage and "
            "consistency gaps, §5); paper master % = Table 2 / Figure 2 "
            "blocklist size over the 1,200-site PBW corpus."),
)


@dataclass
class PopulationScaleResult:
    outcomes: Dict[str, PopulationOutcome] = field(default_factory=dict)
    corpus_size: int = DEFAULT_SYNTHETIC_SIZE
    degradation: Degradation = field(default_factory=Degradation)

    @property
    def sessions_total(self) -> int:
        return sum(outcome.sessions for outcome in self.outcomes.values())

    def render(self) -> str:
        rows: List[List[str]] = []
        for isp in POPULATION_ISPS:
            if isp in self.outcomes:
                rows.extend(_isp_rows(self.outcomes[isp]))
        table = format_table(list(CAMPAIGN.headers), rows,
                             title=CAMPAIGN.title)
        extra = self.degradation.describe()
        return table + ("\n" + extra if extra else "")


def sessions_for(isp: str, total: Optional[int] = None) -> int:
    """This ISP's share of the day's sessions.

    Apportioned over the *full* ISP set regardless of which units are
    running, so a unit measures the same workload alone, serial, or in
    a worker.
    """
    if total is None:
        total = round(DEFAULT_SESSIONS_TOTAL * population_scale())
    counts = apportion(total, [SUBSCRIBER_WEIGHTS[name]
                               for name in POPULATION_ISPS])
    return counts[list(POPULATION_ISPS).index(isp)]


def _isp_rows(outcome: PopulationOutcome) -> List[List[str]]:
    """Category rows then an ``all`` summary row for one ISP."""
    rows = []
    for category, (ok, blocked, leaked) in outcome.counts.items():
        sessions = ok + blocked + leaked
        if not sessions:
            continue
        rows.append([
            outcome.isp, category, fmt_cell(sessions), fmt_cell(blocked),
            fmt_cell(leaked),
            fmt_cell(round(100.0 * blocked / sessions, 2)),
            "-", "-"])
    blocked_total = outcome.blocked_total
    leaked_total = outcome.outcome_total("leaked")
    paper = PAPER_MASTER_FRACTIONS.get(outcome.isp)
    rows.append([
        outcome.isp, "all", fmt_cell(outcome.sessions),
        fmt_cell(blocked_total), fmt_cell(leaked_total),
        fmt_cell(round(100.0 * blocked_total / outcome.sessions, 2)
                 if outcome.sessions else 0.0),
        outcome.mechanism,
        fmt_cell(round(paper * 100, 1)) if paper is not None else "-"])
    return rows


def _population_summary(outcome: PopulationOutcome,
                        corpus: SyntheticCorpus) -> Dict:
    """The JSON summary ``repro report`` renders (journal-safe)."""
    per_category = []
    for category, (ok, blocked, leaked) in outcome.counts.items():
        sessions = ok + blocked + leaked
        if sessions:
            per_category.append({"category": category,
                                 "sessions": sessions,
                                 "blocked": blocked,
                                 "leaked": leaked})
    peak = max(range(24), key=lambda hour: (outcome.hourly[hour], -hour))
    return {
        "isp": outcome.isp,
        "mechanism": outcome.mechanism,
        "sessions": outcome.sessions,
        "blocked": outcome.blocked_total,
        "leaked": outcome.outcome_total("leaked"),
        "corpus_domains": len(corpus),
        "batches": outcome.batches,
        "peak_hour": peak,
        "per_category": per_category,
        "top_blocked": [[domain, count] for domain, count
                        in outcome.top_blocked(corpus, n=5)],
    }


def _metrics_snapshot(outcome: PopulationOutcome,
                      corpus: SyntheticCorpus) -> Dict:
    """Population counters in MetricsRegistry snapshot form.

    Emitted per unit and merged by the runner in canonical commit
    order, so ``metrics.json`` stays byte-identical across worker
    counts.  Catalogued in ``docs/OBSERVABILITY.md``.
    """
    registry = MetricsRegistry()
    isp = outcome.isp
    for category, (ok, blocked, leaked) in outcome.counts.items():
        sessions = ok + blocked + leaked
        if not sessions:
            continue
        registry.counter("population_sessions_total",
                         category=category, isp=isp).inc(sessions)
        if blocked:
            registry.counter("population_blocked_total",
                             category=category, isp=isp,
                             mechanism=outcome.mechanism).inc(blocked)
        if leaked:
            registry.counter("population_leaked_total",
                             category=category, isp=isp).inc(leaked)
    registry.counter("population_batches_total", isp=isp).inc(
        outcome.batches)
    registry.gauge("population_corpus_domains").set(len(corpus))
    return registry.snapshot()


def units(isps: Sequence[str] = POPULATION_ISPS):
    """One resumable campaign unit per ISP."""
    for isp in isps:
        yield Unit(isp, _campaign_unit(isp))


def _campaign_unit(isp: str):
    def unit_fn(world, domains):
        result = run(world, isps=(isp,))
        payload = campaign_payload(
            _isp_rows(result.outcomes[isp]) if isp in result.outcomes
            else [], result.degradation)
        if isp in result.outcomes:
            corpus = SyntheticCorpus(seed=world.seed,
                                     size=result.corpus_size)
            payload["population"] = _population_summary(
                result.outcomes[isp], corpus)
            payload["obs_metrics"] = _metrics_snapshot(
                result.outcomes[isp], corpus)
        return payload
    return unit_fn


def run(world=None, isps: Sequence[str] = POPULATION_ISPS,
        sessions: Optional[int] = None,
        corpus_size: int = DEFAULT_SYNTHETIC_SIZE,
        ) -> PopulationScaleResult:
    """Simulate a day of sessions for each ISP in *isps*.

    The world supplies only the campaign seed — the population layer
    runs on its own synthetic corpus, deliberately independent of the
    world's 1,200 deployed sites, so session volume does not shrink
    with ``--scale`` (use ``REPRO_POPULATION_SCALE`` / *sessions*).
    """
    if world is None:
        world = get_world()
    seed = world.seed
    result = PopulationScaleResult(corpus_size=corpus_size)
    corpus = SyntheticCorpus(seed=seed, size=corpus_size)
    for isp in isps:
        if isp not in PROFILES:
            raise KeyError(f"unknown ISP {isp!r}")
        config = PopulationConfig(
            seed=seed, corpus_size=corpus_size,
            sessions=sessions_for(isp, sessions))
        ok, outcome = run_degradable(
            result.degradation, f"population@{isp}",
            lambda isp=isp, config=config: PopulationEngine(
                isp, corpus=corpus, config=config).run())
        if ok:
            result.outcomes[isp] = outcome
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
