"""End-to-end campaign benchmark.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload packet-campaign --seed 1808 \
        --seconds 30 --trace 0

Each run launches ``repro campaign`` in fresh interpreters, as a user
would, for whole rounds until ``--seconds`` have passed, checks every
round's outputs (``checks.py``) and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
run); with ``--trace 1`` the run makes one plain round and one span
round and reports the per-layer metrics.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: The 14 packet-level experiments: every one but population-scale.
PACKET_EXPERIMENTS = (
    "table1", "table2", "table3", "fig2", "fig5", "trigger",
    "dns-mechanism", "tcpip", "statefulness", "session-dynamics",
    "evasion", "ooni-failures", "https", "idiosyncrasies",
)

#: World scale of every timed campaign (the CLI default).
SCALE = "0.25"
#: Share of the 300-site corpus each packet experiment sweeps.
FRACTION = "0.25"
#: Session-volume multiplier on the 1,250,000-session day.
POPULATION_SCALE = "0.4"
#: The hash-seed probe's fixed inputs (independent of ``--seed``).
PROBE = {"seed": 1808, "scale": 0.25, "fraction": 1.0,
         "experiment": "table1", "unit": "mtnl"}
PROBE_HASH_SEEDS = ("0", "1")

#: Set-up-only launches per ``--trace 0`` run (after one warm-up).
SETUP_PROBES = 5
#: ``repro report`` launches per round (it is short and noisy; it
#: rewrites the same two files each time).
REPORTS_PER_ROUND = 3
#: Every process a run starts is killed once the run is this old, so a
#: hung program still ends the run (with an error) within 180 s.
RUN_LIMIT = 170.0
_STARTED = time.monotonic()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ``None``: every registered experiment.
    experiments: Optional[Tuple[str, ...]]
    workers: int = 1
    trace: bool = False
    #: Re-run ``table1/mtnl`` under two hash seeds after each round.
    hash_probe: bool = False
    #: Compare journal/tables bytes with a serial untraced reference.
    reference: bool = False
    #: Span names that must record calls in the span round.
    layers: Tuple[str, ...] = ()


_ALWAYS = ("runner.execute_unit", "runner.journal_append",
           "isps.build_world", "isps.isp_build", "obs.metrics_collect",
           "obs.report_generate", "obs.report_load", "obs.report_render")
_PACKET_LAYERS = ("netsim.run", "netsim.transmit", "netsim.routing",
                  "netsim.int_to_ip", "measure.express_http_probe",
                  "measure.express_dns_probe", "measure.web_connectivity",
                  "measure.resolver_scan", "httpsim.http_fetch",
                  "dnssim.dns_lookup")
_POPULATION_LAYERS = ("websites.synthetic", "population.run",
                      "population.zipf_mix")

WORKLOADS = {
    w.name: w for w in (
        Workload("packet-campaign", PACKET_EXPERIMENTS, hash_probe=True,
                 layers=_ALWAYS + _PACKET_LAYERS),
        Workload("campaign-w2-trace", None, workers=2, trace=True,
                 reference=True,
                 layers=_ALWAYS + _PACKET_LAYERS + _POPULATION_LAYERS
                 + ("obs.trace_emit", "runner.commit_wait")),
    )
}

END_TO_END = (("setup_s", "s"), ("campaign_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("report_s", "s"))

#: Every experiment key, in registry order (``experiments.<key>_s``).
EXPERIMENT_KEYS = PACKET_EXPERIMENTS[:10] + ("population-scale",) \
    + PACKET_EXPERIMENTS[10:]

#: Per-layer metrics: (name, unit, better).  README.md says which
#: end-to-end metric each should move, on which workload.
PER_LAYER = (
    ("runner.execute_unit_s", "s", "lower"),
    ("runner.units", "count", "higher"),
    ("runner.journal_append_s", "s", "lower"),
    ("runner.journal_appends", "count", "lower"),
    ("runner.commit_wait_s", "s", "lower"),
    ("runner.worker_busy_share", "ratio", "higher"),
    ("runner.unit_retries", "count", "lower"),
    ("isps.build_world_s", "s", "lower"),
    ("isps.build_world_calls", "count", "lower"),
    ("isps.isp_build_s", "s", "lower"),
    ("netsim.run_self_s", "s", "lower"),
    ("netsim.run_calls", "count", "lower"),
    ("netsim.events", "count", "higher"),
    ("netsim.events_per_s", "1/s", "higher"),
    ("netsim.transmit_calls", "count", "lower"),
    ("netsim.routing_s", "s", "lower"),
    ("netsim.routing_calls", "count", "lower"),
    ("netsim.int_to_ip_calls", "count", "lower"),
    ("netsim.fib_hit_ratio", "ratio", "higher"),
    ("netsim.path_cache_hit_ratio", "ratio", "higher"),
    ("netsim.flowhash_hit_ratio", "ratio", "higher"),
    ("netsim.fwd_plan_hit_ratio", "ratio", "higher"),
    ("netsim.packet_pool_reuse_ratio", "ratio", "higher"),
    ("measure.express_http_probe_s", "s", "lower"),
    ("measure.express_http_probe_calls", "count", "lower"),
    ("measure.express_dns_probe_s", "s", "lower"),
    ("measure.express_dns_probe_calls", "count", "lower"),
    ("measure.web_connectivity_s", "s", "lower"),
    ("measure.web_connectivity_calls", "count", "lower"),
    ("measure.resolver_scan_s", "s", "lower"),
    ("httpsim.http_fetch_s", "s", "lower"),
    ("httpsim.http_fetch_calls", "count", "lower"),
    ("dnssim.dns_lookup_s", "s", "lower"),
    ("dnssim.dns_lookup_calls", "count", "lower"),
    ("middlebox.inspected", "count", "higher"),
    ("middlebox.triggers", "count", "higher"),
    ("websites.synthetic_s", "s", "lower"),
    ("websites.synthetic_calls", "count", "lower"),
    ("websites.distinct_rank_share", "ratio", "lower"),
    ("population.run_s", "s", "lower"),
    ("population.self_s", "s", "lower"),
    ("population.zipf_mix_s", "s", "lower"),
    ("population.sessions", "count", "higher"),
    ("population.sessions_per_s", "1/s", "higher"),
    ("population.batches", "count", "higher"),
    ("obs.trace_events", "count", "higher"),
    ("obs.trace_mb", "MB", "lower"),
    ("obs.trace_emit_s", "s", "lower"),
    ("obs.metrics_collect_s", "s", "lower"),
    ("obs.report_generate_s", "s", "lower"),
    ("obs.report_load_s", "s", "lower"),
    ("obs.report_render_s", "s", "lower"),
) + tuple((f"experiments.{key}_s", "s", "lower")
          for key in EXPERIMENT_KEYS) + (
    ("cli.import_s", "s", "lower"),
    ("span.campaign_s", "s", "lower"),
    ("span.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output check)."""


def _time_left() -> float:
    return max(1.0, RUN_LIMIT - (time.monotonic() - _STARTED))


def _env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               REPRO_BENCH_FRACTION=FRACTION,
               REPRO_POPULATION_SCALE=POPULATION_SCALE)
    return env


def _spawn(argv: Sequence[str], log: Path, env: Dict[str, str]
           ) -> Tuple[float, float, object]:
    """Run *argv* to completion; ``(start, end, rusage)`` where the
    rusage covers the process and every descendant it waited for."""
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(_time_left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[:6])} ... exited "
                         f"{proc.returncode}:\n{tail}")
    return start, end, usage


def _launch(mode_args: Sequence[str]) -> List[str]:
    return [sys.executable, str(BENCH / "launch.py"), *mode_args]


class Run:
    """One benchmark invocation: a workload, a seed, a scratch dir."""

    def __init__(self, workload: Workload, seed: int, tmp: Path) -> None:
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.env = _env()
        self.launches = 0
        self.import_s: List[float] = []
        self.correct = True
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_digests: Optional[Dict[str, str]] = None
        from repro.experiments import EXPERIMENT_MODULES

        names = self.w.experiments or tuple(EXPERIMENT_MODULES)
        self.expected_units = [(key, unit.name) for key in names
                               for unit in EXPERIMENT_MODULES[key].units()]
        self.reference: Optional[Dict[str, str]] = None
        self.samples: Dict[str, List[float]] = {}

    # -- launching -------------------------------------------------------

    def _next(self, stem: str) -> Path:
        self.launches += 1
        return self.tmp / f"{self.launches:03d}-{stem}"

    def campaign(self, workers: int, trace: bool,
                 span_sets: Sequence[str] = (), stop_at_run: bool = False
                 ) -> Dict:
        """Launch ``repro campaign``; times from the launcher's marks."""
        base = self._next("campaign")
        run_dir = Path(f"{base}.run")
        argv = ["campaign", "--seed", str(self.seed), "--scale", SCALE,
                "--run-dir", str(run_dir)]
        if workers > 1:
            argv += ["--workers", str(workers)]
        if trace:
            argv.append("--trace")
        argv += list(self.w.experiments or ())
        marks_path = Path(f"{base}.marks.json")
        spans_path = Path(f"{base}.spans.json")
        launch = ["cli", "--marks", str(marks_path)]
        for name in span_sets:
            launch += ["--spans", name]
        if span_sets:
            launch += ["--spans-out", str(spans_path)]
        if stop_at_run:
            launch.append("--stop-at-run")
        start, _end, usage = _spawn(_launch(launch + ["--"] + argv),
                                    Path(f"{base}.log"), self.env)
        marks = json.loads(marks_path.read_text())
        self.import_s.append(marks["import_s"])
        result = {"setup_s": marks["run_enter"] - start, "run_dir": run_dir}
        if not stop_at_run:
            result.update(
                campaign_s=marks["run_exit"] - marks["run_enter"],
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0)
        if span_sets:
            result["spans"] = json.loads(spans_path.read_text())
        return result

    def report(self, run_dir: Path, spans: bool = False) -> Dict:
        """``repro report RUN_DIR``; its wall time as a user sees it."""
        base = self._next("report")
        if spans:
            marks_path = Path(f"{base}.marks.json")
            spans_path = Path(f"{base}.spans.json")
            argv = _launch(["cli", "--marks", str(marks_path), "--spans",
                            "report", "--spans-out", str(spans_path), "--",
                            "report", str(run_dir)])
        else:
            argv = [sys.executable, "-m", "repro", "report", str(run_dir)]
        start, end, _usage = _spawn(argv, Path(f"{base}.log"), self.env)
        result = {"report_s": end - start}
        if spans:
            result["report_spans"] = json.loads(spans_path.read_text())
        return result

    def hash_probe(self) -> bool:
        """Run ``table1/mtnl`` under hash seeds 0 and 1 in parallel;
        True when the two journal records are identical."""
        argv = _launch(["unit", "--seed", str(PROBE["seed"]), "--scale",
                        str(PROBE["scale"]), "--fraction",
                        str(PROBE["fraction"]), PROBE["experiment"],
                        PROBE["unit"]])
        procs = []
        for hash_seed in PROBE_HASH_SEEDS:
            env = dict(self.env, PYTHONHASHSEED=hash_seed)
            procs.append(subprocess.Popen(argv, cwd=ROOT, env=env,
                                          stdout=subprocess.PIPE,
                                          stderr=subprocess.DEVNULL))
        outputs = []
        try:
            for proc in procs:
                try:
                    out, _ = proc.communicate(timeout=_time_left())
                except subprocess.TimeoutExpired:
                    raise BenchError("hash-seed probe unit timed out")
                if proc.returncode != 0:
                    raise BenchError("hash-seed probe unit failed")
                outputs.append(out)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return outputs[0] == outputs[1]

    # -- checking --------------------------------------------------------

    def _problem(self, text: str) -> None:
        self.correct = False
        self.problems.append(text)
        print(f"perfbench: check failed: {text}", file=sys.stderr)

    def check_round(self, run_dir: Path, trace: bool) -> Dict:
        """Check one finished round; count its operations.  Returns
        deterministic facts the per-layer metrics use."""
        facts: Dict = {"steps": 0, "sessions": 0, "trace_events": 0,
                       "trace_bytes": 0}
        self.attempted += len(self.expected_units)
        try:
            records = checks.load_journal(str(run_dir / "journal.jsonl"))
            not_ok = checks.check_journal(records, self.expected_units)
            self.failed += not_ok
            if not_ok:
                self._problem(f"{not_ok} unit(s) did not commit ok")
            facts["steps"] = sum(r.get("steps") or 0 for r in records
                                 if r.get("type") == "unit")
            names = {key for key, _ in self.expected_units}
            if "table2" in names:
                checks.check_table2(records)
            if "population-scale" in names:
                facts["sessions"] = self._check_population(records, run_dir)
            digests = {name: checks.digest(str(run_dir / name))
                       for name in ("journal.jsonl", "tables.txt")}
            if trace:
                facts["trace_events"] = checks.check_trace_starts(
                    str(run_dir / "trace.jsonl"), self.expected_units)
                facts["trace_bytes"] = (run_dir / "trace.jsonl").stat().st_size
            if self.reference is not None and digests != self.reference:
                self._problem("journal/tables differ from the serial "
                              "untraced reference campaign")
            if self.first_digests is None:
                self.first_digests = digests
            elif digests != self.first_digests:
                self._problem("two rounds of the same campaign wrote "
                              "different journal/tables bytes")
        except checks.CheckError as exc:
            self._problem(str(exc))
        except (OSError, ValueError, KeyError, TypeError,
                IndexError) as exc:
            self._problem(f"unreadable output: {type(exc).__name__}: {exc}")
        if self.w.hash_probe:
            self.attempted += 1
            if not self.hash_probe():
                self.failed += 1
        return facts

    def _check_population(self, records, run_dir: Path) -> int:
        from repro.experiments.population_scale import (
            DEFAULT_SESSIONS_TOTAL, SUBSCRIBER_WEIGHTS)
        from repro.isps.profiles import PROFILES

        total = round(DEFAULT_SESSIONS_TOTAL * float(POPULATION_SCALE))
        mechanisms = {isp: PROFILES[isp].mechanism
                      for isp in SUBSCRIBER_WEIGHTS}
        totals = checks.check_population(records, total, SUBSCRIBER_WEIGHTS,
                                         mechanisms)
        report = json.loads((run_dir / "report.json").read_text())
        checks.check_report_population(report, totals)
        return totals["sessions"]

    # -- rounds ----------------------------------------------------------

    def make_reference(self) -> None:
        """Digests of a serial, untraced campaign of the same inputs
        (untimed).  Kept in ``.perfbench/ref`` under a key that covers
        the inputs and every source file under ``src/``, so a later run
        of the same seed on the same source reuses it."""
        sha = hashlib.sha256(json.dumps(
            [self.seed, SCALE, FRACTION, POPULATION_SCALE,
             self.w.experiments]).encode())
        for path in sorted(SRC.rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            sha.update(str(path.relative_to(SRC)).encode())
            sha.update(path.read_bytes())
        cache = WORK / "ref" / f"{sha.hexdigest()}.json"
        if cache.is_file():
            self.reference = json.loads(cache.read_text())
            return
        result = self.campaign(workers=1, trace=False)
        run_dir = result["run_dir"]
        self.reference = {name: checks.digest(str(run_dir / name))
                          for name in ("journal.jsonl", "tables.txt")}
        shutil.rmtree(run_dir, ignore_errors=True)
        cache.parent.mkdir(exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.reference))
        os.replace(tmp, cache)

    def round(self, span_sets: Sequence[str] = (), serial: bool = False,
              report_spans: bool = False) -> Dict:
        workers = 1 if serial else self.w.workers
        result = self.campaign(workers, self.w.trace, span_sets)
        reports = [self.report(result["run_dir"], spans=report_spans)
                   for _ in range(REPORTS_PER_ROUND)]
        result["report_s"] = statistics.median(
            [r["report_s"] for r in reports])
        if report_spans:
            result["report_spans"] = reports[-1]["report_spans"]
        result.update(self.check_round(result["run_dir"], self.w.trace))
        return result


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    """Warm-up, set-up probes, then whole rounds until *seconds* have
    passed; medians.  Every sample is kept in ``run.samples``."""
    run.campaign(1, False, stop_at_run=True)  # warm-up: bytecode caches
    setups = [run.campaign(1, False, stop_at_run=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    if run.w.reference:
        run.make_reference()
    rounds = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        result = run.round()
        shutil.rmtree(result["run_dir"], ignore_errors=True)
        rounds.append(result)
    setups += [r["setup_s"] for r in rounds]
    run.samples = {"setup_s": setups}
    run.samples.update({name: [r[name] for r in rounds]
                        for name, _ in END_TO_END[1:]})
    metrics = {"setup_s": statistics.median(setups)}
    for name, _unit in END_TO_END[1:]:
        metrics[name] = statistics.median([r[name] for r in rounds])
    return metrics


def _ratio(counters: Dict[str, float], hits: str, misses: str = "",
           total: str = "") -> float:
    hit = counters.get(hits, 0)
    denom = counters.get(total, 0) if total else hit + counters.get(misses, 0)
    return hit / denom if denom else 0.0


def _counters(run_dir: Path, section: str) -> Dict[str, float]:
    """Counter totals of ``metrics.json`` summed over their labels."""
    metrics = json.loads((run_dir / "metrics.json").read_text())
    totals: Dict[str, float] = {}
    for key, value in metrics[section]["counters"].items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


def per_layer(run: Run, span_path: Path) -> Dict[str, float]:
    """One plain round (the end-to-end reference, and the parent-side
    runner spans when the workload uses workers), then one serial span
    round with every worker-side layer wrapped."""
    if run.w.reference:
        run.make_reference()
    plain = run.round(span_sets=("parent",) if run.w.workers > 1 else ())
    span = run.round(span_sets=("worker",), serial=True, report_spans=True)
    rec = dict(span["report_spans"]["stats"])
    rec.update(span["spans"]["stats"])

    def calls(name: str) -> float:
        return rec.get(name, [0, 0.0, 0.0])[0]

    def incl(name: str) -> float:
        return rec.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return rec.get(name, [0, 0.0, 0.0])[2]

    missing = [name for name in run.w.layers
               if name != "runner.commit_wait" and not calls(name)]
    parent = plain.get("spans", {}).get("stats", {})
    if "runner.commit_wait" in run.w.layers and not parent.get(
            "runner.commit_wait", [0])[0]:
        missing.append("runner.commit_wait")
    for name in missing:
        run._problem(f"span {name} recorded no call on {run.w.name}: "
                     f"was its function renamed?")

    plain_dir = plain["run_dir"]
    det = _counters(plain_dir, "deterministic")
    wall = _counters(plain_dir, "wall")
    unit_wall: Dict[str, float] = {}
    for line in (plain_dir / "timings.jsonl").read_text().splitlines():
        entry = json.loads(line)
        unit_wall[entry["experiment"]] = (unit_wall.get(entry["experiment"],
                                                        0.0) + entry["wall"])
    campaign_s = plain["campaign_s"]
    distinct = span["spans"]["distinct"].get("websites.synthetic", 0)
    metrics = {
        f"{name}_s": incl(name) for name in (
            "measure.express_http_probe", "measure.express_dns_probe",
            "measure.web_connectivity", "measure.resolver_scan",
            "httpsim.http_fetch", "dnssim.dns_lookup")}
    metrics.update({
        f"{name}_calls": calls(name) for name in (
            "measure.express_http_probe", "measure.express_dns_probe",
            "measure.web_connectivity", "httpsim.http_fetch",
            "dnssim.dns_lookup")})
    metrics.update({
        "runner.execute_unit_s": incl("runner.execute_unit"),
        "runner.units": calls("runner.execute_unit"),
        "runner.journal_append_s": incl("runner.journal_append"),
        "runner.journal_appends": calls("runner.journal_append"),
        "runner.commit_wait_s": parent.get("runner.commit_wait",
                                           [0, 0.0])[1],
        "runner.worker_busy_share": (sum(unit_wall.values())
                                     / (run.w.workers * campaign_s)),
        "runner.unit_retries": wall.get("campaign_unit_retries_total", 0),
        "isps.build_world_s": incl("isps.build_world"),
        "isps.build_world_calls": calls("isps.build_world"),
        "isps.isp_build_s": incl("isps.isp_build"),
        "netsim.run_self_s": self_s("netsim.run"),
        "netsim.run_calls": calls("netsim.run"),
        "netsim.events": plain["steps"],
        "netsim.events_per_s": plain["steps"] / campaign_s,
        "netsim.transmit_calls": calls("netsim.transmit"),
        "netsim.routing_s": incl("netsim.routing"),
        "netsim.routing_calls": calls("netsim.routing"),
        "netsim.int_to_ip_calls": calls("netsim.int_to_ip"),
        "netsim.fib_hit_ratio": _ratio(det, "netsim_fib_hits_total",
                                       "netsim_fib_builds_total"),
        "netsim.path_cache_hit_ratio": _ratio(
            det, "netsim_path_cache_hits_total",
            "netsim_path_cache_misses_total"),
        "netsim.flowhash_hit_ratio": _ratio(
            det, "netsim_flowhash_hits_total",
            "netsim_flowhash_misses_total"),
        "netsim.fwd_plan_hit_ratio": _ratio(
            det, "netsim_fwd_plan_hits_total",
            "netsim_fwd_plan_builds_total"),
        "netsim.packet_pool_reuse_ratio": _ratio(
            det, "packet_pool_reused_total",
            total="packet_pool_acquired_total"),
        "middlebox.inspected": det.get("middlebox_inspected_total", 0),
        "middlebox.triggers": det.get("middlebox_triggers_total", 0),
        "websites.synthetic_s": incl("websites.synthetic"),
        "websites.synthetic_calls": calls("websites.synthetic"),
        "websites.distinct_rank_share": (
            distinct / calls("websites.synthetic")
            if calls("websites.synthetic") else 0.0),
        "population.run_s": incl("population.run"),
        "population.self_s": self_s("population.run"),
        "population.zipf_mix_s": incl("population.zipf_mix"),
        "population.sessions": plain["sessions"],
        "population.sessions_per_s": plain["sessions"] / campaign_s,
        "population.batches": det.get("population_batches_total", 0),
        "obs.trace_events": plain["trace_events"],
        "obs.trace_mb": plain["trace_bytes"] / 1e6,
        "obs.trace_emit_s": incl("obs.trace_emit"),
        "obs.metrics_collect_s": incl("obs.metrics_collect"),
        "obs.report_generate_s": incl("obs.report_generate"),
        "obs.report_load_s": incl("obs.report_load"),
        "obs.report_render_s": incl("obs.report_render"),
        "cli.import_s": statistics.median(run.import_s),
        "span.campaign_s": span["campaign_s"],
        "span.overhead_s": span["campaign_s"] - campaign_s,
    })
    for key in EXPERIMENT_KEYS:
        metrics[f"experiments.{key}_s"] = unit_wall.get(key, 0.0)
    span_path.write_text(json.dumps({"worker": span["spans"],
                                     "report": span["report_spans"],
                                     "parent": plain.get("spans")}))
    for result in (plain, span):
        shutil.rmtree(result["run_dir"], ignore_errors=True)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def fingerprint(args) -> Dict:
    """The machine and moment a run measured on."""
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "cpus": os.cpu_count(), "platform": platform.platform(),
        "loadavg": list(os.getloadavg()), "started": time.time(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end campaign benchmark (see README.md).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1808,
                        help="campaign (world) seed; 1808 is the "
                             "reference, 7 is held out")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole rounds until this many "
                             "seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer "
                             "metrics from a span run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from a source checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = fingerprint(args)
    print(f"perfbench: {json.dumps(env)}", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir()
    workload = WORKLOADS[args.workload]
    try:
        run = Run(workload, args.seed, tmp)
        if args.trace:
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            metrics = per_layer(run, spans_dir / (
                f"{args.workload}-seed{args.seed}.json"))
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(run, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "result": result,
                             "samples": run.samples,
                             "problems": run.problems}) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {run.attempted}  failed {run.failed}  "
          f"correct {run.correct}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
