"""Run one ``repro`` command in this (fresh) interpreter, with marks.

Usage::

    python3 perfbench/launch.py cli --marks FILE [--spans SET ...]
        [--spans-out FILE] [--stop-at-run] -- <repro arguments>
    python3 perfbench/launch.py unit --seed N --scale X --fraction F
        EXPERIMENT UNIT

``cli`` runs ``repro <arguments>`` exactly as ``python -m repro``
would, and writes ``FILE`` with ``time.monotonic()`` marks (a
system-wide clock on Linux, so the parent can subtract its own launch
time): ``import_s`` (time to import ``repro.cli``), ``run_enter`` and
``run_exit`` (entry into and return from ``Campaign.run``).  With
``--stop-at-run`` it exits as soon as ``Campaign.run`` is entered: a
set-up-only probe.  With ``--spans`` it wraps the named span sets
(see :data:`SPAN_SETS`) and writes the recorder's dump to
``--spans-out`` when the command ends.

``unit`` executes one campaign unit through the runner's own
``execute_unit`` and prints its journal record (canonical JSON) on
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import spans

#: Span sets: (target, span name, mode) — see :func:`spans.install`.
SPAN_SETS = {
    # Worker-side layers, for a serial span run.
    "worker": (
        ("repro.runner.parallel:execute_unit", "runner.execute_unit",
         "unit"),
        ("repro.runner.journal:Journal.append", "runner.journal_append",
         "span"),
        ("repro.isps.world:build_world", "isps.build_world", "span"),
        ("repro.isps.builder:ISPBuilder.build", "isps.isp_build", "span"),
        ("repro.netsim.engine:Network.run", "netsim.run", "span"),
        ("repro.netsim.engine:Network.transmit", "netsim.transmit",
         "count"),
        ("repro.netsim.engine:Network.next_hop", "netsim.routing", "span"),
        ("repro.netsim.engine:Network.path_to", "netsim.routing", "span"),
        ("repro.netsim.engine:Network.hop_count", "netsim.routing",
         "span"),
        ("repro.netsim.addressing:int_to_ip", "netsim.int_to_ip",
         "count"),
        ("repro.core.measure.fastprobe:express_http_probe",
         "measure.express_http_probe", "span"),
        ("repro.core.measure.fastprobe:express_dns_probe",
         "measure.express_dns_probe", "span"),
        ("repro.core.measure.ooni:web_connectivity",
         "measure.web_connectivity", "span"),
        ("repro.core.measure.resolver_scan:scan_isp_resolvers",
         "measure.resolver_scan", "span"),
        ("repro.httpsim.client:http_fetch", "httpsim.http_fetch", "span"),
        ("repro.dnssim.client:dns_lookup", "dnssim.dns_lookup", "span"),
        ("repro.websites.synthetic:SyntheticCorpus.category_id",
         "websites.synthetic", "distinct"),
        ("repro.websites.synthetic:SyntheticCorpus.in_master_list",
         "websites.synthetic", "distinct"),
        ("repro.websites.synthetic:SyntheticCorpus.domain",
         "websites.synthetic", "distinct"),
        ("repro.population.engine:PopulationEngine.run", "population.run",
         "span"),
        ("repro.population.engine:zipf_mix", "population.zipf_mix",
         "span"),
        ("repro.obs.trace:TraceBus.emit", "obs.trace_emit", "span"),
        ("repro.obs.metrics:collect_world_metrics", "obs.metrics_collect",
         "span"),
        ("repro.obs.metrics:MetricsRegistry.merge", "obs.metrics_collect",
         "span"),
    ),
    # Parent side of a real multi-worker campaign.
    "parent": (
        ("repro.runner.supervise:Supervisor.run", "runner.commit_wait",
         "wait"),
    ),
    # ``repro report``.
    "report": (
        ("repro.obs.report:generate_report", "obs.report_generate",
         "span"),
        ("repro.obs.report:load_run", "obs.report_load", "span"),
        ("repro.obs.report:render_markdown", "obs.report_render", "span"),
    ),
}

#: Span names whose spans are kept whole (low frequency).
KEPT = ("runner.execute_unit", "runner.journal_append", "isps.build_world",
        "population.run", "obs.report_generate", "obs.report_load",
        "obs.report_render")

#: Modules that bind the wrapped functions; imported before wrapping
#: so every binding is replaced.
_BINDERS = ("repro.experiments", "repro.runner.campaign",
            "repro.runner.supervise", "repro.obs.report")


def _write_json(path: str, data) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def _cli(args) -> int:
    import importlib

    marks = {}
    start = time.monotonic()
    import repro.cli
    marks["import_s"] = time.monotonic() - start
    from repro.runner.campaign import Campaign

    recorder = None
    if args.spans:
        for name in _BINDERS:
            importlib.import_module(name)
        recorder = spans.Recorder(keep=KEPT)
        for name in args.spans:
            spans.install(recorder, SPAN_SETS[name])

    original_run = Campaign.run

    def run(self):
        marks["run_enter"] = time.monotonic()
        if args.stop_at_run:
            _write_json(args.marks, marks)
            raise SystemExit(0)
        try:
            return original_run(self)
        finally:
            marks["run_exit"] = time.monotonic()

    Campaign.run = run
    pid = os.getpid()
    try:
        return repro.cli.main(args.argv)
    finally:
        # Forked workers inherit this frame but never return through
        # it; the pid check is for safety only.
        if os.getpid() == pid:
            _write_json(args.marks, marks)
            if recorder is not None:
                _write_json(args.spans_out, recorder.dump())


def _unit(args) -> int:
    from repro.experiments import EXPERIMENT_MODULES
    from repro.runner.parallel import UnitSettings, execute_unit
    from repro.runner.watchdog import Watchdog

    unit = next(u for u in EXPERIMENT_MODULES[args.experiment].units()
                if u.name == args.unit)
    settings = UnitSettings(seed=args.seed, scale=args.scale,
                            fraction=args.fraction)
    record, _wall, _extras = execute_unit(settings, args.experiment, unit,
                                          Watchdog())
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--marks", required=True)
    cli.add_argument("--spans", action="append", choices=sorted(SPAN_SETS),
                     default=[])
    cli.add_argument("--spans-out")
    cli.add_argument("--stop-at-run", action="store_true")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    unit = sub.add_parser("unit")
    unit.add_argument("--seed", type=int, required=True)
    unit.add_argument("--scale", type=float, required=True)
    unit.add_argument("--fraction", type=float, required=True)
    unit.add_argument("experiment")
    unit.add_argument("unit")
    args = parser.parse_args(argv)
    if args.mode == "unit":
        return _unit(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    if args.spans and not args.spans_out:
        parser.error("--spans needs --spans-out")
    return _cli(args)


if __name__ == "__main__":
    sys.exit(main())
