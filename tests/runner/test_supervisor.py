"""Self-healing parallel campaigns: the supervised worker pool.

The acceptance suite for the supervision layer: a kill-riddled
``workers=4`` campaign must commit a journal and tables byte-identical
to the undisturbed serial run; a unit that crashes its worker twice is
quarantined durably; a unit hung in pure Python is killed at the hard
deadline and journaled as a timeout.  All forensics (attempts, worker
ids, crash events) stay in sidecars.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner.campaign import Campaign
from repro.runner.errors import CampaignError
from repro.runner.parallel import HANG_ENV, KILL_ENV, UnitSettings
from repro.runner.supervise import Supervisor

SCALE = 0.05

#: Deterministic kill plan: three first-attempt SIGKILLs across two
#: experiments (unit names from the tcpip/table3 registries).
KILL_PLAN = "tcpip/mtnl:1,tcpip/idea:1,table3/sify:1"


def _campaign(run_dir, experiments=("tcpip", "table3"), **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("fraction", 1.0)
    return Campaign(experiments=list(experiments), seed=1808,
                    run_dir=str(run_dir), **kwargs)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestKillChaos:
    """Injected worker SIGKILLs must be invisible in durable outputs."""

    def test_kill_riddled_run_byte_identical_to_serial(self, tmp_path,
                                                       monkeypatch):
        serial = _campaign(tmp_path / "serial").run()
        monkeypatch.setenv(KILL_ENV, KILL_PLAN)
        chaos = _campaign(tmp_path / "chaos", workers=4).run()

        assert chaos.complete
        assert _read(chaos.journal_path) == _read(serial.journal_path)
        assert _read(chaos.tables_path) == _read(serial.tables_path)

        # Forensics land in the sidecars instead.
        events = _jsonl(os.path.join(chaos.run_dir, "supervision.jsonl"))
        kinds = [event["kind"] for event in events]
        assert kinds.count("worker-crash") == 3
        assert kinds.count("unit-retry") == 3
        assert kinds.count("worker-spawn") == 3  # one respawn per kill

        victims = {("tcpip", "mtnl"), ("tcpip", "idea"),
                   ("table3", "sify")}
        timings = _jsonl(os.path.join(chaos.run_dir, "timings.jsonl"))
        by_unit = {(t["experiment"], t["unit"]): t for t in timings}
        for victim in victims:
            assert by_unit[victim]["attempts"] == 2
        survivors = set(by_unit) - victims
        assert all(by_unit[unit]["attempts"] == 1 for unit in survivors)
        assert all(t["worker"] is not None for t in timings)

        metrics = json.load(open(os.path.join(chaos.run_dir,
                                              "metrics.json")))
        wall_counters = metrics["wall"]["counters"]
        assert wall_counters["campaign_worker_crashes_total"] == 3
        assert wall_counters["campaign_unit_retries_total"] == 3
        # Crash accounting must never leak into the deterministic half.
        serial_metrics = json.load(open(os.path.join(
            serial.run_dir, "metrics.json")))
        assert metrics["deterministic"] == serial_metrics["deterministic"]

    def test_serial_runs_are_chaos_immune(self, tmp_path, monkeypatch):
        """The serial path never enters run_unit_task, so a stray kill
        plan in the environment cannot touch a workers=1 campaign."""
        monkeypatch.setenv(KILL_ENV, KILL_PLAN)
        report = _campaign(tmp_path / "run", experiments=("tcpip",)).run()
        assert report.complete


class TestQuarantine:
    def _quarantine_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "tcpip/mtnl:1,tcpip/mtnl:2")
        return _campaign(tmp_path / "run", experiments=("tcpip",),
                         workers=2).run()

    def test_double_crash_quarantines_and_campaign_proceeds(
            self, tmp_path, monkeypatch):
        report = self._quarantine_run(tmp_path, monkeypatch)
        assert report.counts["quarantined"] == 1
        assert report.counts["ok"] == report.counts["total"] - 1
        assert not report.complete  # a quarantined unit is not a result
        assert "(quarantined: crashed 2 consecutive worker" \
            in report.tables
        assert "quarantined: tcpip:mtnl" in report.render()

        journal = _jsonl(report.journal_path)
        quarantined = [rec for rec in journal
                       if rec.get("status") == "quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["unit"] == "mtnl"
        assert quarantined[0]["error"]["category"] == "poison"

        events = _jsonl(os.path.join(report.run_dir,
                                     "supervision.jsonl"))
        assert [e["kind"] for e in events].count("unit-quarantined") == 1

    def test_quarantined_unit_survives_resume_untouched(
            self, tmp_path, monkeypatch):
        report = self._quarantine_run(tmp_path, monkeypatch)
        tables_before = _read(report.tables_path)
        monkeypatch.delenv(KILL_ENV)
        resumed = _campaign(tmp_path / "run", experiments=("tcpip",),
                            resume=True).run()
        # Every unit — including the quarantined one — was durable, so
        # nothing re-ran and the rendered tables are stable.
        assert resumed.degradation.resumed == resumed.counts["total"]
        assert resumed.counts["quarantined"] == 1
        assert _read(resumed.tables_path) == tables_before


class TestHardDeadline:
    def test_pure_python_hang_is_killed_and_journaled(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv(HANG_ENV, "tcpip/mtnl")
        report = _campaign(tmp_path / "run", experiments=("tcpip",),
                           workers=2, unit_wall=0.5,
                           hard_grace=0.5).run()
        assert report.counts["timeout"] == 1
        assert report.counts["ok"] == report.counts["total"] - 1
        # Same deterministic detail text as the cooperative watchdog.
        assert "(timeout: unit exceeded 0.5s wall budget)" \
            in report.tables
        events = _jsonl(os.path.join(report.run_dir,
                                     "supervision.jsonl"))
        assert any(e["kind"] == "unit-hard-timeout" for e in events)
        journal = _jsonl(report.journal_path)
        timeouts = [rec for rec in journal
                    if rec.get("status") == "timeout"]
        assert timeouts[0]["timeout"]["kind"] == "unit-wall"
        assert timeouts[0]["steps"] is None  # SIGKILL leaves no count


class TestSupervisorUnit:
    """The Supervisor driven directly, without a campaign."""

    def _settings(self):
        return UnitSettings(seed=1808, scale=SCALE, fraction=1.0)

    def test_empty_task_list_spawns_nothing(self):
        supervisor = Supervisor(self._settings(), workers=2)
        assert list(supervisor.run([])) == []
        assert supervisor._spawned == 0

    def test_workers_validated(self):
        with pytest.raises(CampaignError, match="workers"):
            Supervisor(self._settings(), workers=0)
        with pytest.raises(CampaignError, match="max_crashes"):
            Supervisor(self._settings(), workers=1, max_crashes=0)

    def test_respawn_budget_bounds_crash_loops(self, monkeypatch):
        # Kill every attempt; with max_crashes high the unit keeps
        # retrying until the spawn budget trips the circuit breaker.
        monkeypatch.setenv(KILL_ENV, "tcpip/mtnl")
        supervisor = Supervisor(self._settings(), workers=1,
                                max_crashes=99, backoff_base=0.0,
                                max_respawns=3)
        with pytest.raises(CampaignError, match="unstable"):
            list(supervisor.run([("tcpip", "mtnl")]))
        assert not supervisor._slots  # pool torn down on the way out

    def test_outcomes_arrive_in_canonical_order(self, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "tcpip/idea:1")
        supervisor = Supervisor(self._settings(), workers=3,
                                backoff_base=0.0)
        tasks = [("tcpip", name) for name in
                 ("mtnl", "airtel", "idea", "vodafone", "jio")]
        outcomes = list(supervisor.run(tasks))
        assert [o.index for o in outcomes] == list(range(len(tasks)))
        assert [o.unit_name for o in outcomes] == [t[1] for t in tasks]
        by_name = {o.unit_name: o for o in outcomes}
        assert by_name["idea"].attempts == 2
        assert all(o.record["status"] == "ok" for o in outcomes)


def _children(pid):
    """Live (non-zombie) child pids of *pid*, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to find worker processes")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_sigkilled(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "tcpip", "table3",
             "--scale", str(SCALE), "--workers", "2",
             "--run-dir", str(tmp_path / "run")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                assert parent.poll() is None, "campaign ended too early"
                workers = _children(parent.pid)
                time.sleep(0.05)
            assert len(workers) == 2
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "workers outlived their SIGKILLed parent"
