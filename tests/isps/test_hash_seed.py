"""World builds must not depend on Python's per-process string hashing.

``str.__hash__`` is salted per interpreter (``PYTHONHASHSEED``), so any
seed derived from ``hash(name)`` makes a unit's journal record differ
between processes.  ``table1/mtnl`` at seed 1808, scale 0.25 over the
full corpus exercises the peering middleboxes whose seeds used to be
derived that way.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_SCRIPT = """
import json
from repro.experiments import EXPERIMENT_MODULES
from repro.runner.parallel import UnitSettings, execute_unit
from repro.runner.watchdog import Watchdog

unit = next(u for u in EXPERIMENT_MODULES["table1"].units()
            if u.name == "mtnl")
settings = UnitSettings(seed=1808, scale=0.25, fraction=1.0)
record, _wall, _extras = execute_unit(settings, "table1", unit, Watchdog())
print(json.dumps(record, sort_keys=True))
"""


def _launch(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.abspath(SRC))
    return subprocess.Popen([sys.executable, "-c", _SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True)


def test_unit_record_is_independent_of_hash_seed():
    procs = [_launch("0"), _launch("1")]
    records = []
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        records.append(json.loads(out))
    assert records[0]["status"] == "ok"
    assert records[0] == records[1]
