"""The golden run: one small campaign whose artifacts are committed.

``tests/golden/`` holds what an untraced serial campaign writes at
seed 1808, ``--scale 0.1``, ``REPRO_BENCH_FRACTION=0.1`` and
``REPRO_POPULATION_SCALE=0.01`` over all 15 experiments:

* ``journal.jsonl`` and ``tables.txt``, verbatim;
* ``metrics.json``, the deterministic half of the run's metrics;
* ``trace.json``, the SHA-256, event total and per-``kind`` event
  counts of a traced run's ``trace.jsonl`` (the trace itself is ~9 MB).

These bytes are the reference for every execution mode: serial or
pooled, traced or not, under any ``PYTHONHASHSEED``.  The golden is
recorded under hash seed 0; the test checks under hash seed 1.

Regenerate only when a change is meant to move the bytes, and say in
CHANGES.md why they moved::

    PYTHONPATH=src python -m tests.test_golden record

Check run directories made with the same inputs (any worker count,
with or without ``--trace``)::

    PYTHONPATH=src python -m tests.test_golden check RUN_DIR...
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 1808
SCALE = 0.1
CAMPAIGN_ENV = {"REPRO_BENCH_FRACTION": "0.1",
                "REPRO_POPULATION_SCALE": "0.01"}
RECORD_HASH_SEED = "0"
CHECK_HASH_SEED = "1"


def launch(run_dir, *, workers: int = 1, trace: bool = False,
           hash_seed: str = RECORD_HASH_SEED) -> subprocess.Popen:
    """Start the golden campaign into *run_dir* in a fresh interpreter."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(CAMPAIGN_ENV, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "repro", "campaign",
            "--seed", str(SEED), "--scale", str(SCALE),
            "--workers", str(workers), "--run-dir", str(run_dir)]
    if trace:
        argv.append("--trace")
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)


def finish(proc: subprocess.Popen) -> None:
    _, err = proc.communicate(timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"golden campaign exited {proc.returncode}: "
                           f"{err.decode(errors='replace')}")


def _canonical(value) -> bytes:
    return (json.dumps(value, indent=1, sort_keys=True) + "\n").encode()


def trace_summary(path) -> Dict:
    digest = hashlib.sha256()
    kinds: Counter = Counter()
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            kinds[json.loads(line)["kind"]] += 1
    return {"sha256": digest.hexdigest(), "events": sum(kinds.values()),
            "kinds": dict(sorted(kinds.items()))}


def artifacts(run_dir) -> Dict[str, bytes]:
    """The golden-comparable files of a finished run directory.

    Deterministic metrics depend on ``--trace`` (a traced run forwards
    hop by hop, so the forwarding-cache counters differ), so they are
    compared for untraced runs only; a traced run contributes its
    trace summary instead.
    """
    run_dir = Path(run_dir)
    found = {name: (run_dir / name).read_bytes()
             for name in ("journal.jsonl", "tables.txt")}
    trace = run_dir / "trace.jsonl"
    if trace.exists():
        found["trace.json"] = _canonical(trace_summary(trace))
    else:
        metrics = json.loads((run_dir / "metrics.json").read_text())
        found["metrics.json"] = _canonical(metrics["deterministic"])
    return found


def mismatches(run_dir) -> List[str]:
    """Names of the artifacts of *run_dir* that differ from the golden."""
    return sorted(name for name, data in artifacts(run_dir).items()
                  if data != (GOLDEN / name).read_bytes())


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        plain = launch(Path(tmp) / "plain")
        traced = launch(Path(tmp) / "traced", trace=True)
        finish(plain)
        finish(traced)
        files = artifacts(Path(tmp) / "plain")
        traced_files = artifacts(Path(tmp) / "traced")
        for name in ("journal.jsonl", "tables.txt"):
            if traced_files[name] != files[name]:
                raise RuntimeError(f"traced run changed {name}")
        files["trace.json"] = traced_files["trace.json"]
    GOLDEN.mkdir(exist_ok=True)
    for name, data in sorted(files.items()):
        (GOLDEN / name).write_bytes(data)
        print(f"wrote {GOLDEN / name} ({len(data)} bytes)")


def test_serial_and_pooled_traced_runs_match_the_golden(tmp_path):
    serial = launch(tmp_path / "serial", hash_seed=CHECK_HASH_SEED)
    pooled = launch(tmp_path / "pooled", workers=2, trace=True,
                    hash_seed=CHECK_HASH_SEED)
    finish(serial)
    finish(pooled)
    assert sorted(artifacts(tmp_path / "serial")) == \
        ["journal.jsonl", "metrics.json", "tables.txt"]
    assert mismatches(tmp_path / "serial") == []
    assert sorted(artifacts(tmp_path / "pooled")) == \
        ["journal.jsonl", "tables.txt", "trace.json"]
    assert mismatches(tmp_path / "pooled") == []


def main(argv: List[str]) -> int:
    if argv == ["record"]:
        record()
        return 0
    if len(argv) >= 2 and argv[0] == "check":
        failed = 0
        for run_dir in argv[1:]:
            names = sorted(artifacts(run_dir))
            differ = mismatches(run_dir)
            failed += bool(differ)
            verdict = ("differs in " + ", ".join(differ) if differ
                       else "matches")
            print(f"{run_dir}: {verdict} the golden "
                  f"({', '.join(names)})")
        return 1 if failed else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
