"""Two concurrent invocations sharing one cache directory.

The multi-process safety contract: advisory bucket locks keep entry
publishes atomic (no torn/quarantined files), and cross-process
single-flight bounds duplicate computation when both invocations want
the same keys.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.cache import ArtifactCache

# Each worker registers the same toy stage, runs the same 12-task
# graph against the shared store, and reports its cache stats.
WORKER = """
import json, sys, time

from repro.engine import Engine, Task, register_stage

COMPUTED = []

def compute(payload, deps):
    time.sleep(0.05)  # widen the race window
    COMPUTED.append(payload["value"])
    return payload["value"] * 2

register_stage("toy_conc", compute=compute,
               encode=lambda a: a, decode=lambda d: d, replace=True)

cache_dir, out_path = sys.argv[1], sys.argv[2]
tasks = [Task(id=f"t{i}", stage="toy_conc", payload={"value": i})
         for i in range(12)]
engine = Engine(backend="serial", cache_dir=cache_dir)
run = engine.run(tasks)
stats = engine.cache.stats()
stats["results"] = {t.id: run[t.id] for t in tasks}
stats["computed"] = len(COMPUTED)
with open(out_path, "w", encoding="utf-8") as handle:
    json.dump(stats, handle)
"""


@pytest.mark.chaos
@pytest.mark.slow
def test_concurrent_invocations_share_cache_safely(tmp_path):
    cache_dir = tmp_path / "cache"
    src_dir = Path(repro.__file__).resolve().parent.parent
    procs = []
    for i in range(2):
        out = tmp_path / f"stats-{i}.json"
        procs.append((subprocess.Popen(
            [sys.executable, "-c", WORKER, str(cache_dir), str(out)],
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(cache_dir)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE), out))
    stats = []
    for proc, out in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode()
        stats.append(json.loads(out.read_text(encoding="utf-8")))

    # both invocations computed correct results
    expected = {f"t{i}": i * 2 for i in range(12)}
    for s in stats:
        assert s["results"] == expected

    # no entry was torn or quarantined by the concurrent publishes
    cache = ArtifactCache(cache_dir=cache_dir)
    assert cache.quarantined() == []
    for s in stats:
        assert s["corrupt"] == 0
        assert s["write_errors"] == 0

    # every published entry parses and round-trips
    entries = sorted((cache_dir / "toy_conc").glob("*.json"))
    assert len(entries) == 12
    for path in entries:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["stage"] == "toy_conc"

    # single-flight bounds duplicate work: 12 distinct keys, so at
    # most one stampede-window duplicate each across both runs
    total_computed = sum(s["computed"] for s in stats)
    assert 12 <= total_computed <= 24
    # every task not computed locally was served by the shared store
    for s in stats:
        served = s["hits_memory"] + s["hits_disk"]
        assert s["computed"] + served >= 12
