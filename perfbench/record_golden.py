"""Record the reference outputs that the benchmark checks every run against.

For each family of the verify-flat and verify-deformed pools it stores a
digest of the report's ``comparable()`` JSON, and for ``sweep --max 3`` the
sha256 of the catalog.  It also stores the cost decile of each
verify-deformed family, timed on the speed-normalized clock, which the
benchmark uses to give every run the same mix of cheap and dear families.

The digests belong to the code they were recorded at: a change that alters
any verdict, witness or catalog byte makes the benchmark report failures.
Re-record only when such a change is intended.

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import workloads


def _digest_chunk(chunk):
    """(key, digest, seconds on the speed-normalized clock) per entry."""
    import hslab
    from speed import SpeedClock
    out = []
    with SpeedClock() as clock:
        for entry in chunk:
            cfg = workloads.family_config(entry, None)
            start = clock.now()
            report = hslab.verify_family(hslab.make_family(cfg))
            seconds = clock.now() - start
            if not (report.verdicts["hs_solution"]
                    and report.verdicts["hermitian_einstein"]):
                raise SystemExit("pool family %s is not a solution"
                                 % workloads.entry_key(entry))
            out.append((workloads.entry_key(entry),
                        workloads.report_digest(report), seconds))
    return out


def _pool_digests(pool):
    """Digests in pool order, and each entry's cost decile (0 = cheapest)."""
    workers = min(2, os.cpu_count() or 1)
    chunks = [pool[i::workers * 8] for i in range(workers * 8)]
    ctx = multiprocessing.get_context("spawn")
    rows = []
    with ctx.Pool(workers) as p:
        for part in p.imap_unordered(_digest_chunk, chunks):
            rows.extend(part)
    digest = {key: d for key, d, _ in rows}
    by_cost = sorted(rows, key=lambda row: row[2])
    decile = {row[0]: 10 * rank // len(rows)
              for rank, row in enumerate(by_cost)}
    keys = [workloads.entry_key(e) for e in pool]
    return ({k: digest[k] for k in keys}, {k: decile[k] for k in keys})


def _sweep_sha():
    from hslab.cli import main
    os.environ.pop("HS_LAB_THREADS", None)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = Path(tmp) / "catalog.jsonl"
        if main(["sweep", "--max", str(workloads.SWEEP_MAX), "--threads", "1",
                 "--out", str(path)]) != 0:
            raise SystemExit("sweep failed")
        data = path.read_bytes()
    return {"max": workloads.SWEEP_MAX, "records": data.count(b"\n"),
            "sha256": hashlib.sha256(data).hexdigest()}


def main():
    golden = {"sweep": _sweep_sha(), "cost_class": {}}
    for name, make_pool in workloads.POOLS.items():
        golden[name], deciles = _pool_digests(make_pool())
        if name == "verify-deformed":
            golden["cost_class"][name] = deciles
        print("%s: %d digests" % (name, len(golden[name])), file=sys.stderr)
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
