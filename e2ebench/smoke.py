#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 e2ebench/smoke.py

Runs every workload briefly, untraced and traced, and checks that each
metric named in BENCHMARK.json is emitted with its unit, that every run
reports per-party keystream-pool counts, and that no op fails.  Then runs
``small_records`` with a middlebox transformer the checker does not
expect (it also rewrites server->client records) and checks that every op
fails, i.e. that the byte-for-byte check catches bad bytes.  Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"
PARTIES = {"client", "mbox", "server"}


def run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} trace={trace}: no result\n{proc.stderr}")
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return proc.returncode, json.loads(lines[-1]), report


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # bulk_transfer is not in BENCHMARK.json (see README.md) but must work.
    for workload in ("handshake_churn", "small_records", "bulk_transfer"):
        for trace in (0, 1):
            code, result, report = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(code == 0, f"{tag}: exit code {code}")
            check(result["correct"] and result["failed"] == 0, f"{tag}: {result['failed']} ops failed")
            check(result["attempted"] >= 1, f"{tag}: no ops attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace], f"{tag}: metric names or units differ from BENCHMARK.json")
            for window in report["windows"]:
                check(set(window["keystream_pool"]) == PARTIES, f"{tag}: pool counts missing")
            if trace:
                check(result["metrics"]["trace.overhead"]["value"] > 0, f"{tag}: no trace.overhead")
            print(f"ok   {tag}: {result['attempted']} ops")

    code, result, _ = run("small_records", 0, "--rewrite", "both")
    check(code != 0 and not result["correct"], "unexpected transformer: run passed")
    check(
        result["failed"] == result["attempted"],
        f"unexpected transformer: {result['failed']} of {result['attempted']} ops failed",
    )
    print(f"ok   small_records with an unexpected transformer: all {result['failed']} ops failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
