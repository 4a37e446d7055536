"""Record the expected output digests in perfbench/digests.json.

    python3 perfbench/record_digests.py [SEED ...]

Runs every ladder preset and the many-strata cases of the given seeds
(default 0 to 99, which reach all 54 documents the generator can emit) once
with ``--verify``, untimed, and keeps the sha256 of ``atlas.json``,
``hasse.dot`` and ``table.txt`` of each case whose oracle checks all passed.
Cases already recorded are skipped.  Exits 1 if any case failed.  The oracle
on siegel:6 and gu:4,4:split takes about twenty minutes together.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(100))
    cases = [
        {"id": p, "argv": ["corpus", p]}
        for p in dict.fromkeys(workloads.LADDER_BUILD + workloads.LADDER_VERIFY)
    ]
    work = run.HERE / "_work" / "record"
    runner = run.Runner(run.ROOT, work, float("inf"), case_limit=3600.0)
    for seed in seeds:
        cases += run.prepare_cases(runner, "many-strata", seed)
    expected = run.load_digests()
    known = len(expected)
    oracle = run.oracle_pass(runner, cases, expected)
    failed = oracle["failed"] if oracle else 0
    run.DIGESTS.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected) - known} cases, {failed} failed the oracle")
    return 1 if failed else 0


if __name__ == "__main__":
    start = time.monotonic()
    code = main(sys.argv[1:])
    print(f"{time.monotonic() - start:.1f} s")
    sys.exit(code)
