"""Compare the per-op work counters of two traced benchmark records.

    python3 perfbench/run.py --workload exact-q4 --trace 1 --out a.json
    python3 perfbench/run.py --workload exact-q4 --trace 1 --out b.json
    python3 perfbench/compare.py a.json b.json

Two runs of the same code on the same op seeds must give identical
counters (nodes, conflict pairs, insertion checks, re-checked edges,
shuffled items, family sizes); the script lists every difference and
exits with 1 when there is one.  Between two commits it shows which
counters a change moved.
"""

from __future__ import annotations

import json
import sys


def differences(a: dict, b: dict) -> list[str]:
    for key in ("workload", "op_seeds", "smoke"):
        if a[key] != b[key]:
            return [f"records differ in {key}: {a[key]!r} != {b[key]!r}"]
    if not a.get("counters") or not b.get("counters"):
        return ["both records must come from traced runs (--trace 1)"]
    by_key_a, by_key_b = _by_key(a), _by_key(b)
    out = []
    for key in sorted(set(by_key_a) | set(by_key_b)):
        for k, (ca, cb) in enumerate(zip(by_key_a.get(key, []), by_key_b.get(key, []))):
            for name in sorted(set(ca) | set(cb)):
                if ca.get(name) != cb.get(name):
                    out.append(f"{key} #{k} {name}: {ca.get(name)} != {cb.get(name)}")
    return out


def _by_key(record: dict) -> dict[str, list[dict]]:
    """Counters per op key; --seed only reorders the job, so keys line ops up."""
    out: dict[str, list[dict]] = {}
    for key, counters in zip(record["job"], record["counters"]):
        out.setdefault(key, []).append(counters)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    diffs = differences(a, b)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"{a['workload']}: counters of {len(a['counters'])} ops repeat exactly")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
