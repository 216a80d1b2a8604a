"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BASE NEW

Each argument is a saved stdout of ``run.py``; its ``record:`` line is
used. Records of different workloads, or whose input fingerprints differ,
are refused: their numbers do not measure the same work. Exit code 0 after printing, 2 on refusal.
"""

from __future__ import annotations

import json
import sys

PREFIX = "record: "


def load_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for line in reversed(lines):
        if line.startswith(PREFIX):
            return json.loads(line[len(PREFIX):])
    raise ValueError(f"{path}: no '{PREFIX.strip()}' line")


def refusal(base: dict, new: dict):
    """Why two records cannot be compared, or None."""
    if base["workload"] != new["workload"]:
        return f"workloads differ: {base['workload']} vs {new['workload']}"
    if base["environment"]["traced"] != new["environment"]["traced"]:
        return "one record is traced and the other is not"
    fb = [d["sha256"] for d in base["inputs"]["documents"]]
    fn = [d["sha256"] for d in new["inputs"]["documents"]]
    if fb != fn:
        return "input fingerprints differ (different seed or generator): refusing to compare"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (load_record(p) for p in argv)
    why = refusal(base, new)
    if why:
        print(f"compare: {why}", file=sys.stderr)
        return 2
    print(f"{base['workload']} seed={base['seed']} inputs={base['inputs']['id'][:16]}")
    print(f"  base {base['environment'].get('git_sha')}  new {new['environment'].get('git_sha')}")
    for name, m in base["metrics"].items():
        b, n = m["value"], new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"  {name:32s} {b:14.6g}  (missing in new)")
            continue
        ratio = f"{n / b:8.4f}x" if b else "       -"
        print(f"  {name:32s} {b:14.6g} -> {n:14.6g} {m['unit']:6s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
