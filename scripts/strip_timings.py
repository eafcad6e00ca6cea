#!/usr/bin/env python3
"""Strip wall-clock timings from a cscpta/bench JSON document.

Usage: strip_timings.py INPUT.json OUTPUT.json

Removes every "timings" object and every "*_ms" key (recursively) and
rewrites the document with sorted keys, producing a canonical
timing-free form. Two runs of the same analyses are required to agree on
this form byte-for-byte no matter the `--jobs` count, the host's core
count, or scheduler interleaving — the CI `--jobs` repeat smoke, the
server smoke and local A/B checks diff the output of this script with
`cmp`.
"""

import json
import sys


def scrub(node):
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items()
                if k != "timings" and not k.endswith("_ms")}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {sys.argv[1]}: {exc}", file=sys.stderr)
        return 2
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(scrub(doc), fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
