#!/usr/bin/env python3
"""Checks that two Chrome traces differ only in record order and flow ids.

    python3 bench/golden/trace_ties.py OLD.trace NEW.trace

Per track (process and thread name, not the numeric ids, which follow
first use), both traces must hold the same multiset of records once flow
ids are dropped (the `id` of flow arrows, `args.flow` of stages): flows
are numbered in the order they begin, so reordering two same-time begins
renumbers them. Prints, per track whose order differs, how many records
moved, and exits 1 if any track's records differ in more than order.

Use it before re-recording bench/golden/traced.sha256 for a change that
may reorder same-timestamp events (an engine change that mints different
birth tags) but must not change what is recorded.
"""

import collections
import json
import sys


def tracks(path):
    events = json.load(open(path))["traceEvents"]
    names = {}
    for e in events:
        if e.get("ph") != "M":
            continue
        tid = e.get("tid") if e["name"] == "thread_name" else None
        names[(e["pid"], tid)] = e["args"]["name"]
    out = collections.defaultdict(list)
    for e in events:
        if e.get("ph") == "M":
            continue
        key = (names.get((e["pid"], None)), names.get((e["pid"], e.get("tid"))))
        rec = {k: v for k, v in e.items() if k not in ("pid", "tid", "id")}
        if "args" in rec:
            rec["args"] = {k: v for k, v in rec["args"].items() if k != "flow"}
        out[key].append(json.dumps(rec, sort_keys=True))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = tracks(sys.argv[1]), tracks(sys.argv[2])
    bad = 0
    for key in sorted(set(old) | set(new), key=str):
        a, b = old.get(key, []), new.get(key, [])
        if a == b:
            continue
        if sorted(a) != sorted(b):
            print("records differ: %s" % (key,))
            bad += 1
            continue
        moved = sum(1 for x, y in zip(a, b) if x != y)
        print("reordered: %s, %d of %d records" % (key, moved, len(a)))
    print("%d tracks, %d with different records" % (len(old), bad))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
