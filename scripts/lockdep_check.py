#!/usr/bin/env python3
"""Cross-process check of the checked build's lock-graph dumps.

A -DCOUCHKV_LOCKDEP=ON process started with COUCHKV_LOCKDEP_DUMP_DIR=DIR
writes DIR/lock_graph.<pid>.json at exit: its lock classes (with how many
mutexes registered each) and its edges, the declared order table in
src/common/lockdep.cc marked "declared". A process aborts on any cycle it
sees itself; this script merges the dumps of a whole test run and fails on
what only the union shows:

  * a cycle in the union graph (A -> B in one test binary, B -> A in
    another);
  * a subsystem (the class name up to its first '.') that owns a registered
    mutex but appears in no declared edge;
  * a class the order table names that no mutex registered in any dump
    (a typo, or a lock that no longer exists).

Subsystems named `*_test` belong to test code and need no declared edge.

Usage: scripts/lockdep_check.py DUMP_DIR_OR_FILE...
       scripts/lockdep_check.py --self-test
"""

import glob
import json
import os
import sys


def find_cycle(edges):
    """Returns one cycle [a, b, ..., a] in the edge set, or None."""
    adj = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
    state = {}  # 1 = on the DFS path, 2 = finished
    for root in sorted(adj):
        if root in state:
            continue
        state[root] = 1
        path, stack = [root], [iter(adj[root])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                state[path.pop()] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in state:
                state[nxt] = 1
                path.append(nxt)
                stack.append(iter(adj.get(nxt, [])))
    return None


def check(dumps):
    """Returns the failures found in the union of the parsed dumps."""
    instances, edges, declared = {}, set(), set()
    for d in dumps:
        for c in d["classes"]:
            instances[c["name"]] = instances.get(c["name"], 0) + c["instances"]
        for e in d["edges"]:
            edges.add((e["from"], e["to"]))
            if e["declared"]:
                declared.add((e["from"], e["to"]))
    errors = []
    cycle = find_cycle(edges)
    if cycle:
        errors.append("lock-order cycle across processes: " +
                      " -> ".join(f'"{n}"' for n in cycle))
    table_classes = {n for e in declared for n in e}
    placed = {n.split(".")[0] for n in table_classes}
    owners = {n.split(".")[0] for n, k in instances.items() if k}
    for sub in sorted(owners - placed):
        if not sub.endswith("_test"):
            errors.append(f"subsystem '{sub}' owns lock classes but has no "
                          "entry in the declared order table")
    for name in sorted(table_classes):
        if not instances.get(name):
            errors.append(f"order-table class '{name}' is registered by no "
                          "mutex in any dump")
    return errors


def load(paths):
    dumps = []
    for p in paths:
        files = (sorted(glob.glob(os.path.join(p, "lock_graph.*.json")))
                 if os.path.isdir(p) else [p])
        for f in files:
            with open(f) as fh:
                dumps.append(json.load(fh))
    return dumps


def self_test():
    def dump(classes, edges):
        return {"classes": [{"name": n, "flags": 0, "instances": k}
                            for n, k in classes.items()],
                "edges": [{"from": a, "to": b, "declared": d}
                          for a, b, d in edges]}
    table = [("a.x", "b.y", True)]
    clean = dump({"a.x": 1, "b.y": 2, "t_test.m": 1}, table)
    cases = [
        ("clean run", [clean], None),
        ("ABBA split across two processes",
         [clean, dump({"a.x": 1, "b.q": 1}, table + [("a.x", "b.q", False)]),
          dump({"b.q": 1, "a.x": 1}, table + [("b.q", "a.x", False)])],
         "cycle across processes"),
        ("subsystem with no declared edge",
         [clean, dump({"d.w": 1}, table)], "subsystem 'd'"),
        ("typo'd class name in the table",
         [dump({"a.x": 1, "b.y": 1}, table + [("a.x", "b.yy", True)])],
         "'b.yy' is registered by no mutex"),
    ]
    ok = True
    for name, dumps, expect in cases:
        errors = check(dumps)
        good = (not errors if expect is None else
                bool(errors) and all(expect in e for e in errors))
        print(f"self-test {'ok  ' if good else 'FAIL'} {name}: {errors}")
        ok &= good
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    dumps = load(argv)
    if not dumps:
        print("lockdep_check: no lock_graph.*.json dumps found in " +
              " ".join(argv), file=sys.stderr)
        return 1
    errors = check(dumps)
    for e in errors:
        print("error: " + e, file=sys.stderr)
    if not errors:
        print(f"lockdep_check: {len(dumps)} dumps merged, no cross-process "
              "cycle, every subsystem placed, every table class registered")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
