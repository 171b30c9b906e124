#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench JSON against its checked-in
BENCH_*.json.

Usage:
  bench_gate.py BASELINE.json CANDIDATE.json [--list]
  bench_gate.py --self-test FILE.json [FILE.json ...]

Each BENCH_*.json ends in a "metrics" list, written by its bench, of
entries shaped like BENCHMARK.json's end_to_end ones: {"name", "unit",
"better": "higher" | "lower" | "exact", "bound"}. A metric gates every
numeric leaf whose key is its name: a higher (lower) leaf fails when it
falls (rises) by more than bound x |baseline|, an exact leaf on any change.
The metrics lists must be equal, and a member, list element or number the
candidate lacks fails, declared or not. --list prints each gated leaf.

--self-test FILE... checks on each file that FILE passes against itself,
that each declared leaf moved 5% of its magnitude past its bound (by 1
from 0; an exact leaf by +1) fails once per leaf the wrong way and passes
the right way, that a changed metrics list fails, and that the two usage
errors below exit 2.

Exit status: 0 = pass, 1 = regression (or self-test failure), 2 = usage
(including a file with no metrics list, or a metric naming no value).
"""

import contextlib
import io
import json
import sys

PAST_BOUND = 0.05  # the self-test's moves: this much of |value| past the bound


def usage(msg):
    print(f"bench_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def walk(base, cand, path, key, out):
    """Collect (path, key, base, cand) numeric leaf pairs into out."""
    if isinstance(base, dict):
        if not isinstance(cand, dict):
            out.append((path, "__structure__", base, cand))
            return
        for k in base:
            if k not in cand:
                out.append((f"{path}.{k}", "__missing__", base[k], None))
                continue
            walk(base[k], cand[k], f"{path}.{k}", k, out)
        return
    if isinstance(base, list):
        if not isinstance(cand, list) or len(base) != len(cand):
            out.append((path, "__structure__", base, cand))
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            walk(b, c, f"{path}[{i}]", key, out)
        return
    if not is_number(base):
        return
    if not is_number(cand):
        out.append((path, "__structure__", base, cand))
        return
    out.append((path, key, base, cand))


def values(doc):
    """doc without its metrics list: the tree the metrics gate."""
    return {k: v for k, v in doc.items() if k != "metrics"}


def declared(doc, path):
    """-> {name: metric} of doc's metrics list. Exits 2 unless every metric
    is well formed, declared once, and names at least one numeric leaf."""
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, list) or not metrics:
        usage(f"{path}: no metrics list")
    leaves = []
    walk(values(doc), values(doc), "$", "", leaves)
    keys = {key for _, key, _, _ in leaves}
    out = {}
    for m in metrics:
        if (not isinstance(m, dict) or not isinstance(m.get("name"), str) or m["name"] in out
                or m.get("better") not in ("higher", "lower", "exact")
                or not is_number(m.get("bound")) or m["bound"] < 0):
            usage(f"{path}: malformed or repeated metric {m!r}")
        if m["name"] not in keys:
            usage(f"{path}: metric {m['name']!r} names no numeric value")
        out[m["name"]] = m
    return out


def compare(base, cand, metrics, verbose=False):
    """-> (findings, gated_count) of cand against base, whose declared
    metrics are `metrics`. findings: list of strings."""
    findings = []
    if cand["metrics"] != base["metrics"]:
        findings.append("METRICS the candidate's metrics list differs from the baseline's")
    pairs = []
    walk(values(base), cand, "$", "", pairs)
    gated = 0
    for path, key, b, c in pairs:
        if key in ("__structure__", "__missing__"):
            findings.append(f"STRUCTURE {path}: baseline={b!r} candidate={c!r}")
            continue
        m = metrics.get(key)
        if m is None:
            continue
        gated += 1
        slack = m["bound"] * abs(b)
        bad = {"higher": c < b - slack, "lower": c > b + slack, "exact": c != b}[m["better"]]
        if verbose:
            print(f"  gate[{m['better']} {m['bound']:g}] {path}: base={b:g} cand={c:g}")
        if bad:
            findings.append(f"REGRESSION {path}: base={b:g} cand={c:g} "
                            f"better={m['better']} bound={m['bound']:g}")
    return findings, gated


def shift(node, metrics, sign, key=None):
    """Deep copy of node with every declared leaf moved past its bound: the
    wrong way for sign 1, the right way for sign -1 (exact leaves stay)."""
    if isinstance(node, dict):
        return {k: shift(v, metrics, sign, k) for k, v in node.items()}
    if isinstance(node, list):
        return [shift(v, metrics, sign, key) for v in node]
    m = metrics.get(key)
    if m is None or not is_number(node):
        return node
    step = sign * ((m["bound"] + PAST_BOUND) * abs(node) or 1)
    return {"higher": node - step, "lower": node + step, "exact": node + max(sign, 0)}[m["better"]]


def exits_2(fn):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            fn()
    except SystemExit as e:
        return e.code == 2
    return False


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        usage(f"cannot read {path}: {e}")


def self_test(paths):
    ok = True
    for path in paths:
        base = load(path)
        metrics = declared(base, path)
        moved = {sign: compare(base, shift(base, metrics, sign), metrics)[0] for sign in (1, -1)}
        same, gated = compare(base, base, metrics)
        relisted, _ = compare(base, {**base, "metrics": base["metrics"][1:]}, metrics)
        unmatched = {**base, "metrics": base["metrics"] + [
            {"name": "no_such_value", "unit": "count", "better": "exact", "bound": 0}]}
        failures = [msg for msg, failed in [
            (f"against itself: {gated} leaves gated, findings {same}", same or not gated),
            (f"moved the wrong way: {len(moved[1])} findings for {gated} leaves",
             len(moved[1]) != gated or any(not f.startswith("REGRESSION") for f in moved[1])),
            (f"moved the right way: {moved[-1]}", moved[-1]),
            (f"changed metrics list: {relisted}",
             len(relisted) != 1 or not relisted[0].startswith("METRICS")),
            ("no exit 2 without a metrics list",
             not exits_2(lambda: declared(values(base), path))),
            ("no exit 2 on a metric naming no value",
             not exits_2(lambda: declared(unmatched, path))),
        ] if failed]
        for msg in failures:
            print(f"self-test FAIL {path}: {msg}")
        if not failures:
            print(f"self-test OK {path}: {len(metrics)} metrics gate {gated} leaves, "
                  f"each fails moved the wrong way past its bound")
        ok = ok and not failures
    return 0 if ok else 1


def main(argv):
    args = argv[1:]
    if args[:1] == ["--self-test"]:
        if len(args) < 2:
            usage("--self-test wants at least one file")
        return self_test(args[1:])
    verbose = "--list" in args
    files = [a for a in args if a != "--list"]
    if len(files) != 2 or any(f.startswith("--") for f in files):
        usage("wants BASELINE.json CANDIDATE.json [--list]")
    base, cand = load(files[0]), load(files[1])
    metrics = declared(base, files[0])
    declared(cand, files[1])
    findings, gated = compare(base, cand, metrics, verbose=verbose)
    for f in findings:
        print(f)
    print(f"bench-gate {'FAIL' if findings else 'PASS'}: {gated} leaves gated, "
          f"{len(findings)} finding(s)")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
