#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench JSON against the checked-in
trajectory with per-metric tolerances.

Usage:
  bench_gate.py BASELINE.json CANDIDATE.json [--tolerance PCT] [--list]
  bench_gate.py --self-test FILE.json [FILE.json ...]

Compare mode walks both JSON trees in parallel (dicts by key, lists by
index) and gates every numeric leaf whose key classifies as a performance
metric:

  higher-better  throughput-like values (tput, goodput, committed,
                 speedup, events_per_sec): candidate may not drop more
                 than the tolerance below baseline.
  lower-better   latency/degradation-like values (abort_rate, *_us, *_ns,
                 degraded*, dip_*): candidate may not rise more than the
                 tolerance above baseline.
  ignored        config/identity fields (seed, contexts, nodes, window_us,
                 fault_at_us, ...), wall-clock diagnostics, and anything
                 unclassified. Unclassified keys never gate -- the gate
                 must not fail because a bench grew a new diagnostic.

Wall-clock-derived rates (events_per_sec, *_wall_ms, *speedup) gate
with a much looser tolerance (default 60%): they measure the host, not the
simulation, and jitter run to run. Simulation-derived metrics are
deterministic, so the default 5% tolerance only absorbs intentional
re-baselines, not noise.

--self-test FILE... proves the gate has teeth without a fresh bench run:
  1. FILE vs FILE must pass and must gate at least one metric (guards
     against classifier rot silently ignoring everything), and
  2. FILE vs a synthetic candidate with every higher-better metric
     degraded 10% must FAIL (10% > the 5% tolerance).
Exit status: 0 = pass, 1 = regression (or self-test failure), 2 = usage.
"""

import json
import re
import sys

DEFAULT_TOLERANCE_PCT = 5.0
WALL_TOLERANCE_PCT = 60.0
SELF_TEST_REGRESSION = 0.9  # synthetic candidate: higher-better x0.9

# Order matters: first match wins. Config/identity and wall-clock
# diagnostics are matched before the broad *_us / committed patterns.
IGNORE_PAT = re.compile(
    r"(^|_)(seed|contexts|nodes|hw_concurrency|replicas"
    r"|theta|read_ratio|ops_per_txn|window_us|detect_us"
    r"|fault_at_us|at_us|capacity|keys|epoch)($|_)"
)
WALL_PAT = re.compile(r"(events_per_sec|wall_ms|wall_seconds|speedup)$")
LOWER_PAT = re.compile(
    r"(abort_rate|degraded|dip_|latency|_us$|_ns$|_ms$"
    r"|^p50|^p99|^p999|_p50|_p99|_p999)"
)
HIGHER_PAT = re.compile(r"(tput|goodput|committed|redo_reduction|events)")


def classify(key):
    """-> 'ignore' | 'wall' (higher-better, loose) | 'lower' | 'higher'."""
    k = key.lower()
    if IGNORE_PAT.search(k):
        return "ignore"
    if WALL_PAT.search(k):
        return "wall"
    if LOWER_PAT.search(k):
        return "lower"
    if HIGHER_PAT.search(k):
        return "higher"
    return "ignore"


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
    if isinstance(base, bool) or not isinstance(base, (int, float)):
        return
    if not isinstance(cand, (int, float)) or isinstance(cand, bool):
        out.append((path, "__structure__", base, cand))
        return
    out.append((path, key, float(base), float(cand)))


def compare(base, cand, tolerance_pct, verbose=False):
    """-> (regressions, gated_count). regressions: list of strings."""
    pairs = []
    walk(base, cand, "$", "", pairs)
    regressions = []
    gated = 0
    for path, key, b, c in pairs:
        if key in ("__structure__", "__missing__"):
            regressions.append(f"STRUCTURE {path}: baseline={b!r} candidate={c!r}")
            continue
        kind = classify(key)
        if kind == "ignore":
            continue
        tol = WALL_TOLERANCE_PCT if kind == "wall" else tolerance_pct
        gated += 1
        if b == 0:
            # Zero baseline: a lower-better metric appearing from nothing is
            # a regression; higher-better going 0 -> anything is fine.
            bad = kind == "lower" and c > 0
            delta_pct = float("inf") if bad else 0.0
        else:
            delta_pct = (c - b) / abs(b) * 100.0
            bad = (-delta_pct > tol) if kind in ("higher", "wall") else (delta_pct > tol)
        if verbose:
            print(f"  gate[{kind}] {path}: base={b:g} cand={c:g} "
                  f"delta={delta_pct:+.2f}% tol={tol:g}%")
        if bad:
            direction = "dropped" if kind in ("higher", "wall") else "rose"
            regressions.append(
                f"REGRESSION {path}: {key} {direction} {abs(delta_pct):.1f}% "
                f"(base={b:g} cand={c:g} tol={tol:g}%)")
    return regressions, gated


def degrade(node):
    """Deep-copy with every higher-better numeric leaf scaled x0.9."""
    if isinstance(node, dict):
        return {k: (v * SELF_TEST_REGRESSION
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                    and classify(k) == "higher" else degrade(v))
                for k, v in node.items()}
    if isinstance(node, list):
        return [degrade(v) for v in node]
    return node


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def self_test(paths):
    ok = True
    for path in paths:
        base = load(path)
        regs, gated = compare(base, base, DEFAULT_TOLERANCE_PCT)
        if regs:
            print(f"self-test FAIL {path}: self-compare regressed:")
            for r in regs:
                print(f"  {r}")
            ok = False
            continue
        if gated == 0:
            print(f"self-test FAIL {path}: no gated metrics (classifier rot?)")
            ok = False
            continue
        regs, _ = compare(base, degrade(base), DEFAULT_TOLERANCE_PCT)
        if not regs:
            print(f"self-test FAIL {path}: 10% synthetic regression not caught")
            ok = False
            continue
        print(f"self-test OK {path}: {gated} gated metrics, "
              f"synthetic 10% regression caught ({len(regs)} findings)")
    return 0 if ok else 1


def main(argv):
    args = [a for a in argv[1:]]
    if not args:
        print(__doc__)
        return 2
    if args[0] == "--self-test":
        files = args[1:]
        if not files:
            print("bench_gate: --self-test wants at least one file", file=sys.stderr)
            return 2
        return self_test(files)
    tolerance = DEFAULT_TOLERANCE_PCT
    verbose = False
    files = []
    i = 0
    while i < len(args):
        if args[i] == "--tolerance":
            if i + 1 >= len(args):
                print("bench_gate: --tolerance wants a value", file=sys.stderr)
                return 2
            tolerance = float(args[i + 1])
            i += 2
        elif args[i].startswith("--tolerance="):
            tolerance = float(args[i].split("=", 1)[1])
            i += 1
        elif args[i] == "--list":
            verbose = True
            i += 1
        else:
            files.append(args[i])
            i += 1
    if len(files) != 2:
        print("bench_gate: wants BASELINE.json CANDIDATE.json", file=sys.stderr)
        return 2
    base, cand = load(files[0]), load(files[1])
    regs, gated = compare(base, cand, tolerance, verbose=verbose)
    for r in regs:
        print(r)
    status = "PASS" if not regs else "FAIL"
    print(f"bench-gate {status}: {gated} metrics gated, "
          f"{len(regs)} regression(s), tolerance {tolerance:g}%")
    return 0 if not regs else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
