#!/usr/bin/env python3
"""Compare two benchmark result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a ledger written by `run.py --ledger`: one JSON line per
run with the run's env record and result. Runs are paired by workload,
mode (--trace 0 or 1) and seed; seeds present on one side only are
left out. For every workload and metric the tool prints each side's
median and quartiles (Q1..Q3) and a verdict.

Model metrics (design, floorplan and simulated results, and the
per-layer counts) are exact for a given seed, so any difference between
same-seed runs, or between repeated runs of one seed, is:

  changed     the model's behaviour changed

Host metrics (units s, ref, MiB and ns, and dse.pool_busy_frac) are judged
on the change of the median over all runs, new against base, and on
the paired changes: for each seed, (new - base) / base of the per-seed
medians. Both are signed so that positive is worse, and the paired
changes are printed as MED [Q1..Q3]. Pairing by seed keeps the
difference between one seed's trace and another's out of the noise.

  worse       the median is worse than the base's by more than the
              metric's bound
  unresolved  the paired changes spread (Q3 - Q1) wider than the bound,
              and not every new run beats every base run
  better      the new side wins at least 9 in 10 pairs, and the medians
              differ by more than the base's own quartile spread
  unchanged   otherwise

End-to-end metrics use the bounds in BENCHMARK.json. Per-layer metrics
have no bound; for them `worse` mirrors `better` (the new side loses at
least 9 in 10 pairs, by more than the base's quartile spread). The
tracing overhead (traced minus untraced wall_ref, the iteration time
in units of the host-speed reference kernel) is printed per workload. Ledgers are flagged as not comparable when their env records
differ in machine, compiler, build or smoke mode, or give one seed
different input sizes. Exits 1 when an end-to-end metric is worse or
changed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Env fields that must match for two ledgers to be comparable.
COMPARABLE = ("smoke", "machine_threads", "pool_threads", "compiler",
              "build_type", "minnoc_obs")
HOST_UNITS = ("s", "ref", "MiB", "ns")
HOST_METRICS = ("dse.pool_busy_frac",)


def load(path):
    """{(workload, trace): [record, ...]} from a ledger file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["env"]["workload"], rec["env"]["trace"])
                runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(runs, metric):
    """{seed: [value, ...]} of @p metric over @p runs."""
    out = {}
    for r in runs:
        m = r["result"]["metrics"].get(metric)
        if m is not None:
            out.setdefault(r["env"]["seed"], []).append(m["value"])
    return out


def exact_verdict(base, new):
    """'changed' unless every paired seed gives one value on both sides."""
    for seed in base.keys() & new.keys():
        if len(set(base[seed]) | set(new[seed])) > 1:
            return "changed"
    return "unchanged"


def host_verdict(base, new, lower_better, bound):
    """(verdict, paired changes' Q1, MED, Q3); see the module doc."""
    sign = 1 if lower_better else -1
    seeds = sorted(base.keys() & new.keys())
    changes = [sign * (statistics.median(new[s]) -
                       statistics.median(base[s])) /
               abs(statistics.median(base[s]))
               for s in seeds if statistics.median(base[s])]
    if not changes:
        return "unchanged", None
    bv = [v for s in seeds for v in base[s]]
    nv = [v for s in seeds for v in new[s]]
    b1, bm, b3 = quartiles(bv)
    nm = statistics.median(nv)
    q = quartiles(changes)
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    clear = abs(nm - bm) > b3 - b1
    wins = sum(c < 0 for c in changes)
    losses = sum(c > 0 for c in changes)
    if bound is not None:
        if worse_by > bound:
            return "worse", q
        if q[2] - q[0] > bound:
            every = all(sign * (n - b) < 0 for n in nv for b in bv)
            return ("better" if every else "unresolved"), q
    elif losses >= 0.9 * len(changes) and worse_by > 0 and clear:
        return "worse", q
    if wins >= 0.9 * len(changes) and worse_by < 0 and clear:
        return "better", q
    return "unchanged", q


def comparable(runs):
    """Whether runs share machine and build, and each seed one input."""
    envs = {tuple(json.dumps(r["env"].get(k)) for k in COMPARABLE)
            for r in runs}
    inputs = {}
    for r in runs:
        inputs.setdefault(r["env"]["seed"], set()).add(
            json.dumps(r["env"]["inputs"], sort_keys=True))
    return len(envs) == 1 and all(len(v) == 1 for v in inputs.values())


def fmt(per_seed):
    q1, m, q3 = quartiles([v for vs in per_seed.values() for v in vs])
    return f"{m:.6g} [{q1:.6g}..{q3:.6g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failing = False
    for w in (w["name"] for w in spec["workloads"]):
        print(f"== {w}")
        for trace in (0, 1):
            b, n = base.get((w, trace), []), new.get((w, trace), [])
            if not b or not n:
                continue
            if not comparable(b + n):
                print(f"   NOT COMPARABLE (trace {trace}): env records "
                      f"differ in {', '.join(COMPARABLE)} or inputs")
            bs = {r["env"]["seed"] for r in b}
            ns = {r["env"]["seed"] for r in n}
            print(f"   trace {trace}: {len(b)} base runs, {len(n)} new "
                  f"runs, {len(bs & ns)} paired seeds"
                  + (f", {len(bs ^ ns)} unpaired left out" if bs ^ ns
                     else ""))
            for m in declared[trace]:
                bv, nv = by_seed(b, m["name"]), by_seed(n, m["name"])
                if not bv or not nv:
                    continue
                change = ""
                if m["unit"] in HOST_UNITS or m["name"] in HOST_METRICS:
                    v, q = host_verdict(bv, nv, m["better"] == "lower",
                                        m.get("bound"))
                    if q:
                        change = f"{q[1]:+.1%} [{q[0]:+.1%}..{q[2]:+.1%}]"
                else:
                    v = exact_verdict(bv, nv)
                failing |= trace == 0 and v in ("worse", "changed")
                print(f"   {m['name']:28s} {m['unit']:7s} "
                      f"{fmt(bv):34s} -> {fmt(nv):34s} {v:10s} {change}")
        for label, runs in (("base", base), ("new", new)):
            traced = [r["result"]["metrics"]["traced.wall_ref"]["value"]
                      for r in runs.get((w, 1), [])]
            untraced = [r["result"]["metrics"]["wall_ref"]["value"]
                        for r in runs.get((w, 0), [])]
            if traced and untraced:
                over = statistics.median(traced) - statistics.median(untraced)
                print(f"   tracing overhead ({label}): {over:+.4f} ref "
                      f"({over / statistics.median(untraced):+.2%})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
