"""quivkit's benchmark: one workload per process, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-reference

Run it from the repository root; it imports quivkit from ./src.  With
--trace 0 it times whole passes over the seeded inputs while the next pass
still fits in S seconds (at least one pass) and prints the end-to-end
metrics of BENCHMARK.json.  With --trace 1 it runs one untraced pass, one
pass with spans on every layer (set-up included) and a counting pass over a
subset, and prints the per-layer metrics.  Every op's answer is checked
outside the timed section; the last line of output is one JSON object.
--record-reference rewrites perfbench/cli_reference.json from the current
sources.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter


def _load_quivkit(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quivkit", "__init__.py")):
        raise SystemExit("perfbench: no ./src/quivkit here; run from the repository root")
    sys.path.insert(0, src)
    import quivkit

    if os.path.dirname(os.path.dirname(os.path.abspath(quivkit.__file__))) != src:
        raise SystemExit(f"perfbench: imported quivkit from {quivkit.__file__}, not ./src")


def _spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SystemExit("perfbench: no BENCHMARK.json here; run from the repository root")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(ops):
    """Time each op, then check its answer untimed; (op, seconds, reason).

    Each op starts on a collected heap, so that its time and peak memory
    do not depend on which op ran before it."""
    records = []
    for op in ops:
        gc.collect()
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            dt = perf_counter() - start
            records.append((op, dt, f"raised {type(exc).__name__}: {exc}"))
            continue
        dt = perf_counter() - start
        try:
            reason = op.check(result)
        except Exception as exc:  # a malformed answer is a failed op as well
            reason = f"check raised {type(exc).__name__}: {exc}"
        records.append((op, dt, reason))
    return records


def _frozen(ops):
    """Collect, then keep the set-up's objects out of later collections: a
    user's process does not hold them, and the per-op collection in
    run_pass stays cheap."""
    gc.collect()
    gc.freeze()
    return ops


def _failures(records):
    return [(op.name, reason) for op, _dt, reason in records if reason is not None]


def end_to_end(workload, seconds):
    """Median set-up time over repeated set-ups, then whole passes while the
    next one still fits in `seconds` of wall time, checks included."""
    setup_times = []
    for _ in range(workload.setup_repeats):
        ops = None  # drop the previous set-up before building the next
        start = perf_counter()
        ops = workload.setup()
        setup_times.append(perf_counter() - start)
    ops = _frozen(ops)
    records, passes = [], 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        records += run_pass(ops)
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    done = {"Q": 0, "Fp": 0}
    spent = {"Q": 0.0, "Fp": 0.0}
    for op, dt, reason in records:
        spent[op.field] += dt
        done[op.field] += reason is None
    lat = sorted(dt for _op, dt, _r in records)
    n = len(lat)
    who = resource.RUSAGE_CHILDREN if workload.children_rss else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_times),
        "q_ops_per_s": done["Q"] / spent["Q"] if spent["Q"] else 0.0,
        "fp_ops_per_s": done["Fp"] / spent["Fp"] if spent["Fp"] else 0.0,
        "op_p50_ms": 1000 * statistics.median(lat),
        # p90: each workload's run has about 100 ops or more, so ten or
        # more lie beyond it, and the rank does not move with the pass count
        "op_tail_ms": 1000 * lat[min(n - 1, int(0.9 * n))],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    info = {"passes": passes, "timed_s": round(sum(spent.values()), 3), "ops": n,
            "q_ops": sum(op.field == "Q" for op, _d, _r in records),
            "setup_runs": [round(t, 4) for t in setup_times]}
    return metrics, records, info


def import_seconds(root, repeats=5):
    """Median wall time of `import quivkit.cli` in a fresh interpreter."""
    import workloads

    code = ("import time; t = time.perf_counter(); import quivkit.cli; "
            "print(time.perf_counter() - t)")
    vals = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=workloads.cli_env(root), capture_output=True,
                              text=True, timeout=60, check=True)
        vals.append(float(proc.stdout))
    return statistics.median(vals)


def per_layer(workload_cls, seed, root):
    """Untraced pass, traced set-up and pass, then the counting pass."""
    import tracer

    wl = workload_cls(seed, root, in_process=True)
    plain = run_pass(_frozen(wl.setup()))
    spans = tracer.SpanTracer()
    spans.install()
    try:
        traced = run_pass(_frozen(wl.setup()))
    finally:
        spans.uninstall()
    counter = tracer.OpCounter()
    counter.install()
    try:
        counted = run_pass(wl.counting_ops(_frozen(wl.setup())))
    finally:
        counter.uninstall()

    untraced_s = sum(dt for _op, dt, _r in plain)
    traced_s = sum(dt for _op, dt, _r in traced)
    metrics = dict(counter.counts)
    for _module, _path, name in tracer.SPANS:
        metrics[f"{name}.calls"] = spans.calls[name]
        metrics[f"{name}.self_s"] = spans.self_s[name]
    gq_calls = spans.calls["gabriel.gq"]
    fresh = spans.edges[("gabriel.gq", "splittings.make_splitting")]
    metrics["gabriel.gq.cache_hit_ratio"] = 1 - fresh / gq_calls if gq_calls else 0.0
    metrics["cli.import_s"] = import_seconds(root)
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    info = {"passes": 1, "ops": len(traced), "counted_ops": len(counted)}
    return metrics, plain + traced + counted, info


def run_all(args, root):
    """Each workload in its own process; prints one table of their metrics."""
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    heads = [f"{m} [{v['unit']}]" for m, v in rows[0][1]["metrics"].items()]
    print("\nworkload        " + "  ".join(f"{h:>19}" for h in heads) + "  failed_frac")
    for name, res in rows:
        vals = "  ".join(f"{v['value']:>19.6g}" for v in res["metrics"].values())
        print(f"{name:<15} {vals}  {res['failed'] / res['attempted']:.4g}")
    print(json.dumps({name: res for name, res in rows}, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    _load_quivkit(root)
    spec = _spec(root)
    import workloads

    if args.record_reference:
        recorded = workloads.record_reference(root)
        print(f"recorded {len(recorded)} reference reports in {workloads.REFERENCE_FILE}")
        return 0
    if args.workload == "all":
        return run_all(args, root)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        wanted = spec["per_layer"]
        metrics, records, info = per_layer(cls, args.seed, root)
    else:
        wanted = spec["end_to_end"]
        metrics, records, info = end_to_end(cls(args.seed, root), args.seconds)

    failures = _failures(records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, reason in failures[:20]:
        print(f"  FAILED {name}: {reason}")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(f"  {'failed_frac':<44} {len(failures) / len(records):>16.6f} "
          f"({len(failures)} of {len(records)} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
