#!/usr/bin/env python3
"""Guard the committed fgpu.stats.v1 baseline (BENCH_table1.json).

Compares a freshly generated stats document against the golden baseline
and exits non-zero on:

  * schema drift — the set of key paths in either document differs
    (fields added, removed, or renamed without bumping the schema tag);
  * coverage drift — a benchmark changed its ok/fail status on either
    device (Table I is the paper's central claim);
  * cycle regression — a passing soft-GPU benchmark got more than
    --max-regression slower than the baseline (default 10%);
  * with --max-cycles=N, a passing soft-GPU benchmark growing by more
    than N absolute cycles fails. --max-cycles=0 is the optimizer gate:
    no benchmark may regress by even one cycle;
  * with --exact-cycles, ANY cycle delta on either device fails. This is
    the gate for host-speed-only changes (decode cache, idle skipping):
    simulator fast paths must not move a single reported cycle.

A per-benchmark soft-GPU cycle table (baseline/current/delta/% plus the
geomean) is always printed, pass or fail, so every CI log doubles as a
perf report.

Cycle *improvements* are reported but never fail (outside --exact-cycles):
refresh the baseline (see README of the CI step) when an intentional perf
change lands.

Host wall-clock (fgpu.host.v1 documents from fgpu-run --host-json) is
compared with --host-baseline/--host-current. Host throughput is NON-GATING
by design — CI machines vary — it prints a wall-time trajectory only.
When both documents carry turbo sections, the turbo dispatch throughput and
turbo-over-vortex speedup trajectory are printed too (equally non-gating).
The same step GATES the deterministic simulator-work counters
(vortex_work and each benchmark's vortex.work: cluster_ticks, core_ticks,
core_ticks_slept, cycles_skipped, capacity_wakes) and the
reference-interpreter counters
(kir_work and each benchmark's kir_work: launches, node_visits, lane_ops,
loads, stores) EXACTLY: they count simulation work, not time, so any delta
is a fast-path behaviour change that demands a BENCH_host.json refresh.
The check runs only when both documents describe the same run (suite
header and idle_skip); otherwise it prints why it was skipped.

Turbo digest gate (--turbo-digests): BASELINE and CURRENT are read as
fgpu.host.v1 documents from an fgpu-run --device=all run (they may be the
same file — the cross-check is between the two devices of one run, not
between two runs). For every benchmark present in both documents, the
CURRENT "turbo" entry must be ok and its output_digest must equal the
BASELINE "vortex" entry's digest bit-for-bit: the binary-translation tier
must retire exactly the architectural state the cycle-exact oracle does.
The gate fails if fewer than --turbo-min benchmarks (default 8) were
compared — a filter typo must not pass silently as "0 of 0 matched" — and
--turbo-full additionally requires the full 28-benchmark Table I set (the
weekly-equivalent sweep). Schema/coverage/cycle gates are skipped in this
mode; they belong to the fgpu.stats.v1 path.

Host-schema gate (--host-fields): CURRENT is read as an fgpu.host.v1
document (BASELINE may be the same file; it is only schema-checked). The
gate asserts the PR-8 reuse instrumentation is actually present and live:
the "reuse" object with its compile_ms/synth_ms wall splits, per-benchmark
setup_ms/build_ms/reused fields on every device entry, and — when the
document was produced with --repeat > 1 under device reuse — a non-zero
kernel_cache hit count and device_reuse_count (a repeat run that recompiles
everything means the cache key or the pool identity broke silently).

Memory-profile documents (fgpu.mem.v1 from fgpu-run --memprof) are GATED
with --mem-baseline/--mem-current (BENCH_mem.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark set must match the baseline exactly;
  * per-kernel, per-level miss-class drift — every (accesses, misses,
    compulsory, capacity, conflict) vector of every cache level (l1d/
    l1i/l2 on the soft GPU, the read-path shadow on HLS) must match the
    baseline EXACTLY. Miss classification is deterministic, so any delta
    is a real behavior change that demands a baseline refresh.

Comparison documents (fgpu.compare.v1 from fgpu-run --compare) are GATED
with --compare-baseline/--compare-current (BENCH_compare.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark set must match the baseline exactly;
  * coverage drift — any benchmark changing its "both/vortex_only/
    hls_only/neither" class fails (the Table I claim again, joined);
  * speedup drift — a both-ok benchmark's HLS-over-vortex speedup ratio
    moving more than --speedup-tolerance (default 5%) in either direction
    fails: the Fig. 6 ratios are the paper's headline numbers, so both
    regressions AND unexplained improvements demand a baseline refresh.

Codegen documents (fgpu.codegen.v1 from fgpu-run --remarks) are GATED
with --codegen-baseline/--codegen-current (BENCH_codegen.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark and kernel sets must match the baseline exactly;
  * per-kernel static compiler metrics — code size, spill slots, SIMT and
    memory instruction counts, dispatch style — must match EXACTLY;
  * the per-pass pipeline (stage list, per-stage remark counts, and every
    before/after IR-size snapshot) must match EXACTLY;
  * remark counts per (pass, action) must match EXACTLY. Compilation is
    deterministic, so any delta is a real compiler-behavior change that
    demands a baseline refresh (and an EXPERIMENTS.md note if cycles moved).

DSE documents (fgpu.dse.v1 from fgpu-run --dse) are GATED with
--dse-baseline/--dse-current (BENCH_dse.json in CI), a standalone mode
like --schema-list:

  * schema-tag and key-path drift, as for the stats document;
  * funnel-count drift — every stage count (candidates, analytical
    evaluated/infeasible/unfit/survivors, screen shapes/failed/survivors,
    exact selected/ok) must match EXACTLY: the analytical pre-filter and
    the turbo screen are deterministic, so any delta is a model or
    pruning change that demands a baseline refresh;
  * Pareto-frontier drift — the frontier membership (config labels) must
    match exactly, as must each evaluated configuration's simulated
    cycles (the document is byte-deterministic by contract);
  * Spearman floor — the rank correlation of the analytical model over
    the evaluated slice must stay >= --spearman-min (default 0.8, the
    ISSUE acceptance floor; the quick grid at --dse-exact=64 sits at
    ~0.89, the full grid at ~0.92).

Schema lint (--schema-list FILE...): standalone mode, no positional
arguments needed. Every listed document must carry a "schema" field whose
value is one of the known exported versions (the OBSERVABILITY.md schema
index). Catches a new exporter shipping an unregistered or typo'd tag.

Usage: check_baseline.py BASELINE CURRENT [--max-regression=0.10]
                         [--max-cycles=N] [--exact-cycles]
                         [--host-baseline=H.json --host-current=H2.json]
                         [--mem-baseline=M.json --mem-current=M2.json]
                         [--compare-baseline=C.json --compare-current=C2.json
                          --speedup-tolerance=0.05]
                         [--codegen-baseline=G.json --codegen-current=G2.json]
       check_baseline.py --dse-baseline=D.json --dse-current=D2.json
                         [--spearman-min=0.8]
       check_baseline.py --schema-list FILE [FILE...]

Stdlib only — runs on a bare CI python3.
"""

import argparse
import json
import math
import sys


def cycle_table(base_benchmarks, cur_benchmarks):
    """Always-printed soft-GPU cycle report: baseline/current/delta/% + geomean."""
    rows = []
    ratios = []
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b = (base_benchmarks[name].get("vortex") or {}).get("total_cycles")
        c = (cur_benchmarks[name].get("vortex") or {}).get("total_cycles")
        if b is None or c is None:
            continue
        pct = (c - b) / b * 100.0 if b > 0 else 0.0
        rows.append((name, b, c, c - b, pct))
        if b > 0 and c > 0:
            ratios.append(c / b)
    if not rows:
        return
    print(f"{'benchmark':<22} {'baseline':>12} {'current':>12} {'delta':>10} {'pct':>9}")
    for name, b, c, d, pct in rows:
        print(f"{name:<22} {b:>12} {c:>12} {d:>+10} {pct:>+8.2f}%")
    geo = math.prod(ratios) ** (1.0 / len(ratios)) if ratios else 1.0
    print(f"{'geomean':<22} {'':>12} {'':>12} {'':>10} {(geo - 1) * 100.0:>+8.2f}%")


def schema_paths(node, prefix=""):
    """The set of key paths in a JSON tree; array elements share a path."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths.update(schema_paths(value, path))
    elif isinstance(node, list):
        for value in node:
            paths.update(schema_paths(value, prefix + "[]"))
    return paths


def by_name(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def device_ok(entry, device):
    run = entry.get(device)
    return None if run is None else bool(run.get("ok"))


def compare_host(host_baseline, host_current):
    """Non-gating host-throughput comparison of two fgpu.host.v1 documents."""
    with open(host_baseline) as f:
        base = json.load(f)
    with open(host_current) as f:
        cur = json.load(f)
    for doc, path in ((base, host_baseline), (cur, host_current)):
        if doc.get("schema") != "fgpu.host.v1":
            print(f"note: host doc {path} has schema {doc.get('schema')!r}, "
                  "expected fgpu.host.v1 — skipping host comparison")
            return
    b_wall = base.get("suite_wall_ms", {}).get("min")
    c_wall = cur.get("suite_wall_ms", {}).get("min")
    if not b_wall or not c_wall:
        print("note: host docs lack suite_wall_ms.min — skipping host comparison")
        return
    speedup = b_wall / c_wall
    print(f"host (non-gating): suite wall {b_wall:.0f} ms -> {c_wall:.0f} ms "
          f"({speedup:.2f}x {'faster' if speedup >= 1 else 'slower'}); "
          f"vortex {cur.get('vortex_mips', 0):.2f} simulated MIPS")
    # Turbo throughput trajectory, present since the turbo tier landed.
    # Equally non-gating: dispatch MIPS and the turbo-over-vortex ratio are
    # machine-dependent; the digest gate (--turbo-digests) is what protects
    # correctness.
    b_dispatch = base.get("turbo_dispatch_mips")
    c_dispatch = cur.get("turbo_dispatch_mips")
    if b_dispatch and c_dispatch:
        print(f"turbo (non-gating): dispatch {b_dispatch:.1f} -> {c_dispatch:.1f} MIPS; "
              f"speedup over cycle path "
              f"{base.get('turbo_speedup_over_vortex', 0):.1f}x -> "
              f"{cur.get('turbo_speedup_over_vortex', 0):.1f}x")


WORK_FIELDS = ("cluster_ticks", "core_ticks", "core_ticks_slept", "cycles_skipped",
               "capacity_wakes")
KIR_WORK_FIELDS = ("launches", "node_visits", "lane_ops", "loads", "stores")


def compare_host_work(host_baseline, host_current):
    """GATING exact comparison of the fgpu.host.v1 work counters.

    Two groups: the cycle-exact simulator's vortex_work (per benchmark under
    vortex.work) and the reference interpreter's kir_work (per benchmark
    under kir_work; its reference_ms is wall time and not compared).
    Returns failures. Skipped (with a note) when the two documents describe
    different runs: another suite header (config, opt level, filter, seed)
    or idle-skip mode. A group the baseline predates is skipped with a note.
    """
    with open(host_baseline) as f:
        base = json.load(f)
    with open(host_current) as f:
        cur = json.load(f)
    if base.get("schema") != "fgpu.host.v1" or cur.get("schema") != "fgpu.host.v1":
        return []
    for key in ("suite", "idle_skip"):
        if base.get(key) != cur.get(key):
            print(f"note: host docs differ in {key!r} — skipping the host-work gate")
            return []
    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    same_set = set(base_benchmarks) == set(cur_benchmarks)
    failures = []

    def gate(total_key, fields, per_benchmark):
        """Compares one counter group; returns the benchmarks compared."""
        if total_key not in base:
            print(f"note: {host_baseline} has no {total_key} counters — skipping that "
                  "part of the host-work gate (regenerate it with fgpu-run --host-json)")
            return None
        if total_key not in cur:
            failures.append(f"host-work: {total_key} missing from {host_current}")
            return None
        compared = 0
        for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
            b = per_benchmark(base_benchmarks[name])
            c = per_benchmark(cur_benchmarks[name])
            if b is None:
                continue
            if c is None:
                failures.append(f"host-work: {name}: {total_key} missing from the current run")
                continue
            compared += 1
            for field in fields:
                if b.get(field) != c.get(field):
                    failures.append(f"host-work: {name}: {field} {b.get(field)} -> {c.get(field)}")
        if same_set:
            for field in fields:
                b, c = base[total_key].get(field), cur[total_key].get(field)
                if b != c:
                    failures.append(f"host-work: suite {field} {b} -> {c}")
        return compared

    before = len(failures)
    vortex_compared = gate("vortex_work", WORK_FIELDS,
                           lambda bench: (bench.get("vortex") or {}).get("work"))
    if vortex_compared is not None and len(failures) == before:
        total = cur["vortex_work"]
        print(f"host-work: {vortex_compared} benchmarks match exactly; suite "
              f"{total.get('core_ticks')} core ticks ({total.get('core_ticks_slept')} slept), "
              f"{total.get('cluster_ticks')} cluster ticks, "
              f"{total.get('cycles_skipped')} cycles skipped, "
              f"{total.get('capacity_wakes')} capacity wakes")
    before = len(failures)
    kir_compared = gate("kir_work", KIR_WORK_FIELDS, lambda bench: bench.get("kir_work"))
    if kir_compared is not None and len(failures) == before:
        total = cur["kir_work"]
        print(f"kir-work: {kir_compared} benchmarks match exactly; suite "
              f"{total.get('launches')} launches, {total.get('node_visits')} node visits, "
              f"{total.get('lane_ops')} lane ops, {total.get('loads')} loads, "
              f"{total.get('stores')} stores")
    return failures


def check_turbo_digests(base, cur, minimum, full):
    """GATING turbo-vs-vortex digest cross-check. Returns failures."""
    failures = []
    for doc, which in ((base, "baseline"), (cur, "current")):
        if doc.get("schema") != "fgpu.host.v1":
            failures.append(f"--turbo-digests: {which} doc has schema "
                            f"{doc.get('schema')!r}, expected fgpu.host.v1")
    if failures:
        return failures

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    compared = 0
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        vortex = base_benchmarks[name].get("vortex")
        turbo = cur_benchmarks[name].get("turbo")
        if vortex is None or turbo is None:
            continue
        if not vortex.get("ok"):
            # The oracle itself failed — nothing to cross-check against.
            failures.append(f"turbo-digests: {name}: cycle-exact reference run not ok")
            continue
        compared += 1
        if not turbo.get("ok"):
            failures.append(f"turbo-digests: {name}: turbo run failed")
            continue
        want = vortex.get("output_digest")
        got = turbo.get("output_digest")
        if want != got:
            failures.append(f"turbo-digests: {name}: digest mismatch "
                            f"(vortex {want}, turbo {got})")
    if compared < minimum:
        failures.append(f"turbo-digests: only {compared} benchmark(s) cross-checked, "
                        f"need >= {minimum} (--turbo-min)")
    if full and compared < 28:
        failures.append(f"turbo-digests: --turbo-full requires the whole 28-benchmark "
                        f"Table I set, got {compared}")
    if not failures:
        print(f"turbo-digests: {compared} benchmarks, every turbo output_digest "
              f"matches the cycle-exact oracle")
    return failures


def check_host_fields(base, cur):
    """GATING fgpu.host.v1 reuse-instrumentation check. Returns failures."""
    failures = []
    for doc, which in ((base, "baseline"), (cur, "current")):
        if doc.get("schema") != "fgpu.host.v1":
            failures.append(f"--host-fields: {which} doc has schema "
                            f"{doc.get('schema')!r}, expected fgpu.host.v1")
    if failures:
        return failures

    reuse = cur.get("reuse")
    if not isinstance(reuse, dict):
        failures.append("host-fields: 'reuse' object missing")
        return failures
    for field in ("device_reuse_count", "kernel_cache_hits", "kernel_cache_misses",
                  "hls_cache_hits", "hls_cache_misses", "workload_cache_hits",
                  "workload_cache_misses", "reference_cache_hits",
                  "reference_cache_misses", "compile_ms", "synth_ms"):
        if field not in reuse:
            failures.append(f"host-fields: reuse.{field} missing")
    if "reuse_devices" not in cur:
        failures.append("host-fields: 'reuse_devices' missing")
    if not isinstance(cur.get("repeats"), int):
        failures.append("host-fields: 'repeats' missing")

    checked = 0
    for bench in cur.get("benchmarks", []):
        for device in ("vortex", "turbo", "hls"):
            entry = bench.get(device)
            if entry is None:
                continue
            checked += 1
            for field in ("setup_ms", "build_ms", "reused"):
                if field not in entry:
                    failures.append(
                        f"host-fields: {bench.get('name')}/{device}.{field} missing")
    if checked == 0:
        failures.append("host-fields: no per-benchmark device entries to check")

    # Liveness: a multi-repeat pooled run that compiled everything from
    # scratch again means the cache key or pool identity regressed.
    if cur.get("reuse_devices") and cur.get("repeats", 0) > 1 and not failures:
        if reuse.get("kernel_cache_hits", 0) <= 0:
            failures.append("host-fields: repeat run recorded zero kernel_cache_hits "
                            "(cache key broken?)")
        if reuse.get("device_reuse_count", 0) <= 0:
            failures.append("host-fields: repeat run recorded zero device_reuse_count "
                            "(pool identity broken?)")

    if not failures:
        hits = reuse.get("kernel_cache_hits", 0)
        misses = reuse.get("kernel_cache_misses", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        print(f"host-fields: reuse instrumentation present on {checked} device entries; "
              f"kernel cache {hits}/{total} hits ({rate:.0%}), "
              f"{reuse.get('device_reuse_count', 0)} device reuses, "
              f"compile {reuse.get('compile_ms', 0.0):.1f} ms / "
              f"synth {reuse.get('synth_ms', 0.0):.1f} ms")
    return failures


def compare_compare(compare_baseline, compare_current, tolerance):
    """GATING comparison of two fgpu.compare.v1 documents. Returns failures."""
    failures = []
    with open(compare_baseline) as f:
        base = json.load(f)
    with open(compare_current) as f:
        cur = json.load(f)

    for doc, path in ((base, compare_baseline), (cur, compare_current)):
        if doc.get("schema") != "fgpu.compare.v1":
            failures.append(f"compare doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.compare.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"compare schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"compare schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_compare.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"compare: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"compare: {name} ran but has no baseline entry")

    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b, c = base_benchmarks[name], cur_benchmarks[name]
        if b.get("coverage") != c.get("coverage"):
            failures.append(
                f"compare: {name} coverage changed {b.get('coverage')!r} -> "
                f"{c.get('coverage')!r} "
                f"(hls fail_reason: {(c.get('hls') or {}).get('fail_reason', '?')!r})")
            continue
        b_speedup = b.get("speedup_hls_over_vortex", 0.0)
        c_speedup = c.get("speedup_hls_over_vortex", 0.0)
        if b_speedup > 0.0 and c_speedup > 0.0:
            drift = abs(c_speedup - b_speedup) / b_speedup
            if drift > tolerance:
                failures.append(
                    f"compare: {name} speedup drift {b_speedup:.4f}x -> {c_speedup:.4f}x "
                    f"({drift:.1%} > {tolerance:.0%} tolerance)")
        elif (b_speedup > 0.0) != (c_speedup > 0.0):
            failures.append(
                f"compare: {name} speedup appeared/vanished "
                f"({b_speedup:.4f}x -> {c_speedup:.4f}x)")

    b_geo = base.get("summary", {}).get("geomean_speedup_hls_over_vortex", 0.0)
    c_geo = cur.get("summary", {}).get("geomean_speedup_hls_over_vortex", 0.0)
    if not failures and b_geo > 0.0 and c_geo > 0.0:
        print(f"compare: geomean HLS-over-vortex speedup {b_geo:.3f}x -> {c_geo:.3f}x; "
              f"{len(base_benchmarks)} benchmarks within {tolerance:.0%}")
    return failures


# Every schema version an fgpu tool exports (the OBSERVABILITY.md index).
# A new exporter must register here AND in the index table, or the
# --schema-list CI lint fails.
KNOWN_SCHEMAS = (
    "fgpu.stats.v1",
    "fgpu.profile.v1",
    "fgpu.hlsprof.v1",
    "fgpu.mem.v1",
    "fgpu.host.v1",
    "fgpu.compare.v1",
    "fgpu.codegen.v1",
    "fgpu.dse.v1",
    "fgpu.fig7.v1",
)


def compare_dse(dse_baseline, dse_current, spearman_min):
    """GATING comparison of two fgpu.dse.v1 documents. Returns failures."""
    failures = []
    with open(dse_baseline) as f:
        base = json.load(f)
    with open(dse_current) as f:
        cur = json.load(f)

    for doc, path in ((base, dse_baseline), (cur, dse_current)):
        if doc.get("schema") != "fgpu.dse.v1":
            failures.append(f"dse doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.dse.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"dse schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"dse schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_dse.json and bump the schema tag if breaking)")

    for field in ("grid", "benchmarks", "opt_level", "exact_budget"):
        if base.get(field) != cur.get(field):
            failures.append(f"dse: sweep parameter {field!r} changed "
                            f"{base.get(field)!r} -> {cur.get(field)!r} "
                            "(baseline and run must use the same grid settings)")

    # Funnel counts: the analytical pre-filter and turbo screen are
    # deterministic, so every stage count must match exactly.
    def flat_counts(doc):
        counts = {}
        funnel = doc.get("funnel", {})
        for key, value in funnel.items():
            if isinstance(value, dict):
                for sub, n in value.items():
                    counts[f"{key}.{sub}"] = n
            else:
                counts[key] = value
        return counts

    base_counts = flat_counts(base)
    cur_counts = flat_counts(cur)
    for key in sorted(set(base_counts) | set(cur_counts)):
        want, got = base_counts.get(key), cur_counts.get(key)
        if want != got:
            failures.append(f"dse: funnel count drift at {key}: {want} -> {got}")

    # Pareto membership is part of the paper-facing result: any change is a
    # real ranking change that demands a refresh (and an EXPERIMENTS.md note).
    base_pareto = list(base.get("pareto", []))
    cur_pareto = list(cur.get("pareto", []))
    for label in sorted(set(base_pareto) - set(cur_pareto)):
        failures.append(f"dse: config {label!r} left the Pareto frontier")
    for label in sorted(set(cur_pareto) - set(base_pareto)):
        failures.append(f"dse: config {label!r} joined the Pareto frontier "
                        "(not in the baseline)")

    # The evaluated slice is byte-deterministic by contract: exact-match the
    # simulated cycles per configuration.
    base_eval = {e.get("config"): e for e in base.get("evaluated", [])}
    cur_eval = {e.get("config"): e for e in cur.get("evaluated", [])}
    for label in sorted(set(base_eval) - set(cur_eval)):
        failures.append(f"dse: evaluated config {label!r} missing from the run")
    for label in sorted(set(cur_eval) - set(base_eval)):
        failures.append(f"dse: evaluated config {label!r} not in the baseline "
                        "(selection drift)")
    for label in sorted(set(base_eval) & set(cur_eval)):
        b, c = base_eval[label], cur_eval[label]
        if b.get("simulated_cycles") != c.get("simulated_cycles"):
            failures.append(
                f"dse: {label}: simulated cycles drift "
                f"{b.get('simulated_cycles')} -> {c.get('simulated_cycles')}")
        if b.get("ok") != c.get("ok"):
            failures.append(f"dse: {label}: ok changed {b.get('ok')} -> {c.get('ok')}")

    spearman = cur.get("spearman")
    if not isinstance(spearman, (int, float)):
        failures.append("dse: 'spearman' missing from the current document")
    elif spearman < spearman_min:
        failures.append(f"dse: Spearman {spearman:.4f} below the floor "
                        f"{spearman_min} (--spearman-min): the analytical "
                        "pre-filter no longer ranks the evaluated slice")

    if not failures:
        funnel = cur.get("funnel", {})
        print(f"dse: {funnel.get('candidates')} candidates -> "
              f"{funnel.get('analytical', {}).get('survivors')} analytical -> "
              f"{funnel.get('screen', {}).get('survivors')} screened -> "
              f"{funnel.get('exact', {}).get('ok')} cycle-exact; "
              f"Spearman {spearman:.4f} >= {spearman_min}, "
              f"{len(cur_pareto)} Pareto members match the baseline")
    return failures


def check_schema_list(paths):
    """Lint: every document's schema tag is a registered version. Returns failures."""
    failures = []
    checked = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"schema-list: {path}: unreadable ({e})")
            continue
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if tag is None:
            failures.append(f"schema-list: {path}: no 'schema' field")
        elif tag not in KNOWN_SCHEMAS:
            failures.append(f"schema-list: {path}: unknown schema {tag!r} "
                            f"(known: {', '.join(KNOWN_SCHEMAS)})")
        else:
            checked += 1
    if not failures:
        print(f"schema-list: {checked} document(s), every schema tag is registered")
    return failures


def codegen_kernel_signatures(bench):
    """Per-kernel static-metric / pipeline / remark-count signature."""
    sig = {}
    for kernel in bench.get("kernels", []):
        remark_counts = {}
        for r in kernel.get("remarks", []):
            key = (r.get("pass"), r.get("action"))
            remark_counts[key] = remark_counts.get(key, 0) + 1
        sig[kernel.get("kernel")] = {
            "static": {
                "opt_level": kernel.get("opt_level"),
                "barrier_dispatch": kernel.get("barrier_dispatch"),
                "code_words": kernel.get("code_words"),
                "spill_slots": kernel.get("spill_slots"),
                "simt_instructions": kernel.get("simt_instructions"),
                "mem_instructions": kernel.get("mem_instructions"),
            },
            # The whole pipeline shape: stage order, per-stage remark counts,
            # and every before/after IR-size snapshot.
            "passes": [(p.get("pass"), p.get("remarks"),
                        tuple(sorted(p.get("before", {}).items())),
                        tuple(sorted(p.get("after", {}).items())))
                       for p in kernel.get("passes", [])],
            "remarks": remark_counts,
        }
    return sig


def compare_codegen(codegen_baseline, codegen_current):
    """GATING comparison of two fgpu.codegen.v1 documents. Returns failures."""
    failures = []
    with open(codegen_baseline) as f:
        base = json.load(f)
    with open(codegen_current) as f:
        cur = json.load(f)

    for doc, path in ((base, codegen_baseline), (cur, codegen_current)):
        if doc.get("schema") != "fgpu.codegen.v1":
            failures.append(f"codegen doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.codegen.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"codegen schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"codegen schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_codegen.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"codegen: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"codegen: {name} ran but has no baseline entry")

    kernels = 0
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        sig_b = codegen_kernel_signatures(base_benchmarks[name])
        sig_c = codegen_kernel_signatures(cur_benchmarks[name])
        for kernel in sorted(set(sig_b) - set(sig_c)):
            failures.append(f"codegen: {name}/{kernel}: kernel vanished")
        for kernel in sorted(set(sig_c) - set(sig_b)):
            failures.append(f"codegen: {name}/{kernel}: new kernel not in baseline")
        for kernel in sorted(set(sig_b) & set(sig_c)):
            kernels += 1
            b, c = sig_b[kernel], sig_c[kernel]
            for field in b["static"]:
                if b["static"][field] != c["static"][field]:
                    failures.append(
                        f"codegen: {name}/{kernel}: {field} drift "
                        f"{b['static'][field]} -> {c['static'][field]}")
            if b["passes"] != c["passes"]:
                # Name the first diverging stage for a readable failure.
                detail = "pipeline shape changed"
                for sb, sc in zip(b["passes"], c["passes"]):
                    if sb != sc:
                        detail = (f"stage {sb[0]!r}: (remarks, before, after) "
                                  f"{sb[1:]} -> {sc[1:]}")
                        break
                else:
                    detail = (f"stage list changed "
                              f"{[p[0] for p in b['passes']]} -> "
                              f"{[p[0] for p in c['passes']]}")
                failures.append(f"codegen: {name}/{kernel}: {detail}")
            for key in sorted(set(b["remarks"]) | set(c["remarks"])):
                want = b["remarks"].get(key, 0)
                got = c["remarks"].get(key, 0)
                if want != got:
                    failures.append(
                        f"codegen: {name}/{kernel}: remark count drift for "
                        f"{key[0]}/{key[1]}: {want} -> {got}")
    if not failures:
        print(f"codegen: {len(base_benchmarks)} benchmarks / {kernels} kernels, every "
              f"static metric, pipeline stage, and remark count matches the baseline")
    return failures


def mem_kernel_signature(bench):
    """Per-(device, kernel) map of per-level miss-class vectors."""
    sig = {}
    for device in ("vortex", "hls"):
        dev = bench.get(device)
        if dev is None:
            continue
        for kernel in dev.get("kernels", []):
            levels = {}
            for level in ("l1d", "l1i", "l2", "readpath"):
                p = kernel.get(level)
                if p is None:
                    continue
                mc = p.get("miss_classes", {})
                levels[level] = (p.get("accesses"), p.get("misses"),
                                 mc.get("compulsory"), mc.get("capacity"),
                                 mc.get("conflict"))
            sig[(device, kernel.get("kernel"))] = levels
    return sig


def compare_mem(mem_baseline, mem_current):
    """GATING comparison of two fgpu.mem.v1 documents. Returns failures."""
    failures = []
    with open(mem_baseline) as f:
        base = json.load(f)
    with open(mem_current) as f:
        cur = json.load(f)

    for doc, path in ((base, mem_baseline), (cur, mem_current)):
        if doc.get("schema") != "fgpu.mem.v1":
            failures.append(f"mem doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.mem.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"mem schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"mem schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_mem.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"mem: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"mem: {name} ran but has no baseline entry")

    kernels = 0
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        sig_b = mem_kernel_signature(base_benchmarks[name])
        sig_c = mem_kernel_signature(cur_benchmarks[name])
        for key in sorted(set(sig_b) - set(sig_c)):
            failures.append(f"mem: {name}/{key[0]}/{key[1]}: kernel vanished")
        for key in sorted(set(sig_c) - set(sig_b)):
            failures.append(f"mem: {name}/{key[0]}/{key[1]}: new kernel not in baseline")
        for key in sorted(set(sig_b) & set(sig_c)):
            kernels += 1
            for level in sorted(set(sig_b[key]) | set(sig_c[key])):
                want = sig_b[key].get(level)
                got = sig_c[key].get(level)
                if want != got:
                    failures.append(
                        f"mem: {name}/{key[0]}/{key[1]}/{level}: miss-class drift "
                        f"(accesses, misses, compulsory, capacity, conflict) "
                        f"{want} -> {got}")
    if not failures:
        print(f"mem: {len(base_benchmarks)} benchmarks / {kernels} kernels, every "
              f"per-level miss-class vector matches the baseline")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?",
                        help="golden stats document (unused with --schema-list)")
    parser.add_argument("current", nargs="?",
                        help="freshly generated stats document")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="allowed fractional cycle growth (default 0.10)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="allowed absolute per-benchmark cycle growth; "
                             "0 fails on any regression (optimizer gate)")
    parser.add_argument("--exact-cycles", action="store_true",
                        help="fail on ANY cycle delta (gate for host-speed-only changes)")
    parser.add_argument("--host-baseline",
                        help="fgpu.host.v1 baseline (wall time non-gating; "
                             "simulator-work counters GATED exactly)")
    parser.add_argument("--host-current", help="fgpu.host.v1 current run")
    parser.add_argument("--mem-baseline",
                        help="fgpu.mem.v1 baseline (GATING, e.g. BENCH_mem.json)")
    parser.add_argument("--mem-current", help="fgpu.mem.v1 current run (GATING)")
    parser.add_argument("--compare-baseline",
                        help="fgpu.compare.v1 baseline (GATING, e.g. BENCH_compare.json)")
    parser.add_argument("--compare-current", help="fgpu.compare.v1 current run (GATING)")
    parser.add_argument("--codegen-baseline",
                        help="fgpu.codegen.v1 baseline (GATING, e.g. BENCH_codegen.json)")
    parser.add_argument("--codegen-current", help="fgpu.codegen.v1 current run (GATING)")
    parser.add_argument("--dse-baseline",
                        help="fgpu.dse.v1 baseline (GATING, standalone; "
                             "e.g. BENCH_dse.json)")
    parser.add_argument("--dse-current", help="fgpu.dse.v1 current run (GATING)")
    parser.add_argument("--spearman-min", type=float, default=0.8,
                        help="minimum Spearman rank correlation the DSE gate "
                             "accepts over the evaluated slice (default 0.8)")
    parser.add_argument("--schema-list", nargs="+", metavar="FILE",
                        help="standalone lint: every listed document's 'schema' "
                             "field must be a registered version")
    parser.add_argument("--speedup-tolerance", type=float, default=0.05,
                        help="allowed fractional speedup-ratio drift, either "
                             "direction (default 0.05)")
    parser.add_argument("--turbo-digests", action="store_true",
                        help="GATE turbo output_digest equality against the "
                             "cycle-exact entries (BASELINE/CURRENT are "
                             "fgpu.host.v1 docs; may be the same file)")
    parser.add_argument("--turbo-min", type=int, default=8,
                        help="minimum benchmarks the --turbo-digests gate must "
                             "cross-check (default 8, the sampled-CI floor)")
    parser.add_argument("--turbo-full", action="store_true",
                        help="--turbo-digests must cover all 28 Table I "
                             "benchmarks (the full-sweep gate)")
    parser.add_argument("--host-fields", action="store_true",
                        help="GATE the fgpu.host.v1 reuse instrumentation "
                             "(BASELINE/CURRENT are host docs; may be the "
                             "same file). Repeat runs must show cache hits "
                             "and device reuse")
    args = parser.parse_args()

    if args.schema_list:
        failures = check_schema_list(args.schema_list)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in --schema-list:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    if args.dse_baseline or args.dse_current:
        if not (args.dse_baseline and args.dse_current):
            parser.error("--dse-baseline and --dse-current must be given together")
        failures = compare_dse(args.dse_baseline, args.dse_current, args.spearman_min)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in the DSE gate:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT are required (except with --schema-list)")

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if args.turbo_digests:
        failures = check_turbo_digests(base, cur, args.turbo_min, args.turbo_full)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in --turbo-digests:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    if args.host_fields:
        failures = check_host_fields(base, cur)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in --host-fields:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    failures = []

    if base.get("schema") != cur.get("schema"):
        failures.append(
            f"schema tag drift: baseline {base.get('schema')!r} vs current {cur.get('schema')!r}")

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"schema drift: field '{path}' vanished from the current stats")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_table1.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    cycle_table(base_benchmarks, cur_benchmarks)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"{name}: present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"{name}: ran but has no baseline entry")

    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b, c = base_benchmarks[name], cur_benchmarks[name]
        for device in ("vortex", "hls"):
            was, now = device_ok(b, device), device_ok(c, device)
            if was != now:
                failures.append(f"{name}/{device}: ok changed {was} -> {now} "
                                f"(fail_reason: {(c.get(device) or {}).get('fail_reason', '?')!r})")
        if args.exact_cycles:
            for device in ("vortex", "hls"):
                base_cycles = (b.get(device) or {}).get("total_cycles")
                cur_cycles = (c.get(device) or {}).get("total_cycles")
                if base_cycles != cur_cycles:
                    failures.append(
                        f"{name}/{device}: cycle drift under --exact-cycles "
                        f"{base_cycles} -> {cur_cycles}")
        if device_ok(b, "vortex") and device_ok(c, "vortex"):
            base_cycles = b["vortex"]["total_cycles"]
            cur_cycles = c["vortex"]["total_cycles"]
            if args.max_cycles is not None and cur_cycles > base_cycles + args.max_cycles:
                failures.append(
                    f"{name}/vortex: cycles grew {base_cycles} -> {cur_cycles} "
                    f"(+{cur_cycles - base_cycles} > --max-cycles={args.max_cycles})")
            if base_cycles > 0:
                delta = (cur_cycles - base_cycles) / base_cycles
                if delta > args.max_regression:
                    failures.append(
                        f"{name}/vortex: cycle regression {base_cycles} -> {cur_cycles} "
                        f"(+{delta:.1%} > {args.max_regression:.0%})")
                elif delta != 0 and not args.exact_cycles:
                    print(f"note: {name}/vortex cycles {base_cycles} -> {cur_cycles} "
                          f"({delta:+.1%}, within budget)")

    if args.host_baseline and args.host_current:
        compare_host(args.host_baseline, args.host_current)
        failures.extend(compare_host_work(args.host_baseline, args.host_current))

    if args.mem_baseline and args.mem_current:
        failures.extend(compare_mem(args.mem_baseline, args.mem_current))

    if args.compare_baseline and args.compare_current:
        failures.extend(compare_compare(args.compare_baseline, args.compare_current,
                                        args.speedup_tolerance))

    if args.codegen_baseline and args.codegen_current:
        failures.extend(compare_codegen(args.codegen_baseline, args.codegen_current))

    if failures:
        print(f"check_baseline: {len(failures)} failure(s) vs {args.baseline}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"check_baseline: {len(base_benchmarks)} benchmarks match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
