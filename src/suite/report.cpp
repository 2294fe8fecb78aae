#include "suite/report.hpp"

#include <cstdio>
#include <string_view>

#include "arch/isa.hpp"

namespace fgpu::suite {

void write_json(trace::JsonWriter& w, const vortex::HostWork& work) {
  w.begin_object();
  w.field("cluster_ticks", work.cluster_ticks);
  w.field("core_ticks", work.core_ticks);
  w.field("core_ticks_slept", work.core_ticks_slept);
  w.field("cycles_skipped", work.cycles_skipped);
  w.end_object();
}

void write_json(trace::JsonWriter& w, const kir::InterpWork& work, double reference_ms) {
  w.begin_object();
  w.field("launches", work.launches);
  w.field("node_visits", work.node_visits);
  w.field("lane_ops", work.lane_ops);
  w.field("loads", work.loads);
  w.field("stores", work.stores);
  w.field("reference_ms", reference_ms);
  w.end_object();
}

void write_json(trace::JsonWriter& w, const vortex::PerfCounters& perf) {
  w.begin_object();
  w.field("cycles", perf.cycles);
  w.field("instrs", perf.instrs);
  w.field("ipc", perf.ipc());
  w.key("stalls").begin_object();
  w.field("scoreboard", perf.stall_scoreboard);
  w.field("lsu", perf.stall_lsu);
  w.field("fu", perf.stall_fu);
  w.field("ibuffer", perf.stall_ibuffer);
  w.field("barrier", perf.stall_barrier);
  w.field("idle", perf.idle_cycles);
  w.end_object();
  w.key("events").begin_object();
  w.field("loads", perf.loads);
  w.field("stores", perf.stores);
  w.field("atomics", perf.atomics);
  w.field("branches", perf.branches);
  w.field("divergent_branches", perf.divergent_branches);
  w.field("joins", perf.joins);
  w.field("barriers", perf.barriers);
  w.field("warps_spawned", perf.warps_spawned);
  w.end_object();
  w.end_object();
}

void write_json(trace::JsonWriter& w, const mem::MemStats& stats) {
  w.begin_object();
  w.field("reads", stats.reads);
  w.field("writes", stats.writes);
  w.field("hits", stats.hits);
  w.field("misses", stats.misses);
  w.field("evictions", stats.evictions);
  w.field("writebacks", stats.writebacks);
  w.field("mshr_merges", stats.mshr_merges);
  w.field("stall_rejects", stats.stall_rejects);
  w.field("hit_rate", stats.hit_rate());
  w.end_object();
}

void write_json(trace::JsonWriter& w, const fpga::AreaReport& area) {
  w.begin_object();
  w.field("aluts", area.aluts);
  w.field("ffs", area.ffs);
  w.field("brams", area.brams);
  w.field("dsps", area.dsps);
  w.end_object();
}

void write_json(trace::JsonWriter& w, const vortex::ClusterStats& stats) {
  w.begin_object();
  w.key("perf");
  write_json(w, stats.perf);
  w.key("l1d");
  write_json(w, stats.l1d);
  w.key("l1i");
  write_json(w, stats.l1i);
  w.key("l2");
  write_json(w, stats.l2);
  w.key("dram");
  write_json(w, stats.dram);
  w.field("dram_bytes", stats.dram_bytes);
  w.end_object();
}

void write_json(trace::JsonWriter& w, const vcl::LaunchStats& stats, DeviceKind kind) {
  w.begin_object();
  w.field("device_cycles", stats.device_cycles);
  w.field("clock_mhz", stats.clock_mhz);
  w.field("time_ms", stats.time_ms());
  w.field("dram_bytes", stats.dram_bytes);
  if (kind == DeviceKind::kVortex) {
    w.key("perf");
    write_json(w, stats.perf);
    w.key("mem").begin_object();
    w.key("l1d");
    write_json(w, stats.l1d);
    w.key("l2");
    write_json(w, stats.l2);
    w.key("dram");
    write_json(w, stats.dram);
    w.end_object();
  } else if (kind == DeviceKind::kTurbo) {
    // Functional tier: instruction count only. Deliberately no "perf"
    // stall buckets and no cache stats — turbo makes no timing claims
    // (DESIGN.md "Execution tiers").
    w.key("turbo").begin_object();
    w.field("instrs", stats.perf.instrs);
    w.end_object();
  } else {
    w.key("hls").begin_object();
    w.field("pipeline_depth", stats.pipeline_depth);
    w.field("initiation_interval", stats.initiation_interval);
    w.field("memory_stall_cycles", stats.memory_stall_cycles);
    w.end_object();
  }
  w.end_object();
}

void write_json(trace::JsonWriter& w, const KernelProfile& profile) {
  w.begin_object();
  w.field("kernel", profile.kernel);
  w.field("launches", profile.launches);
  w.key("perf");
  write_json(w, profile.perf);
  // Per-PC attribution table, ascending PC (by_pc is ordered). For each
  // bucket, the "stalls" sub-objects sum to perf.stalls exactly.
  w.key("pcs").begin_array();
  for (const auto& [pc, stat] : profile.profile.by_pc) {
    w.begin_object();
    w.field("pc", pc);
    const size_t index = (pc - profile.binary.base) / 4;
    std::string text = "<unknown>";
    if (index < profile.binary.words.size()) {
      const auto instr = arch::decode(profile.binary.words[index]);
      text = instr ? arch::to_string(*instr) : "<invalid>";
    }
    w.field("instr", text);
    w.field("source", profile.source_map.source_for(index));
    w.field("issued", stat.issued);
    w.field("issue_rate", stat.issue_rate());
    w.key("stalls").begin_object();
    w.field("scoreboard", stat.stall_scoreboard);
    w.field("lsu", stat.stall_lsu);
    w.field("fu", stat.stall_fu);
    w.field("ibuffer", stat.stall_ibuffer);
    w.field("barrier", stat.stall_barrier);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  // Warp-occupancy timeline: per-sample warp-slot counts summed over cores
  // (and over this kernel's launches).
  w.field("occupancy_interval", profile.profile.occupancy_interval);
  w.key("occupancy").begin_array();
  for (const auto& sample : profile.profile.occupancy) {
    w.begin_object();
    w.field("cycle", sample.cycle);
    w.field("ready", sample.ready);
    w.field("blocked", sample.blocked);
    w.field("idle", sample.idle);
    w.end_object();
  }
  w.end_array();
  // Sparse per-set eviction histograms (sets with zero conflicts omitted).
  const auto conflicts = [&w](const char* name, const std::vector<uint64_t>& sets) {
    w.key(name).begin_array();
    for (size_t set = 0; set < sets.size(); ++set) {
      if (sets[set] == 0) continue;
      w.begin_object();
      w.field("set", static_cast<uint64_t>(set));
      w.field("evictions", sets[set]);
      w.end_object();
    }
    w.end_array();
  };
  w.key("cache_conflicts").begin_object();
  conflicts("l1d", profile.profile.l1d_set_conflicts);
  conflicts("l2", profile.profile.l2_set_conflicts);
  w.end_object();
  w.end_object();
}

void write_json(trace::JsonWriter& w, const hls::SynthReport& synth) {
  w.begin_object();
  w.field("kernel", synth.kernel);
  w.field("board", synth.board);
  w.field("fits", synth.fits);
  w.field("verdict", synth.verdict);
  w.field("utilization", synth.utilization);
  w.field("bottleneck", synth.bottleneck);
  w.field("pipeline_depth", synth.pipeline_depth);
  w.field("synthesis_hours", synth.synthesis_hours);
  w.key("sites").begin_object();
  w.field("burst_load", synth.burst_load_sites);
  w.field("pipelined_load", synth.pipelined_load_sites);
  w.field("store", synth.store_sites);
  w.end_object();
  w.key("total");
  write_json(w, synth.total);
  // Per-module breakdown in synthesis order; module areas sum to "total"
  // exactly (the Table II-IV rows).
  w.key("modules").begin_array();
  for (const auto& row : synth.rows) {
    w.begin_object();
    w.field("module", row.module);
    w.field("detail", row.detail);
    w.key("area");
    write_json(w, row.area);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_json(trace::JsonWriter& w, const HlsKernelProfile& profile) {
  w.begin_object();
  w.field("kernel", profile.kernel);
  w.field("launches", profile.launches);
  w.field("device_cycles", profile.device_cycles);
  w.field("memory_stall_cycles", profile.memory_stall_cycles);
  w.key("synth");
  write_json(w, profile.synth);
  // Per-site attribution table in access-site order. "stall_cycles" over
  // the sites sums to memory_stall_cycles exactly; "occupancy_share" is the
  // site's fraction of the II-driving memory-interface occupancy.
  double occupancy_total = 0.0;
  for (const auto& site : profile.sites) occupancy_total += site.occupancy_cycles;
  w.key("sites").begin_array();
  for (const auto& site : profile.sites) {
    w.begin_object();
    w.field("site", site.site);
    w.field("buffer", site.buffer);
    w.field("source", site.source);
    w.field("lsu", site.lsu);
    w.field("pattern", site.pattern);
    w.field("in_loop", site.in_loop);
    w.field("requests", site.requests);
    w.field("bytes", site.bytes);
    w.field("occupancy_cycles", site.occupancy_cycles);
    w.field("occupancy_share",
            occupancy_total > 0.0 ? site.occupancy_cycles / occupancy_total : 0.0);
    w.field("stall_cycles", site.stall_cycles);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_json(trace::JsonWriter& w, const mem::CacheMemProfile& profile) {
  w.begin_object();
  // Geometry of the shadow fully-associative LRU stack that classifies
  // misses: conflict = would hit in a same-capacity FA cache, capacity =
  // would miss there too, compulsory = first touch of the line.
  w.field("shadow_lines", profile.shadow_lines);
  w.field("accesses", profile.accesses);
  w.field("misses", profile.misses);
  // Exact-sum contract: compulsory + capacity + conflict == misses
  // (asserted by tests/test_memprof.cpp).
  w.key("miss_classes").begin_object();
  w.field("compulsory", profile.classes.compulsory);
  w.field("capacity", profile.classes.capacity);
  w.field("conflict", profile.classes.conflict);
  w.end_object();
  // Reuse-distance histogram over line-granular stack distances, log2
  // buckets: bucket 0 holds distance 0, bucket b holds [2^(b-1), 2^b).
  // "cold" counts first-touch accesses (no finite distance); cold + the
  // bucket counts == accesses exactly. Sparse: zero buckets omitted.
  w.field("cold", profile.cold);
  w.key("reuse").begin_array();
  for (uint32_t b = 0; b < mem::kReuseBuckets; ++b) {
    if (profile.reuse[b] == 0) continue;
    w.begin_object();
    w.field("bucket", b);
    w.field("count", profile.reuse[b]);
    w.end_object();
  }
  w.end_array();
  // Time-weighted MSHR occupancy: cycles spent with exactly N MSHRs in
  // flight. Sparse; empty for shadow-only (HLS read-path) profiles, which
  // have no timed MSHR file.
  w.key("mshr_occupancy").begin_array();
  for (size_t n = 0; n < profile.mshr_cycles.size(); ++n) {
    if (profile.mshr_cycles[n] == 0) continue;
    w.begin_object();
    w.field("mshrs", static_cast<uint64_t>(n));
    w.field("cycles", profile.mshr_cycles[n]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_json(trace::JsonWriter& w, const mem::DramMemProfile& profile) {
  w.begin_object();
  w.field("channels", static_cast<uint64_t>(profile.channels.size()));
  w.field("total_requests", profile.total_requests());
  // Peak-over-mean channel load; 1.0 = perfectly balanced interleave.
  w.field("imbalance", profile.imbalance());
  w.key("per_channel").begin_array();
  for (size_t c = 0; c < profile.channels.size(); ++c) {
    const auto& ch = profile.channels[c];
    w.begin_object();
    w.field("channel", static_cast<uint64_t>(c));
    w.field("reads", ch.reads);
    w.field("writes", ch.writes);
    w.field("busy_cycles", ch.busy_cycles());
    const uint64_t busy = ch.busy_cycles();
    w.field("mean_busy_depth",
            busy ? static_cast<double>(ch.weighted_depth()) / static_cast<double>(busy) : 0.0);
    // Time-weighted queue-depth histogram: cycles at each depth. Sparse;
    // depth 0 (idle) omitted along with other zero entries.
    w.key("depth_cycles").begin_array();
    for (size_t d = 0; d < ch.depth_cycles.size(); ++d) {
      if (ch.depth_cycles[d] == 0) continue;
      w.begin_object();
      w.field("depth", static_cast<uint64_t>(d));
      w.field("cycles", ch.depth_cycles[d]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

namespace {

// Per-PC miss-class attribution with the same instruction + KIR provenance
// join as the fgpu.profile.v1 PC table (by_tag keys are PCs here).
void write_by_pc(trace::JsonWriter& w, const char* name, const KernelMemProfile& profile,
                 const mem::CacheMemProfile& level) {
  w.key(name).begin_array();
  for (const auto& [pc, classes] : level.by_tag) {
    w.begin_object();
    w.field("pc", pc);
    const size_t index = (pc - profile.binary.base) / 4;
    std::string text = "<unknown>";
    if (index < profile.binary.words.size()) {
      const auto instr = arch::decode(profile.binary.words[index]);
      text = instr ? arch::to_string(*instr) : "<invalid>";
    }
    w.field("instr", text);
    w.field("source", profile.source_map.source_for(index));
    w.field("misses", classes.total());
    w.field("compulsory", classes.compulsory);
    w.field("capacity", classes.capacity);
    w.field("conflict", classes.conflict);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void write_json(trace::JsonWriter& w, const KernelMemProfile& profile) {
  w.begin_object();
  w.field("kernel", profile.kernel);
  w.field("launches", profile.launches);
  if (!profile.is_hls) {
    // Soft-GPU hierarchy: per-level profiles (cores summed), L1D and L2
    // with per-PC attribution, plus the DRAM occupancy/imbalance view.
    w.key("l1d");
    write_json(w, profile.mem.l1d);
    write_by_pc(w, "l1d_by_pc", profile, profile.mem.l1d);
    w.key("l1i");
    write_json(w, profile.mem.l1i);
    w.key("l2");
    write_json(w, profile.mem.l2);
    write_by_pc(w, "l2_by_pc", profile, profile.mem.l2);
    w.key("dram");
    write_json(w, profile.mem.dram);
  } else {
    // HLS burst-LSU read path: shadow cache with the soft-GPU L1D geometry
    // (reference locality model — the analytical HLS pipeline has no timed
    // cache), attributed per AccessSite.
    w.key("readpath");
    write_json(w, profile.hls_mem);
    w.key("by_site").begin_array();
    for (const auto& [tag, classes] : profile.hls_mem.by_tag) {
      w.begin_object();
      if (tag < profile.sites.size()) {
        const auto& site = profile.sites[tag];
        w.field("site", tag);
        w.field("buffer", site.buffer);
        w.field("source", site.source);
        w.field("lsu", site.lsu);
        w.field("pattern", site.pattern);
      } else {
        w.field("site", static_cast<int64_t>(-1));
        w.field("buffer", "<unmapped>");
        w.field("source", "<unmapped>");
        w.field("lsu", "");
        w.field("pattern", "");
      }
      w.field("misses", classes.total());
      w.field("compulsory", classes.compulsory);
      w.field("capacity", classes.capacity);
      w.field("conflict", classes.conflict);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_json(trace::JsonWriter& w, const DeviceRun& run, DeviceKind kind,
                const std::string& device_name) {
  w.begin_object();
  w.field("device", device_name);
  w.field("build_ok", run.build.is_ok());
  w.field("run_ok", run.run.is_ok());
  w.field("verify_ok", run.verify.is_ok());
  w.field("ok", run.ok());
  w.field("fail_reason", run.fail_reason);
  w.field("total_cycles", run.total_cycles);
  w.field("total_instrs", run.total_instrs);
  w.field("total_time_ms", run.total_time_ms);
  // Hex so the 64-bit value survives JSON readers that parse numbers as
  // doubles. Identical across opt levels when the optimizer is sound.
  {
    char digest[19];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(run.output_digest));
    w.field("output_digest", std::string_view(digest));
  }
  if (kind == DeviceKind::kHls) {
    w.field("synthesis_hours", run.synthesis_hours);
    w.key("area");
    write_json(w, run.area);
  }
  if (run.ok()) {
    w.key("last_launch");
    write_json(w, run.last, kind);
  }
  w.end_object();
}

}  // namespace fgpu::suite
