#include "report.hpp"

#include "workloads.hpp"

#include "fleet/pool.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct metric_def {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in the order the traced run prints them.
constexpr metric_def k_layer_metrics[] = {
    {"fleet.wall_ms", "ms"},
    {"fleet.cell_ms_sum", "ms"},
    {"fleet.cell_ms_p50", "ms"},
    {"fleet.cell_ms_max", "ms"},
    {"fleet.efficiency", "ratio"},
    {"fleet.steals", "count"},
    {"fleet.user_s", "s"},
    {"fleet.sys_s", "s"},
    {"fleet.self_ms", "ms"},
    {"engine.backend.make_keyed_calls", "count"},
    {"engine.backend.make_keyed_ms", "ms"},
    {"engine.backend.self_ms", "ms"},
    {"crypto.transform_calls", "count"},
    {"crypto.transform_bytes", "B"},
    {"crypto.transform_ms", "ms"},
    {"crypto.pad_ms", "ms"},
    {"crypto.rsa_generate_ms", "ms"},
    {"crypto.self_ms", "ms"},
    {"engine.keyslot.acquires", "count"},
    {"engine.keyslot.acquire_ms", "ms"},
    {"engine.keyslot.warm_hit_ratio", "ratio"},
    {"engine.keyslot.programs", "count"},
    {"engine.keyslot.denials", "count"},
    {"engine.keyslot.self_ms", "ms"},
    {"engine.submit_calls", "count"},
    {"engine.submit_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"engine.batch_native_ratio", "ratio"},
    {"engine.rmw_ops", "count"},
    {"engine.reprogram_stalls", "count"},
    {"engine.integrity_faults", "count"},
    {"engine.auth.verifies", "count"},
    {"engine.auth.updates", "count"},
    {"engine.auth.tag_hit_ratio", "ratio"},
    {"engine.auth.tag_bus_reads", "count"},
    {"engine.auth.tag_bus_writes", "count"},
    {"engine.auth.cycles", "cycles"},
    {"sim.port_calls", "count"},
    {"sim.port_ms", "ms"},
    {"sim.data_bytes", "B"},
    {"sim.tag_bytes", "B"},
    {"sim.beats", "count"},
    {"sim.dram_row_hit_ratio", "ratio"},
    {"sim.self_ms", "ms"},
    {"update.provision_ms", "ms"},
    {"update.make_package_ms", "ms"},
    {"update.apply_ms", "ms"},
    {"update.power_cycle_ms", "ms"},
    {"update.recover_ms", "ms"},
    {"update.power_cuts", "count"},
    {"update.retries", "count"},
    {"update.committed", "count"},
    {"update.rolled_back", "count"},
    {"update.self_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// The CPU features the crypto hot paths could dispatch on, as JSON.
std::string cpu_features_json() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  return std::string("{\"aes\": ") + flag(__builtin_cpu_supports("aes")) +
         ", \"vaes\": " + flag(__builtin_cpu_supports("vaes")) +
         ", \"sha_ni\": " + flag(__builtin_cpu_supports("sha")) +
         ", \"avx2\": " + flag(__builtin_cpu_supports("avx2")) +
         ", \"avx512f\": " + flag(__builtin_cpu_supports("avx512f")) + "}";
#else
  return "{}";
#endif
}

void add_span_metrics(outcome& out, const trace_summary& sum) {
  const auto& mk = sum[span_kind::backend_make_keyed];
  out.add("engine.backend.make_keyed_calls", static_cast<double>(mk.calls), "count");
  out.add("engine.backend.make_keyed_ms", mk.total_ms, "ms");

  const auto& tr = sum[span_kind::crypto_transform];
  out.add("crypto.transform_calls", static_cast<double>(tr.calls), "count");
  out.add("crypto.transform_bytes", static_cast<double>(tr.bytes), "B");
  out.add("crypto.transform_ms", tr.total_ms, "ms");
  out.add("crypto.pad_ms", sum[span_kind::crypto_pad].total_ms, "ms");
  out.add("crypto.rsa_generate_ms", sum[span_kind::crypto_rsa_generate].total_ms, "ms");

  out.add("engine.keyslot.acquire_ms", sum[span_kind::keyslot_acquire].total_ms, "ms");

  const auto& ec = sum[span_kind::engine_call];
  out.add("engine.submit_calls", static_cast<double>(ec.calls), "count");
  out.add("engine.submit_ms", ec.total_ms, "ms");

  const auto& sp = sum[span_kind::sim_port];
  out.add("sim.port_calls", static_cast<double>(sp.calls), "count");
  out.add("sim.port_ms", sp.total_ms, "ms");

  out.add("update.provision_ms", sum[span_kind::update_provision].total_ms, "ms");
  out.add("update.make_package_ms", sum[span_kind::update_make_package].total_ms, "ms");
  out.add("update.apply_ms", sum[span_kind::update_apply].total_ms, "ms");
  out.add("update.power_cycle_ms", sum[span_kind::update_power_cycle].total_ms, "ms");
  out.add("update.recover_ms", sum[span_kind::update_recover].total_ms, "ms");

  for (std::size_t l = 0; l < k_layers; ++l)
    out.add(std::string(layer_name(static_cast<layer>(l))) + ".self_ms",
            sum.layer_self_ms[l], "ms");
  out.add("trace.spans", static_cast<double>(sum.spans), "count");
}

void add_overhead_metrics(outcome& out, double untraced_ms, double traced_ms) {
  out.add("trace.overhead_ms", traced_ms - untraced_ms, "ms");
  out.add("trace.overhead_pct",
          untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0 : 0.0, "%");
}

void fill_missing_layer_metrics(outcome& out) {
  std::vector<metric> ordered;
  ordered.reserve(std::size(k_layer_metrics));
  for (const metric_def& d : k_layer_metrics) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const metric& m) { return m.name == d.name; });
    ordered.push_back(it != out.metrics.end() ? *it : metric{d.name, 0.0, d.unit});
  }
  out.metrics = std::move(ordered);
}

void write_span_file(outcome& out, const run_options& opt, const trace_summary& sum,
                     const std::vector<tracer>& kept) {
  out.top_layer = std::string(layer_name(sum.top_layer()));
  if (opt.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path =
      opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  u64 dropped = 0;
  for (const tracer& t : kept) dropped += t.dropped();
  std::string meta = "{\"host\": " + host_json(opt) + ", \"spans_dropped\": " +
                     std::to_string(dropped) + ", \"self_ms_per_round\": {";
  for (std::size_t l = 0; l < k_layers; ++l) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", l == 0 ? "" : ", ",
                  std::string(layer_name(static_cast<layer>(l))).c_str(),
                  sum.layer_self_ms[l]);
    meta += buf;
  }
  meta += "}}";
  if (write_trace(path, kept, meta)) out.trace_file = path;
}

} // namespace

void outcome::fail(u64 ops, std::string why) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

cpu_times process_cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

std::string host_json(const run_options& opt) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"threads\": %u, \"cpu\": %s, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %s}",
                std::thread::hardware_concurrency(), opt.threads, cpu_features_json().c_str(),
                PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? "true" : "false");
  return buf;
}

void fleet_timing::add(const fleet_timing& o) {
  wall_ms += o.wall_ms;
  cell_ms.resize(std::max(cell_ms.size(), o.cell_ms.size()), 0.0);
  for (std::size_t i = 0; i < o.cell_ms.size(); ++i) cell_ms[i] += o.cell_ms[i];
  threads = std::max(threads, o.threads);
  steals += o.steals;
  cpu.user_s += o.cpu.user_s;
  cpu.sys_s += o.cpu.sys_s;
}

void fleet_timing::per_round(double rounds) {
  wall_ms /= rounds;
  for (double& c : cell_ms) c /= rounds;
  steals /= rounds;
  cpu.user_s /= rounds;
  cpu.sys_s /= rounds;
}

pool_trace traced_jobs(std::size_t n, unsigned threads, std::size_t keep,
                       const std::function<void(std::size_t)>& fn) {
  pool_trace pt;
  const clock::time_point epoch = clock::now();
  pt.tracers.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pt.tracers.emplace_back(static_cast<u32>(i), epoch, n == 0 ? 0 : keep / n);
  pt.timing.cell_ms.assign(n, 0.0);

  const cpu_times cpu0 = process_cpu_times();
  const buscrypt::fleet::pool_stats ps = buscrypt::fleet::run_jobs(n, threads, [&](std::size_t i) {
    const tracer_scope scope(&pt.tracers[i]);
    const clock::time_point c0 = clock::now();
    {
      const scoped_span cell(span_kind::fleet_cell);
      fn(i);
    }
    pt.timing.cell_ms[i] = ms_since(c0);
  });
  pt.timing.wall_ms = ms_since(epoch);
  const cpu_times cpu1 = process_cpu_times();
  pt.timing.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  pt.timing.threads = ps.threads;
  pt.timing.steals = static_cast<double>(ps.steals);
  return pt;
}

void add_fleet_metrics(outcome& out, const fleet_timing& ft) {
  double sum = 0.0;
  for (const double c : ft.cell_ms) sum += c;
  out.add("fleet.wall_ms", ft.wall_ms, "ms");
  out.add("fleet.cell_ms_sum", sum, "ms");
  out.add("fleet.cell_ms_p50", median(ft.cell_ms), "ms");
  out.add("fleet.cell_ms_max",
          ft.cell_ms.empty() ? 0.0 : *std::max_element(ft.cell_ms.begin(), ft.cell_ms.end()),
          "ms");
  const double capacity = static_cast<double>(ft.threads) * ft.wall_ms;
  out.add("fleet.efficiency", capacity > 0.0 ? sum / capacity : 0.0, "ratio");
  out.add("fleet.steals", ft.steals, "count");
  out.add("fleet.user_s", ft.cpu.user_s, "s");
  out.add("fleet.sys_s", ft.cpu.sys_s, "s");
}

void layer_counters::add(const layer_counters& o) {
  engine.batch_native += o.engine.batch_native;
  engine.batched_txns += o.engine.batched_txns;
  engine.rmw_ops += o.engine.rmw_ops;
  engine.reprogram_stalls += o.engine.reprogram_stalls;
  engine.integrity_faults += o.engine.integrity_faults;
  auth.verifies += o.auth.verifies;
  auth.updates += o.auth.updates;
  auth.tag_hits += o.auth.tag_hits;
  auth.tag_misses += o.auth.tag_misses;
  auth.tag_bus_reads += o.auth.tag_bus_reads;
  auth.tag_bus_writes += o.auth.tag_bus_writes;
  auth.auth_cycles += o.auth.auth_cycles;
  slots.acquires += o.slots.acquires;
  slots.hits += o.slots.hits;
  slots.programs += o.slots.programs;
  slots.denials += o.slots.denials;
  beats += o.beats;
  row_hits += o.row_hits;
  row_misses += o.row_misses;
  data_bytes += o.data_bytes;
  tag_bytes += o.tag_bytes;
}

bool layer_counters::sim_equal(const layer_counters& o) const noexcept {
  const auto& a = engine;
  const auto& b = o.engine;
  const bool engine_eq =
      a.reads == b.reads && a.writes == b.writes && a.units == b.units &&
      a.rmw_ops == b.rmw_ops && a.fallbacks == b.fallbacks && a.passthrough == b.passthrough &&
      a.batches == b.batches && a.batched_txns == b.batched_txns &&
      a.batch_native == b.batch_native && a.domain_faults == b.domain_faults &&
      a.firewall_denials == b.firewall_denials && a.integrity_faults == b.integrity_faults &&
      a.reprogram_stalls == b.reprogram_stalls &&
      a.reprogram_stall_cycles == b.reprogram_stall_cycles && a.crypto_cycles == b.crypto_cycles;
  const bool auth_eq =
      auth.verifies == o.auth.verifies && auth.updates == o.auth.updates &&
      auth.faults == o.auth.faults && auth.tag_hits == o.auth.tag_hits &&
      auth.tag_misses == o.auth.tag_misses && auth.tag_bus_reads == o.auth.tag_bus_reads &&
      auth.tag_bus_writes == o.auth.tag_bus_writes && auth.nodes_walked == o.auth.nodes_walked &&
      auth.auth_cycles == o.auth.auth_cycles;
  const bool slots_eq =
      slots.hits == o.slots.hits && slots.programs == o.slots.programs &&
      slots.cold_programs == o.slots.cold_programs && slots.reprograms == o.slots.reprograms &&
      slots.prefetch_programs == o.slots.prefetch_programs &&
      slots.evictions == o.slots.evictions && slots.denials == o.slots.denials &&
      slots.acquires == o.slots.acquires && slots.occupancy_acc == o.slots.occupancy_acc;
  return engine_eq && auth_eq && slots_eq && beats == o.beats && row_hits == o.row_hits &&
         row_misses == o.row_misses;
}

void add_counter_metrics(outcome& out, const layer_counters& c) {
  const auto ratio = [](u64 a, u64 b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const auto count = [&](const char* name, u64 v) {
    out.add(name, static_cast<double>(v), "count");
  };
  out.add("engine.batch_native_ratio", ratio(c.engine.batch_native, c.engine.batched_txns),
          "ratio");
  count("engine.rmw_ops", c.engine.rmw_ops);
  count("engine.reprogram_stalls", c.engine.reprogram_stalls);
  count("engine.integrity_faults", c.engine.integrity_faults);
  count("engine.auth.verifies", c.auth.verifies);
  count("engine.auth.updates", c.auth.updates);
  out.add("engine.auth.tag_hit_ratio",
          ratio(c.auth.tag_hits, c.auth.tag_hits + c.auth.tag_misses), "ratio");
  count("engine.auth.tag_bus_reads", c.auth.tag_bus_reads);
  count("engine.auth.tag_bus_writes", c.auth.tag_bus_writes);
  out.add("engine.auth.cycles", static_cast<double>(c.auth.auth_cycles), "cycles");
  count("engine.keyslot.acquires", c.slots.acquires);
  out.add("engine.keyslot.warm_hit_ratio", ratio(c.slots.hits, c.slots.acquires), "ratio");
  count("engine.keyslot.programs", c.slots.programs);
  count("engine.keyslot.denials", c.slots.denials);
  out.add("sim.data_bytes", static_cast<double>(c.data_bytes), "B");
  out.add("sim.tag_bytes", static_cast<double>(c.tag_bytes), "B");
  count("sim.beats", c.beats);
  out.add("sim.dram_row_hit_ratio", ratio(c.row_hits, c.row_hits + c.row_misses), "ratio");
}

void finish_traced_run(outcome& out, const run_options& opt, trace_summary sum,
                       const std::vector<tracer>& kept,
                       const std::vector<double>& untraced_cell_ms,
                       const std::vector<double>& traced_cell_ms) {
  sum.scale(1.0 / static_cast<double>(traced_cell_ms.size()));
  add_span_metrics(out, sum);
  add_overhead_metrics(out, median(untraced_cell_ms), median(traced_cell_ms));
  write_span_file(out, opt, sum, kept);
  fill_missing_layer_metrics(out);
}

} // namespace perfbench
