#pragma once
/// \file report.hpp
/// What a workload run hands back to main(), and the host facts and
/// statistics helpers every workload shares.

#include "trace.hpp"

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// The command-line contract of one run.
struct run_options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< fleet worker threads (nproc)
  std::string trace_dir; ///< where the traced run writes its span file
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run: the correctness tally and the metrics to print.
struct outcome {
  u64 attempted = 0; ///< ops attempted (churn ops, port txns or lifetimes)
  u64 failed = 0;    ///< ops whose checks failed
  std::vector<std::string> failures; ///< first few check messages
  std::vector<metric> metrics;
  std::string trace_file; ///< traced run only
  std::string top_layer;  ///< traced run only: most self time

  void fail(u64 ops, std::string why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const noexcept { return failed == 0 && attempted > 0; }
};

/// Spans the first traced round keeps in memory for the trace file.
constexpr std::size_t k_kept_spans = 200'000;

[[nodiscard]] inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

/// Median of \p v (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// Arithmetic mean of \p v (0 when empty).
[[nodiscard]] double mean(const std::vector<double>& v);

/// Process peak resident set, MiB.
[[nodiscard]] double peak_rss_mib();

/// Process user and system CPU seconds so far (all threads).
struct cpu_times {
  double user_s = 0.0;
  double sys_s = 0.0;
};
[[nodiscard]] cpu_times process_cpu_times();

/// Host facts written next to every result: nproc, threads used, CPU
/// features, build type, compiler and seed, as one JSON object.
[[nodiscard]] std::string host_json(const run_options& opt);

/// The end of every traced run: the span metrics of \p sum as means per
/// traced round, the trace-overhead metrics (median over rounds of the mean
/// wall time per cell, traced minus untraced), the span file written from
/// \p kept, the top self-time layer, and 0 for every per-layer metric the
/// workload never exercised, all in the benchmark's fixed order.
void finish_traced_run(outcome& out, const run_options& opt, trace_summary sum,
                       const std::vector<tracer>& kept,
                       const std::vector<double>& untraced_cell_ms,
                       const std::vector<double>& traced_cell_ms);

/// Host timing of traced pool runs: the fleet layer metrics.
struct fleet_timing {
  double wall_ms = 0.0;
  std::vector<double> cell_ms; ///< per cell, in cell order
  unsigned threads = 0;
  double steals = 0.0;
  cpu_times cpu; ///< process CPU time spent while the pool ran

  /// Sum another round into this one (cell by cell).
  void add(const fleet_timing& o);
  /// Divide every time and count by \p rounds (per-round means).
  void per_round(double rounds);
};
void add_fleet_metrics(outcome& out, const fleet_timing& ft);

/// One traced pool run: fn(i) for each of \p n cells on \p threads fleet
/// workers, each cell under its own tracer (request id i) and root span
/// fleet.cell, with getrusage taken around the pool.
struct pool_trace {
  std::vector<tracer> tracers;
  fleet_timing timing;
};
[[nodiscard]] pool_trace traced_jobs(std::size_t n, unsigned threads, std::size_t keep,
                                     const std::function<void(std::size_t)>& fn);

// --- the three workloads -----------------------------------------------------

[[nodiscard]] outcome run_ctx_storm(const run_options& opt);
[[nodiscard]] outcome run_sealed_stream(const run_options& opt);
[[nodiscard]] outcome run_update_lifetime(const run_options& opt);

} // namespace perfbench
