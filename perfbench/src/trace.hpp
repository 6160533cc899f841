#pragma once
/// \file trace.hpp
/// Span recording for the traced benchmark run. A span is one call into a
/// layer, timed from the benchmark's own files at the layer boundary:
/// name, start, end, parent span and the request (fleet cell) it belongs
/// to. Each cell records into its own tracer, so worker threads never
/// share one; the decorators in probes.hpp find the active tracer through
/// a thread-local pointer and record nothing when it is null, which is
/// how the untraced run stays free of timing calls.
///
/// Self time is accumulated as spans close (a span's duration minus the
/// part its child spans cover), so per-layer self time covers every span
/// even when the in-memory span log is capped.

#include "common/types.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using buscrypt::u64;
using u32 = std::uint32_t;
using clock = std::chrono::steady_clock;

/// The src/ layers a span can be charged to.
enum class layer : unsigned char { fleet, update, engine, keyslot, backend, crypto, sim, count };

[[nodiscard]] std::string_view layer_name(layer l) noexcept;

/// Every span name the benchmark records; each belongs to one layer.
enum class span_kind : unsigned char {
  fleet_cell,         ///< one cell (request) on a fleet worker
  update_provision,   ///< update_agent::provision
  update_make_package,///< update::make_update_package
  update_apply,       ///< update_agent::apply
  update_power_cycle, ///< update_agent::power_cycle
  update_recover,     ///< update_agent::recover
  update_audit,       ///< update_agent::active_image (the post-episode audit)
  engine_call,        ///< a memory_port call into bus_encryption_engine
  keyslot_acquire,    ///< keyslot_manager::acquire
  backend_make_keyed, ///< cipher_backend::make_keyed (schedule cache + expansion)
  crypto_transform,   ///< keyed_cipher encrypt/decrypt, unit or run
  crypto_pad,         ///< keyed_cipher::generate_pads
  crypto_rsa_generate,///< crypto::rsa_generate
  sim_port,           ///< a memory_port call into the fault injector / external memory
  count
};

[[nodiscard]] std::string_view span_name(span_kind k) noexcept;
[[nodiscard]] layer layer_of(span_kind k) noexcept;

constexpr std::size_t k_span_kinds = static_cast<std::size_t>(span_kind::count);
constexpr std::size_t k_layers = static_cast<std::size_t>(layer::count);

/// Totals for one span kind.
struct span_totals {
  u64 calls = 0;
  u64 bytes = 0;      ///< payload bytes the calls carried, where it applies
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// One recorded span. Times are nanoseconds since the tracer epoch.
struct span_record {
  u32 id = 0;
  u32 parent = 0; ///< 0 = root
  u32 request = 0;
  span_kind kind = span_kind::fleet_cell;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span recorder for one request (one fleet cell, or the single-threaded
/// stream). Not thread-safe: exactly one thread uses it at a time.
class tracer {
 public:
  /// \param keep spans retained in memory for the trace file; spans past
  ///        the cap still count towards the totals.
  tracer(u32 request, clock::time_point epoch, std::size_t keep);

  void begin(span_kind k);
  void end(u64 bytes = 0);

  [[nodiscard]] const std::array<span_totals, k_span_kinds>& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] const std::vector<span_record>& spans() const noexcept { return spans_; }
  [[nodiscard]] u64 dropped() const noexcept { return dropped_; }

 private:
  struct open_span {
    span_kind kind;
    u32 id;
    u32 parent;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch_)
        .count();
  }

  u32 request_;
  clock::time_point epoch_;
  std::size_t keep_;
  u32 next_id_ = 1;
  std::vector<open_span> stack_;
  std::vector<span_record> spans_;
  std::array<span_totals, k_span_kinds> totals_{};
  u64 dropped_ = 0;
};

/// The tracer of the request running on this thread, or nullptr.
[[nodiscard]] tracer* active_tracer() noexcept;

/// Makes \p t the active tracer of this thread for the guard's lifetime.
class tracer_scope {
 public:
  explicit tracer_scope(tracer* t) noexcept;
  ~tracer_scope();
  tracer_scope(const tracer_scope&) = delete;
  tracer_scope& operator=(const tracer_scope&) = delete;

 private:
  tracer* prev_;
};

/// RAII span on the active tracer; a no-op without one.
class scoped_span {
 public:
  explicit scoped_span(span_kind k) noexcept : t_(active_tracer()) {
    if (t_) t_->begin(k);
  }
  ~scoped_span() {
    if (t_) t_->end(bytes_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  void add_bytes(u64 n) noexcept { bytes_ += n; }

 private:
  tracer* t_;
  u64 bytes_ = 0;
};

/// Span totals merged over many tracers, plus per-layer self time.
struct trace_summary {
  std::array<span_totals, k_span_kinds> kinds{};
  std::array<double, k_layers> layer_self_ms{};
  u64 spans = 0; ///< spans closed

  void add(const tracer& t);
  void scale(double f); ///< e.g. 1/rounds for per-round figures
  [[nodiscard]] const span_totals& operator[](span_kind k) const noexcept {
    return kinds[static_cast<std::size_t>(k)];
  }
  /// The layer with the most self time.
  [[nodiscard]] layer top_layer() const noexcept;
};

/// Write the retained spans of \p tracers as a Chrome trace-event file
/// (chrome://tracing, Perfetto), with \p meta_json as its otherData.
/// Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::vector<tracer>& tracers,
                 const std::string& meta_json);

} // namespace perfbench
