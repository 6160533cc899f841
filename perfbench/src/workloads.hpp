#pragma once
/// \file workloads.hpp
/// The pieces each workload is built from, public so the self-tests can
/// run them at small sizes: the cell plans, the traced replays that
/// compose the same stacks from public parts with the probes inserted,
/// and the correctness checks that feed the failed-op count.

#include "engine/churn.hpp"
#include "fleet/fleet.hpp"
#include "report.hpp"
#include "sim/workload.hpp"

#include <string>
#include <vector>

namespace perfbench {

/// The simulated counters a traced run reports for the engine, its
/// authenticator, the keyslot pool and external memory. data_bytes and
/// tag_bytes come from the timed port below the engine, so only traced
/// rounds fill them.
struct layer_counters {
  buscrypt::engine::engine_stats engine;
  buscrypt::engine::auth_stats auth;
  buscrypt::engine::keyslot_stats slots;
  u64 beats = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  u64 data_bytes = 0;
  u64 tag_bytes = 0;

  /// Sum \p o into these counters (the fields the metrics read).
  void add(const layer_counters& o);
  /// Every field but data_bytes/tag_bytes agrees.
  [[nodiscard]] bool sim_equal(const layer_counters& o) const noexcept;
};

/// The engine.*, engine.auth.*, engine.keyslot.* and sim.* counter metrics.
void add_counter_metrics(outcome& out, const layer_counters& c);

// --- ctx_storm -----------------------------------------------------------------

/// The 16 storm cells: policy x pool {4, 16} x skew {0.8, 1.2}, in_flight 4.
[[nodiscard]] std::vector<buscrypt::engine::churn_config>
storm_cells(u64 seed, std::size_t contexts, std::size_t ops);

/// engine::run_churn composed from its public parts, resolving backends
/// through \p registry and timing each keyslot acquire. Bit-identical
/// simulated result to run_churn(cfg).
[[nodiscard]] buscrypt::engine::churn_result
traced_churn(const buscrypt::engine::churn_config& cfg,
             const buscrypt::engine::backend_registry& registry);

/// Count one round's storm ops as attempted in \p out, and as failed for
/// every cell that breaks its checks or differs from \p ref.
void check_storm_round(const std::vector<buscrypt::engine::churn_config>& cfgs,
                       const std::vector<buscrypt::engine::churn_result>& ref,
                       const std::vector<buscrypt::engine::churn_result>& got,
                       const char* what, outcome& out);

/// The keyslot sum rules and op accounting of one storm cell; on failure
/// returns false and says why in \p why.
[[nodiscard]] bool check_storm_cell(const buscrypt::engine::churn_config& cfg,
                                    const buscrypt::engine::churn_result& r,
                                    std::string& why);

// --- sealed_stream -------------------------------------------------------------

/// tab7's "mixed-heavy" line stream at \p accesses total accesses over
/// \p footprint bytes: jumpy fetch (3/4) plus a streaming store component.
[[nodiscard]] buscrypt::sim::workload mixed_heavy(std::size_t accesses,
                                                  std::size_t footprint, u64 seed);

/// Seed-derived firmware-like image.
[[nodiscard]] buscrypt::bytes stream_image(std::size_t footprint, u64 seed);

/// The SoC geometry of the stream: 8 KiB 2-way L1 with 32 B lines, 8 MiB
/// DRAM over 8 banks; aes-ctr keyslot engine with mac auth when \p sealed.
[[nodiscard]] buscrypt::edu::soc_config stream_soc(u64 seed, bool sealed);

/// Everything simulated one stream run leaves behind.
struct stream_result {
  buscrypt::sim::throughput_stats ts;
  layer_counters counters;
  u64 dram_fnv = 0;
  buscrypt::bytes read_back; ///< plaintext view of [0, footprint)
  buscrypt::bytes dram;      ///< raw DRAM of [0, footprint)
  double host_ms = 0.0;      ///< run_stream_copies: this copy's host time (not compared)

  /// Every simulated field and the DRAM fingerprint agree.
  [[nodiscard]] bool sim_equal(const stream_result& o) const noexcept;
};

/// One stream run through secure_soc::run_throughput (batches of 16).
[[nodiscard]] stream_result run_stream(const buscrypt::sim::workload& w,
                                       const buscrypt::bytes& image, u64 seed, bool sealed);

/// One measured round: \p copies identical sealed SoCs built side by side
/// on the fleet pool (\p setup_s: the wall time of that, image install
/// and auth seal included), then each driven single-threaded through
/// run_throughput at the same time (\p run_s), then collected.
[[nodiscard]] std::vector<stream_result>
run_stream_copies(const buscrypt::sim::workload& w, const buscrypt::bytes& image, u64 seed,
                  unsigned copies, double& setup_s, double& run_s);

/// The sealed stream composed from public parts with the probes in
/// place: a timed port above the engine and below it (tag bytes split at
/// the auth tag base), and a keyslot pool over \p registry.
[[nodiscard]] stream_result traced_stream(const buscrypt::sim::workload& w,
                                          const buscrypt::bytes& image, u64 seed,
                                          const buscrypt::engine::backend_registry& registry);

/// Count a stream round's port transactions as attempted in \p out, and
/// all of them as failed when check_stream fails or the round differs
/// from \p ref.
void check_stream_round(const stream_result& got, const stream_result& ref,
                        const stream_result& plain, const char* what, outcome& out);

/// Zero integrity faults, read-back equal to the plaintext SoC's, and no
/// plaintext line of [0, footprint) left in DRAM.
[[nodiscard]] bool check_stream(const stream_result& sealed, const stream_result& plain,
                                std::string& why);

// --- update_lifetime -----------------------------------------------------------

/// The lifetime cells: every fault point x every auth scheme, \p runs each.
[[nodiscard]] std::vector<buscrypt::fleet::fleet_cell> lifetime_cells(u64 seed,
                                                                      std::size_t runs);

/// Per-episode counters only the traced replay sees.
struct lifetime_probe {
  bool cut = false;
  unsigned retries = 0;
  layer_counters counters; ///< auth: the authenticators attached at episode end
};

/// fleet::run_cell for a lifetime cell, composed from update::run_lifetime's
/// public parts with the probes in place (the timed port sits below the
/// fault injector). Bit-identical simulated result to run_cell(cell).
[[nodiscard]] buscrypt::fleet::cell_result
traced_lifetime(const buscrypt::fleet::fleet_cell& cell,
                const buscrypt::engine::backend_registry& registry, lifetime_probe& probe);

/// Count a round's lifetimes as attempted in \p out, and as failed for
/// every episode that breaks check_lifetime_cell or differs from \p ref.
void check_lifetime_round(const std::vector<buscrypt::fleet::cell_result>& got,
                          const std::vector<buscrypt::fleet::cell_result>& ref,
                          const char* what, outcome& out);

/// update::lifetime_safe for one cell's result: exactly-old or exactly-new
/// image, no downgrade accepted.
[[nodiscard]] bool check_lifetime_cell(const buscrypt::fleet::cell_result& r,
                                       std::string& why);

} // namespace perfbench
