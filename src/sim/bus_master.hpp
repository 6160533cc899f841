#pragma once
/// \file bus_master.hpp
/// A bus master: one initiator on the shared processor-memory interconnect.
/// The survey's SoCs are multi-master in exactly this sense — the CPU (via
/// its L1), VLSI Technology's secure DMA unit (Fig. 4) and peripherals all
/// contend for the single external bus — and hardware-firewall work
/// (Cotret et al.) frames *protection* as a per-master property, which is
/// why every master carries a stable id that rides its transactions down
/// to the bus beats and the engine's protection domains.
///
/// A master is (id, name, priority, txn stream): a chunk-granular request
/// stream lowered from a workload, staged window by window into mem_txn
/// batches when the arbiter grants it the bus.

#include "sim/mem_txn.hpp"
#include "sim/workload.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace buscrypt::sim {

struct bus_master_config {
  master_id id = cpu_master;
  std::string name = "master";
  unsigned priority = 0;  ///< higher wins under fixed-priority arbitration
  std::size_t chunk = 32; ///< bytes per transaction (line or burst granularity)
};

/// Per-master counters the arbiter maintains. Latency stamps are absolute
/// (cycles since the run began; every master is ready at cycle 0), so
/// avg_txn_latency() is the mean queueing + service delay a master's
/// requests experienced under the chosen arbitration policy.
struct master_stats {
  master_id id = cpu_master;
  std::string name;
  unsigned priority = 0;
  u64 txns = 0;             ///< transactions retired
  u64 bytes = 0;            ///< payload bytes moved
  u64 grants = 0;           ///< bus windows granted
  cycles service_cycles = 0; ///< makespan of this master's granted windows
  cycles finish_cycle = 0;   ///< absolute completion of its last transaction
  cycles latency_sum = 0;    ///< sum of absolute per-txn completion stamps
  u64 wait_rounds = 0;       ///< rounds another master was granted while this
                             ///< one had pending work
  u64 max_wait_streak = 0;   ///< longest consecutive such run (starvation)

  [[nodiscard]] double avg_txn_latency() const noexcept {
    return txns == 0 ? 0.0
                     : static_cast<double>(latency_sum) / static_cast<double>(txns);
  }
};

/// One master's request stream plus the staging buffer its in-flight
/// window lives in. Referenced (not owned) by sim::interconnect.
class bus_master {
 public:
  /// From pre-lowered port operations (addresses chunk-aligned).
  bus_master(bus_master_config cfg, std::vector<port_op> ops)
      : cfg_(std::move(cfg)), ops_(std::move(ops)) {
    stats_.id = cfg_.id;
    stats_.name = cfg_.name;
    stats_.priority = cfg_.priority;
  }

  /// From a workload, lowered at this master's chunk granularity.
  bus_master(bus_master_config cfg, const workload& w)
      : bus_master(std::move(cfg), to_port_ops(w, cfg.chunk)) {}

  [[nodiscard]] bool pending() const noexcept { return next_ < ops_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return ops_.size() - next_; }
  [[nodiscard]] const bus_master_config& config() const noexcept { return cfg_; }
  [[nodiscard]] const master_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] u64 wait_streak() const noexcept { return wait_streak_; }

  /// Stage up to \p n transactions into \p out (cleared first), tagged
  /// with this master's id. Data spans point into the master's own lane
  /// buffer and stay valid until the next stage() call; store payloads
  /// use fill_store_pattern, so any interleaving of masters with disjoint
  /// footprints leaves the same bytes a solo run would.
  std::size_t stage(std::size_t n, std::vector<mem_txn>& out) {
    out.clear();
    const std::size_t count = std::min(n, remaining());
    lanes_.resize(count * cfg_.chunk);
    for (std::size_t i = 0; i < count; ++i) {
      const port_op& op = ops_[next_ + i];
      const std::span<u8> lane(lanes_.data() + i * cfg_.chunk, cfg_.chunk);
      mem_txn txn;
      if (op.write) {
        fill_store_pattern(op.addr, lane);
        txn = mem_txn::write_of(txn_seq_, op.addr, lane);
      } else {
        txn = mem_txn::read_of(txn_seq_, op.addr, lane);
      }
      txn.master = cfg_.id;
      ++txn_seq_;
      out.push_back(std::move(txn));
    }
    next_ += count;
    return count;
  }

  /// Account a drained window: \p window_start is the absolute cycle the
  /// window was granted, \p makespan what the port's drain() reported.
  /// Per-txn completion stamps (relative to the drain window) become
  /// absolute latencies.
  void retire(std::span<const mem_txn> window, cycles window_start, cycles makespan) {
    ++stats_.grants;
    stats_.service_cycles += makespan;
    for (const mem_txn& txn : window) {
      ++stats_.txns;
      stats_.bytes += txn.bytes();
      const cycles done = window_start + txn.complete_cycle;
      stats_.latency_sum += done;
      stats_.finish_cycle = std::max(stats_.finish_cycle, done);
    }
    wait_streak_ = 0;
  }

  /// Another master won this round while we had pending work.
  void note_wait() noexcept {
    ++stats_.wait_rounds;
    ++wait_streak_;
    stats_.max_wait_streak = std::max(stats_.max_wait_streak, wait_streak_);
  }

 private:
  bus_master_config cfg_;
  std::vector<port_op> ops_;
  std::size_t next_ = 0;
  bytes lanes_; ///< backing storage for the staged window's data spans
  master_stats stats_;
  u64 txn_seq_ = 0;
  u64 wait_streak_ = 0;
};

} // namespace buscrypt::sim
