#pragma once
/// \file memory_port.hpp
/// The composition seam of the whole simulator: anything that can serve
/// line-sized reads/writes with a latency. The cache talks to a
/// memory_port; an EDU is a memory_port decorator wrapping the external
/// memory — which is exactly the survey's Fig. 2c/7a topology (cache ->
/// EDU -> memory controller -> external memory).
///
/// Two issue styles share the seam:
///  - scalar read()/write(): one blocking request, returns its latency;
///  - submit()/drain(): a batch of mem_txn requests whose *timing* may
///    overlap (multi-bank DRAM, keystream parallel to the fetch) while
///    functional effects stay in submission order. The default adapter
///    serves a batch one scalar call per segment, so a port that only
///    implements read()/write() is batch-capable; ports with real
///    concurrency (external_memory, every EDU) override it.
/// Neither style is the other's reference: several EDUs serve a scalar
/// call as a one-transaction window of their submit() (edu::read/write).
///
/// The full batch contract (ordering, stamp monotonicity, the scalar
/// fallback rule) is specified at \ref txn_contract in sim/mem_txn.hpp;
/// the per-method notes below state each call's share of it.

#include "common/types.hpp"
#include "sim/mem_txn.hpp"

#include <span>
#include <utility>

namespace buscrypt::sim {

/// A request/response memory interface. Functional and timed: data really
/// moves (so ciphertext really sits in DRAM and probes see real bytes) and
/// every call returns the cycles it consumed.
class memory_port {
 public:
  virtual ~memory_port() = default;

  /// Read |out| bytes at addr. Returns total latency in cycles.
  [[nodiscard]] virtual cycles read(addr_t addr, std::span<u8> out) = 0;

  /// Write |in| bytes at addr. Returns total latency in cycles.
  [[nodiscard]] virtual cycles write(addr_t addr, std::span<const u8> in) = 0;

  /// Submit a batch of transactions (see \ref txn_contract).
  ///
  /// **Ordering.** Functional effects are applied in submission order,
  /// transaction by transaction and segment by segment — byte-identical
  /// to scalar issue of the same requests. Timing alone may overlap.
  ///
  /// **Completion stamps.** Each txn's `complete_cycle` is set relative
  /// to this port's last drain(); stamps are non-decreasing across the
  /// batch and never exceed the makespan the next drain() reports.
  /// Cycles consumed accumulate across submit() calls until drain()
  /// collects them, so several submissions may share one drain window.
  ///
  /// **Default adapter.** This implementation serialises the batch
  /// through read()/write() — one scalar call per segment, in order —
  /// so the batch makespan equals the sum of the scalar latencies.
  /// Overriding ports may reorder *timing* only; any transaction they
  /// cannot schedule natively is served by a blocking datapath at a point
  /// that preserves submission order (pending native work flushed first),
  /// which is what edu::txn_batcher::detour_via does.
  virtual void submit(std::span<mem_txn> batch) {
    cycles t = pending_txn_cycles_;
    for (mem_txn& txn : batch) {
      for (txn_segment& seg : txn.segments) {
        t += txn.is_write() ? write(seg.addr, std::span<const u8>(seg.data))
                            : read(seg.addr, seg.data);
      }
      txn.complete_cycle = t;
    }
    pending_txn_cycles_ = t;
  }

  /// Collect the cycles consumed by everything submitted since the last
  /// drain() (the batch makespan, not the per-txn sum, on overlapping
  /// ports) and reset the accumulator. Calling drain() with nothing
  /// pending returns 0; it also re-bases the `complete_cycle` origin for
  /// the next submission window.
  [[nodiscard]] virtual cycles drain() { return std::exchange(pending_txn_cycles_, 0); }

 protected:
  /// Accumulator shared by the default adapter and native batch paths.
  cycles pending_txn_cycles_ = 0;
};

} // namespace buscrypt::sim
