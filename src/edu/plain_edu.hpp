#pragma once
/// \file plain_edu.hpp
/// The no-protection baseline: data crosses the bus in clear form — the
/// situation Section 1 describes ("data and instructions are constantly
/// exchanged ... in clear form on the bus"). Every overhead in the benches
/// is measured against this.

#include "edu/edu.hpp"

namespace buscrypt::edu {

/// Pass-through EDU: zero added latency, identity transform.
class plain_edu final : public edu {
 public:
  using edu::edu;

  [[nodiscard]] std::string_view name() const noexcept override { return "plaintext"; }

  /// A wire has nothing to serialise: hand the batch straight to the lower
  /// level so multi-bank overlap reaches the unprotected baseline too.
  void submit(std::span<sim::mem_txn> batch) override {
    note_batch(batch.size());
    // Drain below so the window's cycles sit in this port's accumulator,
    // where the open-window check sees them; re-base the lower stamps.
    lower_->submit(batch);
    for (sim::mem_txn& txn : batch) {
      // One count per segment, matching scalar issue of the same ops.
      (txn.is_write() ? stats_.writes : stats_.reads) += txn.segments.size();
      txn.complete_cycle += pending_txn_cycles_;
    }
    pending_txn_cycles_ += lower_->drain();
  }
};

} // namespace buscrypt::edu
