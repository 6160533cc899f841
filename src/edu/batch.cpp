#include "edu/batch.hpp"

#include <algorithm>

namespace buscrypt::edu {

void txn_batcher::flush() {
  if (!open()) return;

  cycles mem_span = 0;
  if (nlower_ != 0) {
    port_->submit(std::span<sim::mem_txn>(lower_.data(), nlower_));
    mem_span = port_->drain();
  }
  auto arrival_of = [&](std::size_t li) -> cycles {
    return li == no_lower ? 0 : lower_[li].complete_cycle;
  };

  // Per-owner finishes, stamped in staging (= submission) order below.
  // Lower arrivals seed them so a pre-enciphered write completes with its
  // bus transfer.
  fins_.clear();
  for (sim::mem_txn* t : order_) fins_.emplace_back(t, 0);
  auto fin_of = [&](sim::mem_txn* t) -> cycles& {
    for (auto& [owner, fin] : fins_)
      if (owner == t) return fin;
    return fins_.emplace_back(t, 0).second;
  };
  for (std::size_t i = 0; i < nlower_; ++i)
    if (owners_[i] != nullptr) {
      cycles& f = fin_of(owners_[i]);
      f = std::max(f, lower_[i].complete_cycle);
    }

  // The three timing lanes. The serial core starts loaded with the staged
  // pre-encipher work; par work accumulates independently and only its
  // excess over the bus window surfaces in the makespan.
  cycles serial = pre_total_;
  cycles par_prefix = 0;
  cycles tail_total = 0;
  for (job& j : jobs_) {
    if (j.fn) j.fn();
    const cycles arrival = std::max(arrival_of(j.li), arrival_of(j.li2));
    cycles fin = 0;
    switch (j.k) {
      case kind::par:
        par_prefix += j.c;
        tail_total += j.tail;
        fin = std::max(arrival, par_prefix) + j.tail;
        break;
      case kind::gated:
        serial = std::max(serial, arrival) + j.c;
        fin = serial;
        break;
      case kind::local:
        serial += j.c;
        fin = serial;
        break;
    }
    if (j.owner != nullptr) {
      cycles& f = fin_of(j.owner);
      f = std::max(f, fin);
    }
  }
  const cycles makespan = std::max({mem_span, par_prefix, serial}) + tail_total;

  // In-order retirement: stamps are monotone in staging order and never
  // exceed the window makespan.
  cycles mono = 0;
  for (auto& [owner, fin] : fins_) {
    mono = std::max(mono, fin);
    owner->complete_cycle = base_ + clock_ + mono;
  }
  clock_ += makespan;

  for (auto& fn : end_fns_) fn();

  clear_window();
  ++flush_seq_;
}

} // namespace buscrypt::edu
