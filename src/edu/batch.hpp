#pragma once
/// \file batch.hpp
/// The shared staging engine behind the native EDU batch datapaths.
///
/// Every surveyed engine overlaps the same three things when it pipelines
/// a transaction window (Fig. 2a/2b, Tab. 7): work it can do *before* the
/// bus moves (pre-enciphering writes whose data is already in hand), work
/// derived from the *address alone* (keystream pads, IV setup) that runs
/// concurrently with the whole DRAM activate/CAS schedule, and work gated
/// on each transaction's *own data arrival* (serial ECB/CBC decipher, MAC
/// verification). txn_batcher models exactly those three lanes over one
/// lower submit()/drain() window, so each EDU's submit() only states
/// which lane each job belongs to and what functional transform runs when
/// the window retires:
///
///   - add_pre():   staged serial-core work shipped before the window
///                  (write encipher) — overlaps the whole bus schedule;
///   - add_par():   address-derived work (pads) — also overlapped, with a
///                  per-job tail (the XOR stage) charged after the max;
///   - add_gated(): serial-core work that cannot start before its lower
///                  transaction's data arrives; chained across the window
///                  so it pipelines against *later* fetches but its tail
///                  is never hidden — a single-transaction window
///                  costs mem + crypto;
///   - add_local(): on-chip work with no lower traffic (SRAM hits,
///                  prefetch-buffer hits).
///
/// Functional callbacks run in staging order after the lower window
/// drains, so read deciphers see arrived data and read-after-write inside
/// one window observes staged effects in submission order — the
/// \ref txn_contract invariants hold by construction. Transactions the
/// EDU cannot schedule natively detour through a blocking per-unit
/// datapath the EDU names: detour_via() flushes first (pending native work
/// retires in order), then serves the transaction through that unit.

#include "common/types.hpp"
#include "sim/mem_txn.hpp"
#include "sim/memory_port.hpp"

#include <cstddef>
#include <deque>
#include <new>
#include <utility>
#include <vector>

namespace buscrypt::edu {

/// A staged job's callback, stored in place so that staging a window never
/// allocates (std::function does for captures beyond two pointers).
class job_fn {
 public:
  job_fn() = default;
  template <class F>
  job_fn(F f) : run_(&run_as<F>) { // NOLINT(google-explicit-constructor)
    static_assert(sizeof(F) <= sizeof(buf_) && alignof(F) <= alignof(std::max_align_t),
                  "job captures exceed the in-place buffer");
    ::new (buf_) F(std::move(f));
  }
  job_fn(job_fn&& o) noexcept : run_(o.run_) {
    if (run_ != nullptr) run_(op::move, buf_, o.buf_);
  }
  ~job_fn() {
    if (run_ != nullptr) run_(op::destroy, buf_, nullptr);
  }
  explicit operator bool() const noexcept { return run_ != nullptr; }
  void operator()() { run_(op::call, buf_, nullptr); }

 private:
  enum class op : u8 { call, move, destroy };
  template <class F>
  static void run_as(op o, void* self, void* from) {
    if (o == op::move) ::new (self) F(std::move(*std::launder(static_cast<F*>(from))));
    else if (o == op::call) (*std::launder(static_cast<F*>(self)))();
    else std::launder(static_cast<F*>(self))->~F();
  }

  alignas(std::max_align_t) unsigned char buf_[80];
  void (*run_)(op, void*, void*) = nullptr;
};

class txn_batcher {
 public:
  /// "No lower transaction" sentinel for the gated/par lanes.
  static constexpr std::size_t no_lower = static_cast<std::size_t>(-1);

  /// \param lower the port windows are submitted to; referenced.
  explicit txn_batcher(sim::memory_port& lower) : port_(&lower) {}

  /// Start a submit(): \p base is the EDU's accumulator at entry (stamps are
  /// relative to its last drain()). Buffers keep their capacity.
  void reset(cycles base) {
    clear_window();
    base_ = base;
    clock_ = 0;
    cur_ = nullptr;
  }

  /// Jobs and lower transactions staged until the next begin_txn belong to
  /// \p txn: its completion stamp is the latest finish among them.
  void begin_txn(sim::mem_txn& txn) { cur_ = &txn; }

  /// Stable scratch storage for staged ciphertext and fetch buffers; valid
  /// until the current window's flush-end hooks have run.
  [[nodiscard]] bytes& scratch(std::size_t size) {
    bytes& b = next_aux();
    b.assign(size, 0);
    return b;
  }
  [[nodiscard]] bytes& scratch_copy(std::span<const u8> data) {
    bytes& b = next_aux();
    b.assign(data.begin(), data.end());
    return b;
  }

  /// Queue one lower transaction for the current batch transaction.
  /// Returns its window index (for arrival gating).
  std::size_t queue(sim::txn_op op, sim::master_id master, addr_t addr,
                    std::span<u8> data) {
    return queue_for(cur_, op, master, addr, data);
  }

  /// Side traffic (tag lines, metadata) that rides the window but stamps
  /// no batch transaction.
  std::size_t queue_side(sim::txn_op op, sim::master_id master, addr_t addr,
                         std::span<u8> data) {
    return queue_for(nullptr, op, master, addr, data);
  }

  /// Staged serial-core work shipped before the window (write encipher).
  void add_pre(cycles c) { pre_total_ += c; }

  /// Address-derived work overlapped with the whole window; \p tail is the
  /// per-job stage charged after the overlap (the XOR gate).
  void add_par(std::size_t lower_idx, cycles c, cycles tail,
               job_fn fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::par, lower_idx, no_lower, c, tail, cur_, std::move(fn)});
  }

  /// Serial-core work gated on the arrival of \p lower_idx (and
  /// \p lower_idx2 when both a data and a metadata fetch must land first;
  /// pass no_lower otherwise).
  void add_gated(std::size_t lower_idx, std::size_t lower_idx2, cycles c,
                 job_fn fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::gated, lower_idx, lower_idx2, c, 0, cur_, std::move(fn)});
  }

  /// On-chip work with no lower traffic, serialised with the gated lane.
  void add_local(cycles c, job_fn fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::local, no_lower, no_lower, c, 0, cur_, std::move(fn)});
  }

  /// Run \p fn after this window's callbacks (scratch still valid) — for
  /// per-window bookkeeping like tag-cache installs.
  void at_flush_end(job_fn fn) { end_fns_.push_back(std::move(fn)); }

  /// Anything staged and not yet retired?
  [[nodiscard]] bool open() const noexcept { return nlower_ != 0 || !jobs_.empty(); }

  /// Ship the window: submit + drain the lower transactions, run the
  /// functional callbacks in staging order, advance the clock by the
  /// window makespan and stamp every owning transaction.
  void flush();

  /// The ordered detour every native path uses for a transaction it cannot
  /// schedule: flush pending native work, serve \p txn segment by segment
  /// through \p unit — the EDU's blocking per-unit datapath, called as
  /// `cycles unit(bool write, addr_t addr, std::span<u8> data)` — and
  /// stamp it with the cycles spent.
  template <class Unit>
  void detour_via(sim::mem_txn& txn, Unit&& unit) {
    begin_txn(txn);
    flush();
    for (sim::txn_segment& seg : txn.segments)
      clock_ += unit(txn.is_write(), seg.addr, seg.data);
    cur_->complete_cycle = base_ + clock_;
  }

  /// Cycles consumed by every window and detour so far (the submit()'s
  /// contribution to the EDU's accumulator).
  [[nodiscard]] cycles clock() const noexcept { return clock_; }

  /// Completed windows — EDUs use this to amortise per-window setup
  /// (decompressor dictionary warm-up) without extra plumbing.
  [[nodiscard]] u64 flush_seq() const noexcept { return flush_seq_; }

 private:
  enum class kind : u8 { par, gated, local };

  struct job {
    kind k;
    std::size_t li;
    std::size_t li2;
    cycles c;
    cycles tail;
    sim::mem_txn* owner;
    job_fn fn;
  };

  std::size_t queue_for(sim::mem_txn* owner, sim::txn_op op, sim::master_id master,
                        addr_t addr, std::span<u8> data) {
    if (nlower_ == lower_.size()) lower_.emplace_back();
    sim::mem_txn& lt = lower_[nlower_];
    lt.op = op;
    lt.master = master;
    lt.segments.assign(1, {addr, data});
    owners_.push_back(owner);
    note_owner(owner);
    return nlower_++;
  }

  void clear_window() {
    nlower_ = 0;
    owners_.clear();
    order_.clear();
    jobs_.clear();
    end_fns_.clear();
    naux_ = 0;
    pre_total_ = 0;
  }

  /// The next pooled scratch buffer; the deque keeps earlier ones in place.
  bytes& next_aux() {
    if (naux_ == aux_.size()) aux_.emplace_back();
    return aux_[naux_++];
  }

  /// Track owners in staging (= submission) order so stamps stay monotone
  /// even when a transaction stages only on-chip jobs. Transactions stage
  /// contiguously, so adjacent dedup suffices.
  void note_owner(sim::mem_txn* t) {
    if (t != nullptr && (order_.empty() || order_.back() != t)) order_.push_back(t);
  }

  // Pools: the first nlower_/naux_ entries belong to the open window.
  sim::memory_port* port_;
  std::vector<sim::mem_txn> lower_;
  std::size_t nlower_ = 0;
  std::vector<sim::mem_txn*> owners_; ///< aligned with lower_; null = side traffic
  std::vector<sim::mem_txn*> order_;  ///< owners in staging order, deduped
  std::deque<bytes> aux_;
  std::size_t naux_ = 0;
  std::vector<job> jobs_;
  std::vector<job_fn> end_fns_;
  std::vector<std::pair<sim::mem_txn*, cycles>> fins_; ///< flush() per-owner finishes
  cycles pre_total_ = 0;
  cycles base_ = 0;
  cycles clock_ = 0;
  u64 flush_seq_ = 0;
  sim::mem_txn* cur_ = nullptr;
};

/// The detour unit of an EDU that keeps its own scalar read()/write().
[[nodiscard]] inline auto scalar_unit(sim::memory_port& port) {
  return [&port](bool write, addr_t addr, std::span<u8> data) {
    return write ? port.write(addr, data) : port.read(addr, data);
  };
}

} // namespace buscrypt::edu
