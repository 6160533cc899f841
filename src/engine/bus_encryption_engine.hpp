#pragma once
/// \file bus_encryption_engine.hpp
/// The unified bus-encryption engine: an inline crypto stage on the
/// processor-memory path, parameterized by keyslots instead of hard-wired
/// to one cipher. It generalises the survey's per-design EDUs (Fig. 2-8)
/// the way the Linux inline-encryption framework generalises per-driver
/// crypto: upper layers create an *encryption context* (key + backend +
/// data-unit size), the context resolves to a keyslot per request, and the
/// engine transforms whole data units addressed by their data-unit number.
///
/// Topology (survey Fig. 2c): cache -> [this engine] -> bus/DRAM, so
/// everything on the external bus — and every probe — sees ciphertext.
/// Multiple address regions may be mapped to different contexts (secure
/// kernel vs application vs DMA buffer), which is what a small slot pool
/// with LRU reuse models.
///
/// On a multi-master interconnect the engine additionally acts as the
/// hardware firewall (Cotret et al.): a region may be *bound to one
/// master* (bind_domain), making protection a per-master property. A
/// request from any other master is denied on-chip — reads return the
/// bus-error fill pattern instead of plaintext, writes are dropped, no
/// ciphertext ever reaches the external bus — and the denial is counted
/// in that master's domain_stats. Domains with different keys share the
/// one keyslot pool through their contexts, exactly as concurrent masters
/// share the hardware.

#include "engine/keyslot_manager.hpp"
#include "engine/memory_authenticator.hpp"
#include "sim/firewall.hpp"
#include "sim/memory_port.hpp"

#include <utility>
#include <vector>

namespace buscrypt::engine {

struct engine_config {
  /// Cycles to program key material into a hardware slot (charged on each
  /// slot miss; the warm-slot hit path is free, which is the point of the
  /// pool).
  cycles slot_program_cycles = 40;
  /// When no slot is free, transform with a software one-shot cipher
  /// instead of failing (the blk-crypto-fallback analogue). Disabling it
  /// makes a pinned-out pool throw, which the tests exercise.
  bool allow_fallback = true;
  /// Cycle multiplier for the fallback path (software is slower than the
  /// inline hardware datapath).
  cycles fallback_penalty = 4;
  /// Cycles a denied cross-domain access costs (the firewall's bus-error
  /// response). Denials never touch the lower port.
  cycles fault_cycles = 8;
};

/// Per-engine counters.
struct engine_stats {
  u64 reads = 0;
  u64 writes = 0;
  u64 units = 0;          ///< data units transformed
  u64 rmw_ops = 0;        ///< partial-unit writes needing read-modify-write
  u64 fallbacks = 0;      ///< requests served by the software fallback
  u64 passthrough = 0;    ///< requests to unmapped (unprotected) regions
  u64 batches = 0;        ///< submit() calls served
  u64 batched_txns = 0;   ///< transactions carried by those batches
  u64 batch_native = 0;   ///< transactions taken by the pipelined batch path
  u64 domain_faults = 0;  ///< cross-domain accesses denied by the firewall
  u64 firewall_denials = 0; ///< spans refused by the per-master rule tables
  u64 integrity_faults = 0; ///< authenticated units that failed verification
  u64 reprogram_stalls = 0; ///< requests that waited for a demand key program
  cycles reprogram_stall_cycles = 0; ///< cycles those waits cost (in crypto_cycles)
  cycles crypto_cycles = 0;
};

/// Per-master counters of protected-region traffic (accesses through
/// mapped regions, by the master that issued them) plus denials.
struct domain_stats {
  u64 reads = 0;   ///< protected spans read by this master
  u64 writes = 0;  ///< protected spans written by this master
  u64 bytes = 0;   ///< payload bytes through protected regions
  u64 faults = 0;  ///< accesses denied (region bound to another master)
  u64 firewall_denials = 0; ///< spans this master's rule table refused
  u64 integrity_faults = 0; ///< tampered units this master fetched
};

/// Inline encryption stage between the cache level and external memory.
class bus_encryption_engine final : public sim::memory_port {
 public:
  using context_id = std::size_t;
  using master_id = sim::master_id;
  static constexpr context_id no_context = static_cast<context_id>(-1);
  /// Region owner sentinel: any master may access (a shared mapping).
  /// The one reserved id from sim/mem_txn.hpp — never a real master.
  static constexpr master_id any_master = sim::any_master;
  /// Fill byte a denied read returns — the bus-error pattern a firewall
  /// drives instead of data (never the region's plaintext).
  static constexpr u8 fault_fill = 0xFF;

  /// \param lower the external path (bus + DRAM); referenced, not owned.
  /// \param slots shared keyslot pool; referenced, not owned.
  bus_encryption_engine(sim::memory_port& lower, keyslot_manager& slots,
                        engine_config cfg = {});

  /// Register an encryption context. Validates the backend name, the key
  /// length, and that the data-unit size is a positive multiple of the
  /// backend granule. The granule probe builds one keyed instance (so the
  /// key schedule is expanded once here) and discards it; the keyslot
  /// that later serves the context expands its own.
  [[nodiscard]] context_id create_context(keyslot_key k);

  /// Drop a context and evict its key from the slot pool if idle.
  void destroy_context(context_id ctx);

  /// Protect [base, base+len) with \p ctx, accessible to every master.
  /// Later mappings win on overlap. Requests to unmapped addresses pass
  /// through in plaintext.
  void map_region(addr_t base, std::size_t len, context_id ctx);

  /// Protect [base, base+len) with \p ctx as \p owner's private domain:
  /// only transactions tagged with that master id may touch it. Like
  /// map_region, later mappings win — a domain binding carves its range
  /// out of any older shared mapping, and the denied range never falls
  /// through to the older context (that would leak plaintext).
  void bind_domain(master_id owner, addr_t base, std::size_t len, context_id ctx);

  /// The context protecting \p addr, or no_context (ownership-blind).
  [[nodiscard]] context_id context_at(addr_t addr) const noexcept;

  /// The context at \p addr and the length of the longest prefix of
  /// [addr, addr+len) it uniformly covers, ignoring domain ownership
  /// (the offline/trusted view). One pass over the region list.
  [[nodiscard]] std::pair<context_id, std::size_t> span_at(addr_t addr,
                                                           std::size_t len) const noexcept;

  /// One uniform span of a request as master \p m sees it: the covering
  /// context, the prefix length it uniformly covers (splitting at both
  /// context and ownership boundaries), and whether \p m is allowed in.
  struct access_span {
    context_id ctx = no_context;
    std::size_t len = 0;
    bool allowed = true;
  };
  [[nodiscard]] access_span span_for(master_id m, addr_t addr,
                                     std::size_t len) const noexcept;

  /// Guard \p ctx with an authentication scheme over cfg's window (see
  /// memory_authenticator). The current external content of the window is
  /// sealed at attach, so a clean run never faults; every later store
  /// through the engine keeps tags / tree / redundancy in sync. Composes
  /// with everything the context already does: keyslots (AREA runs inside
  /// the context's own leased cipher), protection domains (a tampered
  /// fetch is charged to the issuing master's integrity_faults) and the
  /// batched pipeline (tag traffic rides the same lower batches).
  /// \throws std::invalid_argument for a dead context, a second attach,
  ///         mode none, AREA on a backend without block diffusion
  ///         (pad-precomputable CTR/stream modes), or any window/tag
  ///         geometry the authenticator rejects.
  memory_authenticator& attach_auth(context_id ctx, auth_config cfg);

  /// The authenticator guarding \p ctx, or nullptr (auth_mode none).
  [[nodiscard]] memory_authenticator* auth_of(context_id ctx) noexcept {
    return ctx < auths_.size() ? auths_[ctx].get() : nullptr;
  }
  [[nodiscard]] const memory_authenticator* auth_of(context_id ctx) const noexcept {
    return ctx < auths_.size() ? auths_[ctx].get() : nullptr;
  }

  /// Master whose scalar read()/write() calls are being served: always
  /// sim::cpu_master, except while submit() detours a tagged transaction
  /// through the scalar datapath (the batch path tags transactions, so
  /// there is deliberately no public setter — the firewall subject cannot
  /// be switched from outside).
  [[nodiscard]] master_id active_master() const noexcept { return active_master_; }

  /// Attach the interconnect's bus firewall: every request is checked
  /// against it *before* the protection-domain map — Cotret et al.'s rule
  /// tables sit at the master's bus interface, in front of the EDU, so a
  /// denied span never reaches span_for (reads get the fault_fill
  /// bus-error pattern, writes are dropped, fault_cycles charged).
  /// Referenced, not owned; nullptr detaches (the PR 3 behaviour).
  void set_firewall(sim::bus_firewall* fw) noexcept { fw_ = fw; }
  [[nodiscard]] sim::bus_firewall* firewall() const noexcept { return fw_; }

  /// Per-master traffic/denial counters (empty stats for unseen masters).
  [[nodiscard]] domain_stats domain(master_id m) const noexcept;

  // --- memory_port: the timed, functional datapath -------------------------
  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path. Per batch: every referenced context resolves to a
  /// keyslot once (slots are pinned and programmed at most once, however
  /// many transactions share them), write units are enciphered or sealed
  /// up front, the whole batch goes to the lower port as one submission
  /// (multi-bank overlap composes), and read units decipher as the data
  /// lands — so the crypto pipeline runs concurrently with the bus
  /// schedule and the batch costs max(mem, crypto) instead of their sum.
  /// Transactions that need unit-unaligned, unmapped or hash-tree handling
  /// drop to the scalar path without breaking functional order (pending
  /// lower work is flushed first).
  void submit(std::span<sim::mem_txn> batch) override;

  // --- offline paths (no simulated time) -----------------------------------
  /// Install a plaintext image through the encrypt path ("memory content
  /// ciphering can be done offline", Section 2.1).
  void install(addr_t base, std::span<const u8> plain);
  /// Plaintext view through the decrypt path (verification hook).
  void read_plain(addr_t base, std::span<u8> out);

  [[nodiscard]] const engine_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] keyslot_manager& slots() noexcept { return *slots_; }
  [[nodiscard]] const keyslot_key& context_key(context_id ctx) const;

 private:
  struct region {
    addr_t base = 0;
    std::size_t len = 0;
    context_id ctx = no_context;
    master_id owner = any_master; ///< any_master = shared mapping
  };

  /// A keyslot held for the duration of one request or one batch, or the
  /// software fallback when the pool is pinned out. The single home of the
  /// acquire/program-cost/fallback protocol: the scalar and batched
  /// datapaths both lease here and both transform through crypt_units, so
  /// their timing and stats cannot drift apart.
  struct slot_lease {
    std::unique_ptr<slot_guard> guard;      ///< pins the hardware slot
    std::unique_ptr<keyed_cipher> software; ///< fallback instance, if used
    keyed_cipher* kc = nullptr;
    bool fallback = false;
    cycles setup = 0; ///< slot-program cycles charged (0 on a warm hit)
  };

  /// With \p hw_only, a pinned-out pool returns a lease whose kc is null
  /// instead of falling back or throwing — the batch path probes this way
  /// so it can retire its window and retry before giving up.
  /// \throws std::runtime_error when the pool is pinned, fallback is off
  ///         and \p hw_only is false.
  [[nodiscard]] slot_lease lease_slot(const keyslot_key& k, bool charge_time,
                                      bool hw_only = false);

  /// One mapped-region segment of a request, expressed in covering units.
  /// A unit that fails verification gets the bus-error fill; on a partial
  /// write that fill is what gets merged and re-sealed.
  [[nodiscard]] cycles crypt_span(context_id ctx, addr_t addr, std::span<u8> data,
                                  bool is_write, bool charge_time);

  /// Charge one verified-failed unit: engine + per-master counters, the
  /// bus-error fill already applied by the caller.
  void note_integrity_fault(master_id m);

  [[nodiscard]] cycles transform_units(keyed_cipher& kc, const keyslot_key& k,
                                       addr_t unit_base, std::span<u8> buf,
                                       bool encrypt, bool fallback, bool charge);

  /// The engine's one per-unit datapath over whole units at \p unit_base:
  /// units \p area covers are sealed or unsealed in place (AREA's
  /// expanded payload through the leased cipher), every other unit goes
  /// through transform_units. An unseal whose nonce check fails is
  /// appended to \p bad; the caller applies the fault fill and charges
  /// it. \p snaps, when given, holds one staging-order snapshot per
  /// covered unit (the batch path); otherwise the live state is used.
  [[nodiscard]] cycles crypt_units(memory_authenticator* area, keyed_cipher& kc,
                                   const keyslot_key& k, addr_t unit_base,
                                   std::span<u8> buf, bool encrypt, bool fallback,
                                   bool charge, std::vector<std::span<u8>>& bad,
                                   std::span<const memory_authenticator::area_staged>
                                       snaps = {});

  /// Record protected-region traffic (or a denial) against \p m.
  void note_domain(master_id m, bool is_write, std::size_t n, bool fault);

  /// Charge one firewall-denied span: engine + per-master counters (the
  /// bus_firewall's own per-rule counters were bumped by check()).
  void note_firewall(master_id m);

  /// \p m's counters, created on first sight (few masters: linear scan).
  [[nodiscard]] domain_stats& domain_slot(master_id m);

  sim::memory_port* lower_;
  keyslot_manager* slots_;
  engine_config cfg_;
  std::vector<keyslot_key> contexts_;
  std::vector<bool> context_live_;
  std::vector<std::unique_ptr<memory_authenticator>> auths_; ///< by context id
  std::vector<region> regions_;
  std::vector<std::pair<master_id, domain_stats>> domains_; ///< few masters: linear
  sim::bus_firewall* fw_ = nullptr; ///< checked before span_for when attached
  master_id active_master_ = sim::cpu_master;
  engine_stats stats_;
};

} // namespace buscrypt::engine
