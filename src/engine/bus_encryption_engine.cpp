#include "engine/bus_encryption_engine.hpp"

#include "common/bitops.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace buscrypt::engine {

bus_encryption_engine::bus_encryption_engine(sim::memory_port& lower,
                                             keyslot_manager& slots, engine_config cfg)
    : lower_(&lower), slots_(&slots), cfg_(cfg) {}

bus_encryption_engine::context_id bus_encryption_engine::create_context(keyslot_key k) {
  const cipher_backend& backend = slots_->registry().at(k.backend);
  if (!backend.key_len_ok(k.key.size()))
    throw std::invalid_argument("create_context: bad key length for backend " + k.backend);
  // Granule check needs a keyed instance's view; all our backends expose a
  // fixed granule independent of the key, so probe with the key itself.
  const auto probe = backend.make_keyed(k.key);
  if (k.data_unit_size == 0 || k.data_unit_size % probe->granule() != 0)
    throw std::invalid_argument("create_context: data_unit_size not a multiple of the "
                                "cipher granule for backend " + k.backend);
  if (k.data_unit_size > backend.max_data_unit_size())
    throw std::invalid_argument("create_context: data_unit_size exceeds the IV-safe "
                                "bound for backend " + k.backend +
                                " (CTR keystream would repeat across units)");
  contexts_.push_back(std::move(k));
  context_live_.push_back(true);
  auths_.push_back(nullptr);
  return contexts_.size() - 1;
}

void bus_encryption_engine::destroy_context(context_id ctx) {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("destroy_context: bad context id");
  context_live_[ctx] = false;
  std::erase_if(regions_, [ctx](const region& r) { return r.ctx == ctx; });
  auths_[ctx].reset();
  (void)slots_->evict(contexts_[ctx]); // best-effort: may be absent or busy
}

memory_authenticator& bus_encryption_engine::attach_auth(context_id ctx,
                                                         auth_config cfg) {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("attach_auth: bad context id");
  if (auths_[ctx] != nullptr)
    throw std::invalid_argument("attach_auth: context already authenticated");
  const keyslot_key& k = contexts_[ctx];
  if (cfg.mode == auth_mode::area) {
    // AREA's check IS the block cipher's diffusion: a pad-precomputable
    // mode (CTR, stream) XORs bit-for-bit, so a flipped ciphertext bit
    // would flip exactly one plaintext bit and leave every nonce slice
    // intact. Reject those up front.
    const auto probe = slots_->registry().at(k.backend).make_keyed(k.key);
    if (probe->pad_precomputable())
      throw std::invalid_argument("attach_auth: AREA needs a diffusing block mode "
                                  "(got pad-precomputable backend " + k.backend + ")");
    if (cfg.tag_bytes >= probe->granule())
      throw std::invalid_argument("attach_auth: AREA redundancy must leave data "
                                  "capacity in every cipher block");
  }
  auths_[ctx] = std::make_unique<memory_authenticator>(*lower_, std::move(cfg),
                                                       k.data_unit_size);
  memory_authenticator& auth = *auths_[ctx];
  if (auth.mode() == auth_mode::area) {
    // Seal the window in place: reinterpret the current external bytes
    // through the context's normal decrypt, then re-store them in the
    // expanded AREA format at version 0. Offline, like install().
    const std::size_t du = k.data_unit_size;
    slot_lease lease = lease_slot(k, /*charge_time=*/false);
    bytes plain(du), ct(du);
    for (addr_t a = auth.config().base; a < auth.config().limit; a += du) {
      (void)lower_->read(a, plain);
      (void)transform_units(*lease.kc, k, a, plain, /*encrypt=*/false, lease.fallback,
                            /*charge=*/false);
      (void)auth.area_encipher(*lease.kc, a, plain, ct, /*initial=*/true,
                               /*charge=*/false);
      (void)lower_->write(a, ct);
    }
  } else {
    auth.seal_from_memory();
  }
  return auth;
}

void bus_encryption_engine::note_integrity_fault(master_id m) {
  ++stats_.integrity_faults;
  ++domain_slot(m).integrity_faults;
}

void bus_encryption_engine::map_region(addr_t base, std::size_t len, context_id ctx) {
  if (ctx != no_context && (ctx >= contexts_.size() || !context_live_[ctx]))
    throw std::out_of_range("map_region: bad context id");
  if (ctx != no_context && base % contexts_[ctx].data_unit_size != 0)
    throw std::invalid_argument("map_region: base not data-unit aligned");
  regions_.push_back({base, len, ctx, any_master});
}

void bus_encryption_engine::bind_domain(master_id owner, addr_t base, std::size_t len,
                                        context_id ctx) {
  if (owner == any_master)
    throw std::invalid_argument("bind_domain: owner must be a concrete master "
                                "(use map_region for shared mappings)");
  map_region(base, len, ctx); // same validation + later-mapping-wins order
  regions_.back().owner = owner;
}

bus_encryption_engine::context_id
bus_encryption_engine::context_at(addr_t addr) const noexcept {
  // Later mappings win: scan newest-first.
  for (auto it = regions_.rbegin(); it != regions_.rend(); ++it)
    if (addr >= it->base && addr - it->base < it->len) return it->ctx;
  return no_context;
}

std::pair<bus_encryption_engine::context_id, std::size_t>
bus_encryption_engine::span_at(addr_t addr, std::size_t len) const noexcept {
  // The trusted, ownership-blind resolution (offline install/readback):
  // same span splitting, access check discarded.
  const access_span s = span_for(any_master, addr, len);
  return {s.ctx, s.len};
}

bus_encryption_engine::access_span
bus_encryption_engine::span_for(master_id m, addr_t addr, std::size_t len) const noexcept {
  // Winning region = newest one containing addr (its index bounds which
  // later mappings can still override parts of the span). Ownership rides
  // the region, so domain boundaries and context boundaries split spans
  // identically.
  std::size_t win = regions_.size();
  for (std::size_t i = regions_.size(); i-- > 0;) {
    const region& r = regions_[i];
    if (addr >= r.base && addr - r.base < r.len) {
      win = i;
      break;
    }
  }
  addr_t end = addr + len;
  access_span out;
  if (win != regions_.size()) {
    const region& r = regions_[win];
    out.ctx = r.ctx;
    // Only the region's owner (or anyone, on a shared mapping) gets in.
    // any_master is never trusted here: owners are always concrete ids,
    // so a request forged with the sentinel can match no owned region —
    // the trusted ownership-blind view exists only behind span_at(),
    // which the untrusted datapaths never call with attacker-controlled
    // masters.
    out.allowed = r.owner == any_master || r.owner == m;
    end = std::min<addr_t>(end, r.base + r.len);
  }
  // Any newer region starting inside (addr, end) changes the context there.
  for (std::size_t j = (win == regions_.size() ? 0 : win + 1); j < regions_.size(); ++j)
    if (regions_[j].base > addr && regions_[j].base < end) end = regions_[j].base;
  out.len = static_cast<std::size_t>(end - addr);
  return out;
}

domain_stats bus_encryption_engine::domain(master_id m) const noexcept {
  for (const auto& [id, st] : domains_)
    if (id == m) return st;
  return {};
}

domain_stats& bus_encryption_engine::domain_slot(master_id m) {
  for (auto& [id, s] : domains_)
    if (id == m) return s;
  return domains_.emplace_back(m, domain_stats{}).second;
}

void bus_encryption_engine::note_domain(master_id m, bool is_write, std::size_t n,
                                        bool fault) {
  domain_stats& st = domain_slot(m);
  if (fault) {
    ++st.faults;
    ++stats_.domain_faults;
    return;
  }
  if (is_write) ++st.writes;
  else ++st.reads;
  st.bytes += n;
}

void bus_encryption_engine::note_firewall(master_id m) {
  ++domain_slot(m).firewall_denials;
  ++stats_.firewall_denials;
}

const keyslot_key& bus_encryption_engine::context_key(context_id ctx) const {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("context_key: bad context id");
  return contexts_[ctx];
}

cycles bus_encryption_engine::transform_units(keyed_cipher& kc, const keyslot_key& k,
                                              addr_t unit_base, std::span<u8> buf,
                                              bool encrypt, bool fallback, bool charge) {
  const std::size_t du = k.data_unit_size;
  cycles t = 0;
  // Whole-unit prefix in one bulk call: the backend sees the entire run
  // (bitsliced DES, batched ESSIV IVs, windowed CTR pads) instead of one
  // unit at a time. A pad-precomputable backend needs only the DUNs, so
  // its run is one generate_pads keystream XORed in u64-wide. Charging is
  // per full unit with the same formula as the scalar loop below, so
  // simulated cycles are bit-identical.
  std::size_t off = 0;
  const std::size_t whole =
      unit_base % du == 0 ? buf.size() - buf.size() % du : 0;
  if (whole != 0) {
    std::span<u8> run = buf.first(whole);
    if (kc.pad_precomputable()) {
      bytes pad(whole);
      kc.generate_pads(unit_base / du, du, pad);
      xor_bytes(run, pad);
    } else if (encrypt) {
      kc.encrypt_units(unit_base / du, du, run, run);
    } else {
      kc.decrypt_units(unit_base / du, du, run, run);
    }
    off = whole;
    if (charge) {
      const cycles n = static_cast<cycles>(whole / du);
      cycles c = kc.unit_cost(du, encrypt);
      if (fallback) c *= cfg_.fallback_penalty;
      t += c * n;
      stats_.crypto_cycles += c * n;
      stats_.units += static_cast<u64>(n);
    }
  }
  for (; off < buf.size(); off += du) {
    const std::size_t n = std::min(du, buf.size() - off);
    const u64 dun = (unit_base + off) / du;
    std::span<u8> unit = buf.subspan(off, n);
    if (encrypt) kc.encrypt_unit(dun, unit, unit);
    else kc.decrypt_unit(dun, unit, unit);
    if (charge) {
      cycles c = kc.unit_cost(n, encrypt);
      if (fallback) c *= cfg_.fallback_penalty;
      t += c;
      stats_.crypto_cycles += c;
      ++stats_.units;
    }
  }
  return t;
}

cycles bus_encryption_engine::crypt_units(
    memory_authenticator* area, keyed_cipher& kc, const keyslot_key& k, addr_t unit_base,
    std::span<u8> buf, bool encrypt, bool fallback, bool charge,
    std::vector<std::span<u8>>& bad,
    std::span<const memory_authenticator::area_staged> snaps) {
  if (area == nullptr)
    return transform_units(kc, k, unit_base, buf, encrypt, fallback, charge);
  const std::size_t du = k.data_unit_size;
  cycles t = 0;
  std::size_t snap = 0;
  for (std::size_t off = 0; off < buf.size(); off += du) {
    const addr_t ua = unit_base + off;
    std::span<u8> unit = buf.subspan(off, du);
    if (!area->covers(ua)) {
      t += transform_units(kc, k, ua, unit, encrypt, fallback, charge);
      continue;
    }
    // AREA's expanded payload through the leased cipher, in place; the
    // unseal checks every block's nonce slice on the way.
    cycles c = 0;
    if (encrypt) {
      c = area->area_encipher(kc, ua, unit, unit, /*initial=*/false, charge);
    } else {
      const auto cr = snaps.empty()
                          ? area->area_finish(kc, ua, unit, unit, area->area_prepare(ua),
                                              charge)
                          : area->area_finish(kc, ua, unit, unit, snaps[snap++], charge);
      c = cr.compute;
      if (!cr.ok) bad.push_back(unit);
    }
    if (charge) {
      t += c;
      stats_.crypto_cycles += c;
      ++stats_.units;
    }
  }
  return t;
}

bus_encryption_engine::slot_lease
bus_encryption_engine::lease_slot(const keyslot_key& k, bool charge_time, bool hw_only) {
  slot_lease lease;
  // A stall is charged only for *demand* programs (cold or displacing);
  // prefetch refills expand their schedules in idle time, so a hit on a
  // prefetched slot stays free — that is the policy's whole payoff.
  const keyslot_stats& ks = slots_->stats();
  const u64 demand_before = ks.cold_programs + ks.reprograms;
  lease.guard = std::make_unique<slot_guard>(*slots_, k);
  if (lease.guard->valid()) {
    lease.kc = &lease.guard->keyed();
    if (charge_time && ks.cold_programs + ks.reprograms != demand_before) {
      lease.setup = cfg_.slot_program_cycles;
      stats_.crypto_cycles += cfg_.slot_program_cycles;
      ++stats_.reprogram_stalls;
      stats_.reprogram_stall_cycles += cfg_.slot_program_cycles;
    }
    return lease;
  }
  if (hw_only) {
    lease.guard.reset(); // caller retires its window and retries
    return lease;
  }
  // Fall back to a software one-shot cipher when the pool is pinned out.
  if (!cfg_.allow_fallback)
    throw std::runtime_error("bus_encryption_engine: keyslot pool exhausted and "
                             "fallback disabled");
  lease.software = slots_->registry().at(k.backend).make_keyed(k.key);
  lease.kc = lease.software.get();
  lease.fallback = true;
  ++stats_.fallbacks;
  return lease;
}

cycles bus_encryption_engine::crypt_span(context_id ctx, addr_t addr, std::span<u8> data,
                                         bool is_write, bool charge_time) {
  const keyslot_key& k = contexts_[ctx];
  const std::size_t du = k.data_unit_size;
  const addr_t a0 = addr / du * du;                      // covering range, unit aligned
  const addr_t a1 = (addr + data.size() + du - 1) / du * du;
  const bool head_partial = addr != a0;
  const bool tail_partial = addr + data.size() != a1;

  slot_lease lease = lease_slot(k, charge_time);
  cycles t = lease.setup;

  // AREA checks inside the per-unit transform; mac/hash_tree check the
  // stored ciphertext against tags / the tree beside it.
  memory_authenticator* auth = auths_[ctx].get();
  memory_authenticator* area =
      auth != nullptr && auth->mode() == auth_mode::area ? auth : nullptr;
  memory_authenticator* tags = area == nullptr ? auth : nullptr;

  bytes cover(static_cast<std::size_t>(a1 - a0));
  std::vector<std::span<u8>> bad; // units that failed verification

  // Fetch whole units and decipher them in place. mac/hash_tree verify
  // the *ciphertext* of each covered unit before it is consumed.
  auto fetch = [&](addr_t ua, std::span<u8> buf) {
    t += lower_->read(ua, buf);
    if (tags != nullptr)
      for (std::size_t off = 0; off < buf.size(); off += du) {
        if (!tags->covers(ua + off)) continue;
        const auto cr = tags->verify_unit(ua + off, buf.subspan(off, du), charge_time);
        t += cr.bus + cr.compute;
        if (!cr.ok) bad.push_back(buf.subspan(off, du));
      }
    t += crypt_units(area, *lease.kc, k, ua, buf, /*encrypt=*/false, lease.fallback,
                     charge_time, bad);
  };
  // A failed unit is counted against the issuing master and its plaintext
  // is replaced by the bus-error fill (the CPU must never consume it). On
  // a partial write the fill is merged and re-sealed like any plaintext.
  auto fault_bad = [&] {
    for (const std::span<u8> unit : bad) {
      std::fill(unit.begin(), unit.end(), fault_fill);
      note_integrity_fault(active_master_);
      if (charge_time) t += cfg_.fault_cycles;
    }
    bad.clear();
  };

  if (!is_write) {
    fetch(a0, cover);
    fault_bad();
    std::copy_n(cover.begin() + static_cast<std::ptrdiff_t>(addr - a0), data.size(),
                data.begin());
    return t;
  }

  // Write path. Partial edge units trigger the paper's five-step penalty:
  // read, decipher, modify, re-cipher, write back.
  if (head_partial) {
    fetch(a0, std::span<u8>(cover.data(), du));
    ++stats_.rmw_ops;
  }
  if (tail_partial && (a1 - a0 > du || !head_partial)) {
    fetch(a1 - du, std::span<u8>(cover.data() + cover.size() - du, du));
    ++stats_.rmw_ops; // guard above ensures this unit was not the head RMW
  }
  fault_bad();
  std::copy(data.begin(), data.end(),
            cover.begin() + static_cast<std::ptrdiff_t>(addr - a0));
  t += crypt_units(area, *lease.kc, k, a0, cover, /*encrypt=*/true, lease.fallback,
                   charge_time, bad);
  if (tags != nullptr)
    for (std::size_t off = 0; off < cover.size(); off += du) {
      const addr_t ua = a0 + off;
      if (!tags->covers(ua)) continue;
      const auto cr =
          tags->update_unit(ua, std::span<const u8>(cover).subspan(off, du), charge_time);
      t += cr.bus + cr.compute;
      if (!cr.ok) { // hash_tree caught a tampered stored path on the write walk
        note_integrity_fault(active_master_);
        if (charge_time) t += cfg_.fault_cycles;
      }
    }
  t += lower_->write(a0, cover);
  return t;
}

cycles bus_encryption_engine::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  cycles t = 0;
  std::size_t off = 0;
  while (off < out.size()) {
    std::size_t lim = out.size() - off;
    if (fw_ != nullptr) {
      // Rule tables sit in front of the domain map: a denied span is the
      // bus-error fill, never plaintext, and span_for is not consulted.
      const sim::fw_span fd = fw_->check(active_master_, addr + off, lim,
                                         /*is_write=*/false);
      if (!fd.allowed) {
        std::span<u8> part = out.subspan(off, fd.len);
        std::fill(part.begin(), part.end(), fault_fill);
        note_firewall(active_master_);
        t += cfg_.fault_cycles;
        off += fd.len;
        continue;
      }
      lim = fd.len;
    }
    const access_span s = span_for(active_master_, addr + off, lim);
    std::span<u8> part = out.subspan(off, s.len);
    if (!s.allowed) {
      // Firewall denial: bus-error fill, never the domain's plaintext,
      // and the request is blocked on-chip (no lower traffic to probe).
      std::fill(part.begin(), part.end(), fault_fill);
      note_domain(active_master_, /*is_write=*/false, s.len, /*fault=*/true);
      t += cfg_.fault_cycles;
    } else if (s.ctx == no_context) {
      t += lower_->read(addr + off, part);
      ++stats_.passthrough;
    } else {
      t += crypt_span(s.ctx, addr + off, part, /*is_write=*/false, true);
      note_domain(active_master_, /*is_write=*/false, s.len, /*fault=*/false);
    }
    off += s.len;
  }
  return t;
}

cycles bus_encryption_engine::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  cycles t = 0;
  std::size_t off = 0;
  while (off < in.size()) {
    std::size_t lim = in.size() - off;
    if (fw_ != nullptr) {
      const sim::fw_span fd = fw_->check(active_master_, addr + off, lim,
                                         /*is_write=*/true);
      if (!fd.allowed) {
        // Denied writes are dropped whole, like domain denials below.
        note_firewall(active_master_);
        t += cfg_.fault_cycles;
        off += fd.len;
        continue;
      }
      lim = fd.len;
    }
    const access_span s = span_for(active_master_, addr + off, lim);
    if (!s.allowed) {
      // Denied writes are dropped whole: the owning domain's ciphertext
      // (and plaintext) is untouched.
      note_domain(active_master_, /*is_write=*/true, s.len, /*fault=*/true);
      t += cfg_.fault_cycles;
    } else if (s.ctx == no_context) {
      t += lower_->write(addr + off, in.subspan(off, s.len));
      ++stats_.passthrough;
    } else {
      bytes tmp(in.begin() + static_cast<std::ptrdiff_t>(off),
                in.begin() + static_cast<std::ptrdiff_t>(off + s.len));
      t += crypt_span(s.ctx, addr + off, tmp, /*is_write=*/true, true);
      note_domain(active_master_, /*is_write=*/true, s.len, /*fault=*/false);
    }
    off += s.len;
  }
  return t;
}

void bus_encryption_engine::submit(std::span<sim::mem_txn> batch) {
  ++stats_.batches;
  stats_.batched_txns += batch.size();

  // One keyslot resolution per context per batch: the lease pins the slot
  // (refcount) for the whole batch, so the program cost is paid at most
  // once however many transactions share the context.
  // Running batch clock: slot setup, flush makespans and scalar detours
  // accrue here in issue order, so each txn can be stamped with its own
  // completion time (relative to the last drain(), per the contract).
  const cycles base = pending_txn_cycles_;
  cycles clock = 0;

  std::vector<std::pair<context_id, slot_lease>> live;
  // Lookup-only: pin() below guarantees every staged context is in `live`,
  // and a fresh lease here would bypass the contention-retirement protocol.
  auto resolve = [&](context_id ctx) -> std::pair<keyed_cipher*, bool> {
    for (auto& [id, lease] : live)
      if (id == ctx) return {lease.kc, lease.fallback};
    throw std::logic_error("bus_encryption_engine: context staged without a pin");
  };
  // Hardware-only pin for the native path: never commits to the software
  // fallback, so contention can be handled by retiring the window instead.
  auto pin = [&](context_id ctx) -> bool {
    for (auto& [id, lease] : live)
      if (id == ctx) return true;
    slot_lease lease = lease_slot(contexts_[ctx], /*charge_time=*/true, /*hw_only=*/true);
    if (lease.kc == nullptr) return false;
    clock += lease.setup;
    live.emplace_back(ctx, std::move(lease));
    return true;
  };

  // Staged ciphertext for write segments; reserved up front so the spans
  // handed to the lower batch stay valid.
  std::size_t write_segs = 0;
  for (const sim::mem_txn& txn : batch)
    if (txn.is_write()) write_segs += txn.segments.size();
  std::vector<bytes> staged;
  staged.reserve(write_segs);

  struct post_read {
    keyed_cipher* kc;
    const keyslot_key* key;
    addr_t addr;
    std::span<u8> data;
    bool fallback;
    std::size_t txn_idx; ///< owning entry in `lower`, for its arrival time
    memory_authenticator* area = nullptr; ///< set when the segment unseals AREA units
    master_id master = sim::cpu_master;   ///< for integrity-fault attribution
    /// Staging-order unseal snapshots, one per covered unit in segment
    /// order: a later in-batch write of the unit must not bleed its bumped
    /// version / new sideband into this read's verify.
    std::vector<memory_authenticator::area_staged> area_snaps;
  };
  std::vector<sim::mem_txn> lower;
  std::vector<sim::mem_txn*> flush_txns; ///< batch txns aligned with `lower`;
                                         ///< null for auth (tag) side traffic
  std::vector<post_read> posts;
  std::vector<std::span<u8>> bad; ///< units that failed verification this flush
  cycles par_crypto = 0; ///< pad-precomputable work pending in this flush
  cycles engine_pre = 0; ///< data-dependent encipher staged before submission
  cycles mac_pre = 0;    ///< write tags staged on the serial MAC unit

  // Authentication side-channel of the same lower batch: tag lines to
  // fetch (deduped per flush), staged tag/scratch buffers (stable storage
  // — lower txns hold spans into them), and the verifies to finish once
  // data and tags arrive.
  std::deque<bytes> aux;
  struct tag_fetch {
    addr_t line = 0;
    std::size_t lower_idx = 0; ///< assigned when the fetch txn is pushed
    bytes* buf = nullptr;
  };
  std::vector<tag_fetch> tag_fetches;
  std::unordered_map<addr_t, std::size_t> tagline_map; ///< line -> tag_fetches idx
  struct pending_ver {
    memory_authenticator* auth = nullptr;
    memory_authenticator::staged_verify sv;
    std::size_t data_idx = 0; ///< entry in `lower` carrying the unit
    std::span<u8> ct;         ///< the unit inside the segment buffer
    std::ptrdiff_t fetch_idx = -1; ///< into tag_fetches; -1 = cache snapshot
    master_id master = sim::cpu_master;
  };
  std::vector<pending_ver> pending;

  // Ship the accumulated lower batch and decipher the reads it carried.
  // Called before any scalar detour so functional order is preserved.
  // Timing: pad-precomputable crypto (CTR/stream) needs only the DUN, so it
  // runs in parallel with the fetch (Fig. 2a) and the flush costs the max of
  // the two. Data-dependent crypto (ECB/CBC decrypt) runs on one serial
  // cipher core and each unit cannot start before its own data arrives, so
  // it pipelines against *later* fetches but its tail is never hidden — a
  // single-txn batch degenerates to the scalar mem + crypto.
  auto flush_lower = [&] {
    if (lower.empty()) return;
    lower_->submit(lower);
    const cycles mem_span = lower_->drain();
    // Per-lower-txn finish: data arrival, pushed later by any serial
    // decipher it still owes.
    std::vector<cycles> finish(lower.size());
    for (std::size_t i = 0; i < lower.size(); ++i) finish[i] = lower[i].complete_cycle;

    // MAC verifies first, over the ciphertext as it arrived and before the
    // decrypt pass consumes it. The MAC unit is serial: each verify starts
    // once its data AND its tag line have arrived (the overlap with other
    // transactions' fetches is the point of riding the batch). A failed
    // unit is charged to its issuing master here and filled after the
    // decrypt pass, so the fill survives it.
    cycles mac_done = mac_pre;
    for (pending_ver& pv : pending) {
      cycles arrive = finish[pv.data_idx];
      std::span<const u8> line{};
      if (pv.fetch_idx >= 0) {
        const tag_fetch& tf = tag_fetches[static_cast<std::size_t>(pv.fetch_idx)];
        arrive = std::max(arrive, lower[tf.lower_idx].complete_cycle);
        line = *tf.buf;
      }
      const auto cr = pv.auth->batch_finish_verify(pv.sv, pv.ct, line, /*charge=*/true);
      mac_done = std::max(mac_done, arrive) + cr.compute;
      finish[pv.data_idx] = std::max(finish[pv.data_idx], mac_done);
      if (!cr.ok) {
        bad.push_back(pv.ct);
        note_integrity_fault(pv.master);
      }
    }

    // Pad-precomputable reads (CTR, streams) generate the segment's whole
    // pad in one call and XOR it on arrival, in parallel with the fetch.
    // Everything else — block-mode decipher, AREA unseal — runs on the
    // serial core, gated on the segment's own data arrival.
    cycles engine_done = engine_pre;
    for (post_read& pr : posts) {
      const std::size_t seen = bad.size();
      const cycles c = crypt_units(pr.area, *pr.kc, *pr.key, pr.addr, pr.data,
                                   /*encrypt=*/false, pr.fallback, /*charge=*/true, bad,
                                   pr.area_snaps);
      for (std::size_t i = seen; i < bad.size(); ++i) note_integrity_fault(pr.master);
      if (pr.kc->pad_precomputable()) {
        par_crypto += c;
      } else {
        engine_done = std::max(engine_done, lower[pr.txn_idx].complete_cycle) + c;
        finish[pr.txn_idx] = std::max(finish[pr.txn_idx], engine_done);
      }
    }
    for (const std::span<u8> unit : bad) std::fill(unit.begin(), unit.end(), fault_fill);
    cycles mono = 0; // in-order retirement: stamps stay monotone
    for (std::size_t i = 0; i < lower.size(); ++i) {
      mono = std::max(mono, finish[i]);
      if (flush_txns[i] != nullptr) flush_txns[i]->complete_cycle = base + clock + mono;
    }
    clock += std::max({mem_span, par_crypto, engine_done, mac_done});
    // Staged tags are all in DRAM and the cache now: retire the forwarding
    // window on every authenticator this batch may have touched.
    for (const auto& auth : auths_)
      if (auth != nullptr && auth->mode() == auth_mode::mac) auth->batch_flush_done();
    lower.clear();
    flush_txns.clear();
    posts.clear();
    bad.clear();
    pending.clear();
    tag_fetches.clear();
    tagline_map.clear();
    par_crypto = 0;
    engine_pre = 0;
    mac_pre = 0;
  };

  std::vector<context_id> seg_ctx; // eligibility-pass span_for results, reused below
  for (sim::mem_txn& txn : batch) {
    // The pipelined path handles whole data units inside one context; a
    // txn needing RMW, region splits, passthrough or a domain denial
    // detours via the scalar datapath (which counts its own reads/writes
    // and serves the fault fill under the txn's master).
    seg_ctx.clear();
    bool eligible = !txn.segments.empty();
    for (const sim::txn_segment& seg : txn.segments) {
      if (fw_ != nullptr) {
        // peek, not check: the counting check happens exactly once per
        // served span — at staging below, or inside the scalar detour.
        const sim::fw_span fd =
            fw_->peek(txn.master, seg.addr, seg.data.size(), txn.is_write());
        if (!fd.allowed || fd.len != seg.data.size()) {
          eligible = false;
          break;
        }
      }
      const access_span s = span_for(txn.master, seg.addr, seg.data.size());
      if (!s.allowed || s.ctx == no_context || s.len != seg.data.size()) {
        eligible = false;
        break;
      }
      const std::size_t du = contexts_[s.ctx].data_unit_size;
      if (seg.addr % du != 0 || seg.data.size() % du != 0) {
        eligible = false;
        break;
      }
      // Hash-tree verification is a causally serial walk (each level needs
      // the one below), so tree-guarded units take the scalar datapath.
      const memory_authenticator* a = auths_[s.ctx].get();
      if (a != nullptr && a->mode() == auth_mode::hash_tree &&
          seg.addr < a->config().limit && seg.addr + seg.data.size() > a->config().base) {
        eligible = false;
        break;
      }
      seg_ctx.push_back(s.ctx);
    }

    if (eligible) {
      // Pin every context this txn touches before staging any of it. A
      // pool miss first retires the window — flushing pending work and
      // releasing this batch's pins, the per-request release the scalar
      // path gets from its slot guards — then retries; a txn whose own
      // context set still cannot co-reside in the pool detours to the
      // scalar datapath, which leases (and may fall back) per segment
      // exactly as scalar issue would.
      for (int attempt = 0;; ++attempt) {
        bool missed = false;
        for (context_id ctx : seg_ctx)
          if (!pin(ctx)) {
            missed = true;
            break;
          }
        if (!missed) break;
        flush_lower();
        live.clear();
        if (attempt == 1) {
          eligible = false;
          break;
        }
      }
    }

    if (!eligible) {
      flush_lower();
      live.clear(); // release this batch's pins: the detour leases per request
      // The scalar datapath serves the detour as the txn's master, so
      // domain checks, fault fills and per-domain stats stay correct.
      // RAII swap: a throw mid-detour (e.g. pinned pool with fallback
      // off) must not leave the firewall subject stuck on this master.
      struct scoped_master {
        master_id* slot;
        master_id prev;
        scoped_master(master_id& s, master_id m) : slot(&s), prev(s) { s = m; }
        ~scoped_master() { *slot = prev; }
      } swap(active_master_, txn.master);
      for (sim::txn_segment& seg : txn.segments)
        clock += txn.is_write() ? write(seg.addr, std::span<const u8>(seg.data))
                                : read(seg.addr, seg.data);
      txn.complete_cycle = base + clock;
      continue;
    }

    ++stats_.batch_native;
    // One count per segment, matching scalar issue of the same ops.
    if (txn.is_write()) stats_.writes += txn.segments.size();
    else stats_.reads += txn.segments.size();
    sim::mem_txn lt;
    lt.id = txn.id;
    lt.op = txn.op;
    lt.master = txn.master; // attribution rides down to the bus beats
    lt.segments.reserve(txn.segments.size());
    // Tag side traffic this txn adds to the lower batch, pushed after the
    // data txn so the batch stays in submission order.
    std::vector<std::pair<addr_t, bytes*>> tag_writes;
    std::vector<std::size_t> new_fetches;
    for (std::size_t si = 0; si < txn.segments.size(); ++si) {
      sim::txn_segment& seg = txn.segments[si];
      const context_id ctx = seg_ctx[si];
      const auto [kc, fallback] = resolve(ctx);
      const keyslot_key& k = contexts_[ctx];
      memory_authenticator* auth = auths_[ctx].get();
      memory_authenticator* area =
          auth != nullptr && auth->mode() == auth_mode::area ? auth : nullptr;
      memory_authenticator* mac =
          auth != nullptr && auth->mode() == auth_mode::mac ? auth : nullptr;
      const std::size_t du = k.data_unit_size;
      if (fw_ != nullptr) // the allowed span's one counting check (rule hit)
        (void)fw_->check(txn.master, seg.addr, seg.data.size(), txn.is_write());
      note_domain(txn.master, txn.is_write(), seg.data.size(), /*fault=*/false);
      if (txn.is_write()) {
        bytes& ct = staged.emplace_back(seg.data.begin(), seg.data.end());
        const cycles c = crypt_units(area, *kc, k, seg.addr, ct, /*encrypt=*/true,
                                     fallback, /*charge=*/true, bad);
        // Write data is in hand at staging time: precomputable pads overlap
        // the bus; block-mode encipher and AREA seal occupy the serial core
        // up front.
        if (kc->pad_precomputable()) par_crypto += c;
        else engine_pre += c;
        if (mac != nullptr) // new tags ride the same lower batch
          for (std::size_t off = 0; off < ct.size(); off += du) {
            const addr_t ua = seg.addr + off;
            if (!mac->covers(ua)) continue;
            auto su = mac->batch_stage_update(
                ua, std::span<const u8>(ct).subspan(off, du), /*charge=*/true);
            mac_pre += su.compute;
            aux.emplace_back(std::move(su.tag));
            tag_writes.emplace_back(su.tag_addr, &aux.back());
          }
        lt.segments.push_back({seg.addr, std::span<u8>(ct)});
      } else {
        lt.segments.push_back(seg);
        posts.push_back(
            {kc, &k, seg.addr, seg.data, fallback, lower.size(), area, txn.master, {}});
        if (area != nullptr)
          for (std::size_t off = 0; off < seg.data.size(); off += du) {
            const addr_t ua = seg.addr + off;
            if (area->covers(ua))
              posts.back().area_snaps.push_back(area->area_prepare(ua));
          }
        if (mac != nullptr)
          for (std::size_t off = 0; off < seg.data.size(); off += du) {
            const addr_t ua = seg.addr + off;
            if (!mac->covers(ua)) continue;
            pending_ver pv{mac, mac->batch_prepare_verify(ua), lower.size(),
                           seg.data.subspan(off, du), -1, txn.master};
            if (!pv.sv.have_tag) {
              // One fetch per tag line per flush, shared by every unit
              // whose tag packs into it.
              const auto [it, inserted] =
                  tagline_map.try_emplace(pv.sv.tag_line, tag_fetches.size());
              if (inserted) {
                mac->note_batch_tag_fetch();
                aux.emplace_back(memory_authenticator::k_tag_line);
                tag_fetches.push_back({pv.sv.tag_line, 0, &aux.back()});
                new_fetches.push_back(it->second);
              }
              pv.fetch_idx = static_cast<std::ptrdiff_t>(it->second);
            }
            pending.push_back(std::move(pv));
          }
      }
    }
    lower.push_back(std::move(lt));
    flush_txns.push_back(&txn);
    // Tag traffic rides the same batch, attributed to the same master.
    for (const auto& [ta, buf] : tag_writes) {
      sim::mem_txn tt;
      tt.op = sim::txn_op::write;
      tt.master = txn.master;
      tt.segments.push_back({ta, std::span<u8>(*buf)});
      lower.push_back(std::move(tt));
      flush_txns.push_back(nullptr);
    }
    for (const std::size_t fi : new_fetches) {
      tag_fetches[fi].lower_idx = lower.size();
      sim::mem_txn tt;
      tt.op = sim::txn_op::read;
      tt.master = txn.master;
      tt.segments.push_back({tag_fetches[fi].line, std::span<u8>(*tag_fetches[fi].buf)});
      lower.push_back(std::move(tt));
      flush_txns.push_back(nullptr);
    }
  }
  flush_lower();

  // clock now holds slot setup + the causally-scheduled flush makespans +
  // scalar detours (which already folded their crypto into their own time).
  pending_txn_cycles_ += clock;
}

void bus_encryption_engine::install(addr_t base, std::span<const u8> plain) {
  std::size_t off = 0;
  while (off < plain.size()) {
    const auto [ctx, n] = span_at(base + off, plain.size() - off);
    if (ctx == no_context) {
      (void)lower_->write(base + off, plain.subspan(off, n));
    } else {
      bytes tmp(plain.begin() + static_cast<std::ptrdiff_t>(off),
                plain.begin() + static_cast<std::ptrdiff_t>(off + n));
      (void)crypt_span(ctx, base + off, tmp, /*is_write=*/true, false);
    }
    off += n;
  }
}

void bus_encryption_engine::read_plain(addr_t base, std::span<u8> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    const auto [ctx, n] = span_at(base + off, out.size() - off);
    std::span<u8> part = out.subspan(off, n);
    if (ctx == no_context) (void)lower_->read(base + off, part);
    else (void)crypt_span(ctx, base + off, part, /*is_write=*/false, false);
    off += n;
  }
}

} // namespace buscrypt::engine
