#include "update/update_agent.hpp"

#include "common/bitops.hpp"
#include "crypto/aes.hpp"
#include "crypto/mac.hpp"
#include "crypto/modes.hpp"
#include "crypto/rsa.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::update {

namespace {

constexpr std::size_t k_mac_bytes = 16;

void put_le64(bytes& out, u64 v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

u64 get_le64(std::span<const u8> in) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= u64{in[static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

} // namespace

// --- wire format -------------------------------------------------------------

bytes chunk_mac(const crypto::hmac_key& k, u64 version, u64 index,
                std::span<const u8> chunk) {
  u8 head[5 + 16] = {'c', 'h', 'u', 'n', 'k'};
  store_le64(head + 5, index);
  store_le64(head + 13, version);
  return k.tag({head, chunk}, k_mac_bytes);
}

bytes manifest_mac(const crypto::hmac_key& k, const update_package& up) {
  bytes msg;
  msg.reserve(8 + 24 + up.chunk_macs.size() * k_mac_bytes);
  for (const char c : {'m', 'a', 'n', 'i', 'f', 'e', 's', 't'})
    msg.push_back(static_cast<u8>(c));
  put_le64(msg, up.version);
  put_le64(msg, up.image_bytes);
  put_le64(msg, static_cast<u64>(up.chunk_bytes));
  for (const bytes& m : up.chunk_macs) msg.insert(msg.end(), m.begin(), m.end());
  return k.tag({msg}, k_mac_bytes);
}

update_package make_update_package(const bytes& image, u64 version,
                                   const crypto::rsa_public_key& em,
                                   keymgmt::insecure_channel& ch, rng& r,
                                   std::size_t chunk_bytes) {
  if (chunk_bytes == 0) throw std::invalid_argument("update package: chunk_bytes 0");
  update_package up;
  up.version = version;
  up.image_bytes = image.size();
  up.chunk_bytes = chunk_bytes;

  // The Fig. 1 symmetric/asymmetric split, verbatim.
  const bytes k = r.random_bytes(16);
  const crypto::hmac_key mac_k(k);
  up.wire.wrapped_session_key = crypto::rsa_wrap_key(em, k, r);
  up.wire.iv = r.random_bytes(16);
  const crypto::aes session_cipher(k);
  const bytes padded = crypto::pkcs7_pad(image, 16);
  up.wire.ciphered_image.resize(padded.size());
  crypto::cbc_encrypt(session_cipher, up.wire.iv, padded, up.wire.ciphered_image);

  // The manifest: chunk MACs over *plaintext* chunks (the device verifies
  // after deciphering through its session context), all keyed by K.
  for (std::size_t off = 0; off < image.size(); off += chunk_bytes) {
    const std::size_t n = std::min(chunk_bytes, image.size() - off);
    up.chunk_macs.push_back(
        chunk_mac(mac_k, version, off / chunk_bytes,
                  std::span<const u8>(image).subspan(off, n)));
  }
  up.manifest_mac = manifest_mac(mac_k, up);

  ch.send("editor->device: K wrapped under Em", up.wire.wrapped_session_key);
  ch.send("editor->device: IV", up.wire.iv);
  ch.send("editor->device: update image under K", up.wire.ciphered_image);
  bytes manifest_wire = up.manifest_mac;
  for (const bytes& m : up.chunk_macs)
    manifest_wire.insert(manifest_wire.end(), m.begin(), m.end());
  ch.send("editor->device: manifest (version, chunk MACs)", manifest_wire);
  return up;
}

// --- journal -----------------------------------------------------------------

bytes update_journal::record_mac(std::span<const u8> body) const {
  return key_.tag({body}, 8);
}

bytes update_journal::encode_record(u64 seq, update_state st, u8 slot, u64 version,
                                    u64 image_bytes) const {
  bytes rec;
  rec.reserve(k_record_bytes);
  put_le64(rec, seq);
  rec.push_back(static_cast<u8>(st));
  rec.push_back(slot);
  put_le64(rec, version);
  put_le64(rec, image_bytes);
  const bytes mac = record_mac(rec);
  rec.insert(rec.end(), mac.begin(), mac.end());
  rec.resize(k_record_bytes, 0);
  return rec;
}

void update_journal::append(update_state st, u8 slot, u64 version, u64 image_bytes,
                            sim::fault_injector& fi) {
  const bytes rec = encode_record(records() + 1, st, slot, version, image_bytes);

  // The cell is claimed first, then written through the fault path: a cut
  // mid-record leaves a torn cell in place, exactly like real NVM.
  const std::size_t off = store_.size();
  store_.resize(off + k_record_bytes, 0);
  fi.nvm_write(std::span<u8>(store_).subspan(off, k_record_bytes), rec);
}

void update_journal::neutralize_torn_tail(sim::fault_injector& fi) {
  const std::size_t n = records();
  if (n == 0 || entries().back().valid) return;
  // Same seq the torn append claimed (1-based cell index): the chain stays
  // gapless, and only the journal-key holder can mint this marker.
  const bytes rec = encode_record(static_cast<u64>(n), update_state::torn,
                                  /*slot=*/0, /*version=*/0, /*image_bytes=*/0);
  fi.nvm_write(std::span<u8>(store_).subspan((n - 1) * k_record_bytes,
                                             k_record_bytes),
               rec);
}

std::vector<update_journal::entry> update_journal::entries() const {
  std::vector<entry> out;
  for (std::size_t off = 0; off + k_record_bytes <= store_.size();
       off += k_record_bytes) {
    const std::span<const u8> rec =
        std::span<const u8>(store_).subspan(off, k_record_bytes);
    entry e;
    e.seq = get_le64(rec);
    e.state = static_cast<update_state>(rec[8]);
    e.slot = rec[9];
    e.version = get_le64(rec.subspan(10));
    e.image_bytes = get_le64(rec.subspan(18));
    e.valid = rec[8] <= static_cast<u8>(update_state::torn) &&
              crypto::tag_equal(record_mac(rec.first(26)), rec.subspan(26, 8));
    out.push_back(e);
  }
  return out;
}

bool update_journal::tampered() const {
  for (const entry& e : entries())
    if (!e.valid) return true;
  return false;
}

std::optional<update_journal::entry> update_journal::last_valid() const {
  std::optional<entry> best;
  for (const entry& e : entries())
    if (e.valid && e.state != update_state::torn) best = e;
  return best;
}

std::optional<update_journal::entry> update_journal::last_committed() const {
  std::optional<entry> best;
  for (const entry& e : entries())
    if (e.valid && e.state == update_state::committed) best = e;
  return best;
}

// --- agent -------------------------------------------------------------------

update_agent::update_agent(engine::bus_encryption_engine& eng, sim::fault_injector& fi,
                           crypto::rsa_private_key dm, update_config cfg)
    : eng_(&eng), fi_(&fi), dm_(std::move(dm)), cfg_(std::move(cfg)),
      journal_(cfg_.device_key.empty() ? bytes(16, 0xD1) : cfg_.device_key) {
  if (cfg_.device_key.empty()) cfg_.device_key = bytes(16, 0xD1);
  if (cfg_.slot_bytes == 0 || cfg_.slot_bytes % cfg_.data_unit != 0 ||
      cfg_.chunk_bytes == 0 || cfg_.chunk_bytes % cfg_.data_unit != 0)
    throw std::invalid_argument("update_agent: slot/chunk size must be a "
                                "positive data-unit multiple");
  ctx_slot_[0] = ctx_slot_[1] = engine::bus_encryption_engine::no_context;
  ctx_session_ = engine::bus_encryption_engine::no_context;
}

engine::auth_config update_agent::window_auth(addr_t base, std::size_t len,
                                              addr_t tags) const {
  engine::auth_config a;
  a.mode = cfg_.auth;
  a.key = cfg_.device_key;
  a.base = base;
  a.limit = base + len;
  a.tag_bytes = cfg_.auth_tag_bytes;
  a.tag_base = tags;
  return a;
}

void update_agent::rebuild_slot_context(unsigned slot) {
  if (ctx_slot_[slot] != engine::bus_encryption_engine::no_context)
    eng_->destroy_context(ctx_slot_[slot]);
  ctx_slot_[slot] =
      eng_->create_context({cfg_.backend, cfg_.device_key, cfg_.data_unit});
  eng_->map_region(slot_base(slot), cfg_.slot_bytes, ctx_slot_[slot]);
  if (cfg_.auth != engine::auth_mode::none)
    (void)eng_->attach_auth(ctx_slot_[slot],
                            window_auth(slot_base(slot), cfg_.slot_bytes,
                                        tag_base(slot)));
}

void update_agent::rebuild_staging_context(std::span<const u8> k) {
  teardown_session();
  session_key_.assign(k.begin(), k.end());
  ctx_session_ =
      eng_->create_context({cfg_.backend, session_key_, cfg_.data_unit});
  eng_->map_region(cfg_.staging_base, cfg_.slot_bytes, ctx_session_);
}

void update_agent::teardown_session() {
  if (ctx_session_ != engine::bus_encryption_engine::no_context) {
    eng_->destroy_context(ctx_session_);
    ctx_session_ = engine::bus_encryption_engine::no_context;
  }
  session_key_.clear();
}

void update_agent::provision(std::span<const u8> image, u64 version) {
  if (image.size() > cfg_.slot_bytes)
    throw std::invalid_argument("provision: image exceeds the slot");
  rebuild_slot_context(0);
  // Install before attach would lose the seal; the attach in
  // rebuild_slot_context sealed zeros, so install through the engine keeps
  // tags/tree/sideband in sync unit by unit.
  eng_->install(cfg_.slot_base_a, image);
  rebuild_slot_context(1); // slot B: sealed-over zeros, ready as a target
  active_ = 0;
  version_ = version;
  image_bytes_[0] = image.size();
  image_bytes_[1] = 0;
  journal_.append(update_state::committed, 0, version, image.size(), *fi_);
  provisioned_ = true;
}

bool update_agent::wait_bus(update_report& rep, cycles& acc) {
  cycles backoff = cfg_.retry_backoff;
  for (unsigned tries = 0; fi_->stall_pending(); backoff *= 2) {
    if (++tries > cfg_.max_retries) return false;
    ++rep.retries;
    acc += backoff;
  }
  return true;
}

update_report update_agent::roll_back(update_status why) {
  teardown_session();
  journal_.append(update_state::rolled_back, static_cast<u8>(active_), version_,
                  image_bytes_[active_], *fi_);
  update_report rep;
  rep.status = why;
  rep.active_slot = active_;
  rep.version = version_;
  return rep;
}

update_report update_agent::apply(const update_package& up) {
  if (!provisioned_) throw std::logic_error("apply: provision first");
  update_report rep;
  rep.active_slot = active_;
  rep.version = version_;

  // Anti-downgrade fail-stop: the on-chip monotonic version beats a stale
  // or replayed package before a single staging byte moves.
  if (up.version <= version_) {
    rep.status = update_status::downgrade_blocked;
    return rep;
  }

  // Only the holder of Dm can unwrap K; only the holder of K could have
  // MAC'd the manifest — so a version field survives the check only if
  // the editor authorised it.
  bytes k;
  try {
    k = crypto::rsa_unwrap_key(dm_, up.wire.wrapped_session_key);
  } catch (const std::invalid_argument&) {
    rep.status = update_status::verify_failed;
    return rep;
  }
  const crypto::hmac_key mac_k(k);
  if (!crypto::tag_equal(manifest_mac(mac_k, up), up.manifest_mac)) {
    rep.status = update_status::verify_failed;
    return rep;
  }
  bytes image;
  try {
    const crypto::aes session_cipher(k);
    bytes padded(up.wire.ciphered_image.size());
    crypto::cbc_decrypt(session_cipher, up.wire.iv, up.wire.ciphered_image, padded);
    image = crypto::pkcs7_unpad(padded, 16);
  } catch (const std::invalid_argument&) {
    rep.status = update_status::verify_failed;
    return rep;
  }
  if (image.size() != up.image_bytes || image.size() > cfg_.slot_bytes ||
      up.chunk_macs.size() != up.chunks() || up.chunk_bytes != cfg_.chunk_bytes) {
    rep.status = update_status::verify_failed;
    return rep;
  }

  // Stage into untrusted DRAM under the session context (+ its own auth
  // window when a scheme is configured — flips planted while we hold the
  // session are caught by the authenticator, pre-resume flips by the
  // chunk MACs).
  rebuild_staging_context(k);
  eng_->install(cfg_.staging_base, image);
  if (cfg_.auth != engine::auth_mode::none)
    (void)eng_->attach_auth(ctx_session_,
                            window_auth(cfg_.staging_base, cfg_.slot_bytes,
                                        cfg_.tag_base_staging));
  fi_->on_flush();
  journal_.append(update_state::staged, static_cast<u8>(1 - active_), up.version,
                  up.image_bytes, *fi_);

  return drive(up, mac_k, /*resumed=*/false);
}

update_report update_agent::drive(const update_package& up, const crypto::hmac_key& k,
                                  bool resumed) {
  const unsigned target = 1 - active_;
  update_report rep;
  rep.active_slot = active_;
  rep.version = version_;
  const std::size_t chunks = up.chunks();
  bytes buf(cfg_.chunk_bytes);

  const auto faults = [&] { return eng_->stats().integrity_faults; };

  // --- phase 1: verify the staged copy chunk by chunk ------------------------
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t off = i * cfg_.chunk_bytes;
    const std::size_t n =
        std::min(cfg_.chunk_bytes, static_cast<std::size_t>(up.image_bytes) - off);
    const std::span<u8> chunk = std::span<u8>(buf).first(n);
    if (!wait_bus(rep, rep.verify_cycles)) return roll_back(update_status::stall_aborted);
    const u64 before = faults();
    rep.verify_cycles += eng_->read(cfg_.staging_base + off, chunk);
    if (faults() > before ||
        !crypto::tag_equal(chunk_mac(k, up.version, i, chunk), up.chunk_macs[i]))
      return roll_back(update_status::verify_failed);
  }
  fi_->on_flush();
  journal_.append(update_state::installing, static_cast<u8>(target), up.version,
                  up.image_bytes, *fi_);

  // --- phase 2: erase + program the inactive slot -----------------------------
  // Rebuilding the target context is the "erase": fresh keys-of-record for
  // the window's auth state, so a previously torn tree cannot fail-stop
  // the program pass.
  rebuild_slot_context(target);
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t off = i * cfg_.chunk_bytes;
    const std::size_t n =
        std::min(cfg_.chunk_bytes, static_cast<std::size_t>(up.image_bytes) - off);
    const std::span<u8> chunk = std::span<u8>(buf).first(n);
    if (!wait_bus(rep, rep.install_cycles))
      return roll_back(update_status::stall_aborted);
    const u64 before = faults();
    rep.install_cycles += eng_->read(cfg_.staging_base + off, chunk);
    if (faults() > before ||
        !crypto::tag_equal(chunk_mac(k, up.version, i, chunk), up.chunk_macs[i]))
      return roll_back(update_status::verify_failed);
    rep.install_cycles += eng_->write(slot_base(target) + off, chunk);
  }
  fi_->on_flush();
  journal_.append(update_state::installed, static_cast<u8>(target), up.version,
                  up.image_bytes, *fi_);

  // --- phase 3: readback verify — no torn or partial flash commits ------------
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t off = i * cfg_.chunk_bytes;
    const std::size_t n =
        std::min(cfg_.chunk_bytes, static_cast<std::size_t>(up.image_bytes) - off);
    const std::span<u8> chunk = std::span<u8>(buf).first(n);
    if (!wait_bus(rep, rep.install_cycles))
      return roll_back(update_status::stall_aborted);
    const u64 before = faults();
    rep.install_cycles += eng_->read(slot_base(target) + off, chunk);
    if (faults() > before ||
        !crypto::tag_equal(chunk_mac(k, up.version, i, chunk), up.chunk_macs[i]))
      return roll_back(update_status::verify_failed);
  }

  // --- phase 4: atomic commit -------------------------------------------------
  // This single journal append IS the commit: before it lands (and MACs),
  // recovery boots the old slot; after, the new one. There is no state in
  // between.
  journal_.append(update_state::committed, static_cast<u8>(target), up.version,
                  up.image_bytes, *fi_);
  active_ = target;
  version_ = up.version;
  image_bytes_[target] = up.image_bytes;
  teardown_session();

  rep.status = resumed ? update_status::resumed : update_status::committed;
  rep.active_slot = active_;
  rep.version = version_;
  rep.total_cycles = rep.verify_cycles + rep.install_cycles;
  return rep;
}

void update_agent::power_cycle() {
  // Volatile on-chip state is gone: the session key and its keyslot
  // context, plus every authenticator's caches. The journal, Dm, the
  // version mirrors, mac version RAM and tree roots are NVM and survive.
  teardown_session();
  for (const auto ctx : ctx_slot_)
    if (ctx != engine::bus_encryption_engine::no_context)
      if (engine::memory_authenticator* a = eng_->auth_of(ctx)) a->drop_caches();
}

void update_agent::sync_from_journal() {
  // The version mirror is a monotonic on-chip counter (RPMB-style): the
  // journal may fast-forward it, never rewind it — otherwise erasing the
  // newest committed record would be a downgrade primitive.
  if (const auto c = journal_.last_committed()) {
    if (c->version >= version_) {
      active_ = c->slot & 1;
      version_ = c->version;
      image_bytes_[active_] = c->image_bytes;
    }
  }
}

update_report update_agent::recover(const update_package* pkg) {
  update_report rep;

  // Fail-stop on a journal whose MAC chain does not check out — except for
  // the well-understood torn tail a power cut leaves: a single invalid
  // *last* cell is the crash signature, anything else is tampering.
  const std::vector<update_journal::entry> es = journal_.entries();
  bool tampered = false;
  for (std::size_t i = 0; i < es.size(); ++i)
    if (!es[i].valid && i + 1 != es.size()) tampered = true;
  const bool torn_tail = !es.empty() && !es.back().valid;

  sync_from_journal();
  rep.active_slot = active_;
  rep.version = version_;

  if (tampered) {
    // Boot the last good committed image and refuse everything pending.
    teardown_session();
    rep.status = update_status::journal_tampered;
    return rep;
  }

  // The torn tail is a classified crash signature now: acknowledge it in
  // place (rewrite as a MAC'd `torn` marker) before anything is appended
  // past it. Left raw, the invalid cell would become interior once the
  // resume/rollback below journals, and every later recovery would read
  // it as tampering — a benign power cut turned permanent fail-stop.
  if (torn_tail) journal_.neutralize_torn_tail(*fi_);

  const auto last = journal_.last_valid();
  const bool pending =
      last && (last->state == update_state::staged ||
               last->state == update_state::installing ||
               last->state == update_state::installed) &&
      last->version > version_;

  // A never-provisioned device has nothing to resume or restart into —
  // without the guard the no-pending branch below would call apply(),
  // which throws instead of reporting.
  if (provisioned_ && pkg != nullptr && pkg->version > version_ &&
      (!pending || pkg->version == last->version)) {
    // The updater daemon re-offers the package: resume. The session key
    // did not survive the cut, so unwrap it again; the staged copy sat in
    // untrusted DRAM, so it is re-verified from scratch (fresh staging
    // context + auth seal, then the chunk-MAC pass in drive()).
    bytes k;
    try {
      k = crypto::rsa_unwrap_key(dm_, pkg->wire.wrapped_session_key);
    } catch (const std::invalid_argument&) {
      return roll_back(update_status::verify_failed);
    }
    const crypto::hmac_key mac_k(k);
    if (!crypto::tag_equal(manifest_mac(mac_k, *pkg), pkg->manifest_mac))
      return roll_back(update_status::verify_failed);
    if (!pending) {
      // The cut landed before the staged record: nothing usable is in
      // DRAM — restart the whole download path.
      return apply(*pkg);
    }
    rebuild_staging_context(k);
    if (cfg_.auth != engine::auth_mode::none)
      (void)eng_->attach_auth(ctx_session_,
                              window_auth(cfg_.staging_base, cfg_.slot_bytes,
                                          cfg_.tag_base_staging));
    return drive(*pkg, mac_k, /*resumed=*/true);
  }

  if (!pending && !torn_tail) {
    rep.status = update_status::none_pending;
    return rep;
  }
  return roll_back(update_status::rolled_back);
}

bytes update_agent::active_image() {
  bytes out(static_cast<std::size_t>(image_bytes_[active_]));
  eng_->read_plain(slot_base(active_), out);
  return out;
}

} // namespace buscrypt::update
