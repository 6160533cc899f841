#pragma once
/// \file update_agent.hpp
/// Crash-safe in-field firmware update over the encrypted bus — the
/// riskiest moment in a secure device's life, and the one the survey's
/// threat model ultimately protects: a power cut or a tampered staged
/// image during an update must never brick or downgrade the part.
///
/// The design composes three existing pillars into an A/B update protocol
/// (fwupd's DFU interrupted-transfer discipline, cast onto this SoC):
///
///   - the Fig. 1 session-key flow: the editor ships the new image
///     ciphered under a fresh session key K, K wrapped under Em — plus a
///     *manifest* (per-chunk MACs and a version binding, all keyed by K)
///     so the device can verify the staged copy chunk by chunk;
///   - the keyslot engine + memory_authenticator: the staged image lands
///     in untrusted DRAM under a session context (optionally guarded by
///     mac/area/hash-tree), and each firmware slot is its own
///     authenticated region, so a torn install never contaminates the
///     running slot's authentication state;
///   - an on-chip journal (NVM, like the version RAM): fixed-size,
///     device-key-MAC'd records. The *single journal append of a
///     `committed` record is the atomic commit point* — every other byte
///     of the protocol may be cut mid-write and the device still boots
///     exactly the old or exactly the new image.
///
/// State machine (journal records in **bold**):
///
///       idle ──stage──▶ **staged** ──verify ok──▶ **installing**
///         ▲                   │ verify fail             │ install + readback
///         │                   ▼                         ▼
///         │            **rolled_back** ◀──readback fail── **installed**
///         │                   ▲                          │
///         └── power cut ──────┘ (or resume)              ▼
///                                                  **committed**
///
/// Every phase boundary is a fault_injector hook (flush), every DRAM beat
/// and journal byte a potential cut, which is what tab13 sweeps.

#include "crypto/mac.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "keymgmt/session.hpp"
#include "sim/fault_injector.hpp"

#include <optional>
#include <string>
#include <vector>

namespace buscrypt::update {

/// Lifecycle states; the subset marked in the diagram above is journaled.
enum class update_state : u8 {
  idle,
  staged,      ///< new image + manifest verified landed in staging DRAM
  installing,  ///< chunks being copied into the inactive slot
  installed,   ///< every chunk written; readback verify passed
  committed,   ///< the new slot is the boot slot (atomic point)
  rolled_back, ///< update abandoned; the old slot remains the boot slot
  torn,        ///< recovery's acknowledgement of a torn tail cell: the
               ///< crash-garbage record, rewritten in place under the
               ///< journal MAC so it can become interior without ever
               ///< reading as tampering
};

[[nodiscard]] constexpr std::string_view update_state_name(update_state s) noexcept {
  switch (s) {
    case update_state::idle: return "idle";
    case update_state::staged: return "staged";
    case update_state::installing: return "installing";
    case update_state::installed: return "installed";
    case update_state::committed: return "committed";
    case update_state::rolled_back: return "rolled-back";
    case update_state::torn: return "torn";
  }
  return "?";
}

/// What one update attempt (or recovery) concluded.
enum class update_status : u8 {
  committed,         ///< new image live, version bumped
  resumed,           ///< recovery re-drove an interrupted update to commit
  rolled_back,       ///< old image live, pending update abandoned
  none_pending,      ///< recovery found nothing to do
  downgrade_blocked, ///< stale version / replayed old package — fail-stop
  verify_failed,     ///< manifest/chunk/authenticator verification failed
  stall_aborted,     ///< bus stalled past the bounded retry budget
  journal_tampered,  ///< journal MAC check failed — fail-stop on last good
};

[[nodiscard]] constexpr std::string_view update_status_name(update_status s) noexcept {
  switch (s) {
    case update_status::committed: return "committed";
    case update_status::resumed: return "resumed";
    case update_status::rolled_back: return "rolled-back";
    case update_status::none_pending: return "none-pending";
    case update_status::downgrade_blocked: return "downgrade-blocked";
    case update_status::verify_failed: return "verify-failed";
    case update_status::stall_aborted: return "stall-aborted";
    case update_status::journal_tampered: return "journal-tampered";
  }
  return "?";
}

// --- the wire format ---------------------------------------------------------

/// The Fig. 1 package, extended for updates: a version binding and a
/// chunk-granular manifest, all MAC'd under the session key K so only the
/// legitimate editor (who chose K) can authorise content or version.
struct update_package {
  keymgmt::software_package wire; ///< K under Em, IV, image under K
  u64 version = 0;                ///< monotonic security version
  u64 image_bytes = 0;            ///< plaintext image length
  std::size_t chunk_bytes = 1024; ///< verification granule
  std::vector<bytes> chunk_macs;  ///< HMAC-SHA256/16 per chunk under K
  bytes manifest_mac;             ///< binds version + geometry + chunk MACs

  [[nodiscard]] std::size_t chunks() const noexcept {
    return chunk_bytes == 0
               ? 0
               : static_cast<std::size_t>((image_bytes + chunk_bytes - 1) / chunk_bytes);
  }
};

/// Editor-side packaging: pick K, wrap it under Em, cipher the image, MAC
/// every chunk and the manifest, ship everything over \p ch (the
/// eavesdropper records it all — nothing in the manifest is secret).
[[nodiscard]] update_package make_update_package(const bytes& image, u64 version,
                                                 const crypto::rsa_public_key& em,
                                                 keymgmt::insecure_channel& ch, rng& r,
                                                 std::size_t chunk_bytes = 1024);

/// The per-chunk MAC (16 bytes): HMAC-SHA256(K, "chunk" || index || version
/// || plaintext-chunk), truncated. Exposed so the agent's readback verify
/// and the tests share one definition with the packager.
[[nodiscard]] bytes chunk_mac(const crypto::hmac_key& k, u64 version, u64 index,
                              std::span<const u8> chunk);

/// The manifest MAC (16 bytes) over version, geometry and every chunk MAC.
[[nodiscard]] bytes manifest_mac(const crypto::hmac_key& k, const update_package& up);

// --- the on-chip journal -----------------------------------------------------

/// Append-only on-chip NVM journal. Each record is one fixed-size cell
/// whose write goes through the fault injector's NVM path — a power cut
/// mid-record leaves a torn cell whose MAC cannot verify, so recovery
/// skips it instead of half-trusting it. Record layout (little-endian):
///   [0,8) seq  [8] state  [9] slot  [10,18) version  [18,26) image_bytes
///   [26,34) HMAC-SHA256(journal key, bytes [0,26)) truncated to 8
///   [34,40) zero pad
class update_journal {
 public:
  static constexpr std::size_t k_record_bytes = 40;

  /// \param mac_key the device journal key (on-chip, never external).
  explicit update_journal(std::span<const u8> mac_key) : key_(mac_key) {}

  struct entry {
    u64 seq = 0;
    update_state state = update_state::idle;
    u8 slot = 0;
    u64 version = 0;
    u64 image_bytes = 0;
    bool valid = false; ///< MAC checked out
  };

  /// Append one record through \p fi's NVM write (may tear + power_cut).
  void append(update_state st, u8 slot, u64 version, u64 image_bytes,
              sim::fault_injector& fi);

  /// Rewrite an invalid *last* cell in place as a MAC'd `torn` marker.
  /// Recovery calls this once it has classified the torn tail as a crash
  /// signature, *before* appending anything past it — otherwise the
  /// invalid cell would become interior and read as tampering on every
  /// later recovery. No-op when the last cell is valid (or empty). The
  /// rewrite itself rides \p fi's NVM path: a cut mid-neutralisation
  /// leaves the cell invalid-and-last, so the next recovery just redoes it.
  void neutralize_torn_tail(sim::fault_injector& fi);

  /// Every stored cell, decoded, in append order (torn cells invalid).
  [[nodiscard]] std::vector<entry> entries() const;

  /// Any cell failing its MAC — torn write or active tamper.
  [[nodiscard]] bool tampered() const;

  /// The newest valid *protocol* record, or nothing (pre-provisioning).
  /// `torn` acknowledgement markers are skipped: they record that a cell
  /// was crash garbage, not a lifecycle step.
  [[nodiscard]] std::optional<entry> last_valid() const;

  /// The newest valid `committed` record — what boot trusts.
  [[nodiscard]] std::optional<entry> last_committed() const;

  [[nodiscard]] std::size_t records() const noexcept {
    return store_.size() / k_record_bytes;
  }

  /// The raw NVM cells — the attack suite's journal-tamper hook. (A real
  /// part would need a fault attack to reach these; modeling the access
  /// lets the suite prove the MAC catches it.)
  [[nodiscard]] std::span<u8> raw() noexcept { return store_; }

 private:
  [[nodiscard]] bytes record_mac(std::span<const u8> body) const;
  [[nodiscard]] bytes encode_record(u64 seq, update_state st, u8 slot, u64 version,
                                    u64 image_bytes) const;

  crypto::hmac_key key_;
  bytes store_; ///< on-chip NVM: survives power cycles
};

// --- the agent ---------------------------------------------------------------

struct update_config {
  /// A/B firmware slots, each its own encryption context + authenticated
  /// window (per-slot isolation is what keeps a torn install in B from
  /// ever touching A's authentication state).
  addr_t slot_base_a = 0;
  addr_t slot_base_b = 256u << 10;
  std::size_t slot_bytes = 256u << 10;
  /// Staging area: untrusted DRAM the session-keyed download lands in.
  addr_t staging_base = 512u << 10;
  /// Authentication scheme guarding all three windows (none = bare).
  engine::auth_mode auth = engine::auth_mode::none;
  std::size_t auth_tag_bytes = 8;
  /// Per-window tag/node regions (mac & hash-tree store material there).
  addr_t tag_base_a = 1u << 20;
  addr_t tag_base_b = (1u << 20) + (384u << 10);
  addr_t tag_base_staging = (1u << 20) + (768u << 10);
  /// Cipher backend + data unit of every context. AREA needs a diffusing
  /// block mode (the engine rejects CTR/stream backends at attach).
  std::string backend = "aes-ctr";
  std::size_t data_unit = 32;
  std::size_t chunk_bytes = 1024;
  /// Bounded retry/backoff against a stalled bus (DFU-style): up to
  /// max_retries waits, the n-th costing retry_backoff << n cycles.
  unsigned max_retries = 6;
  cycles retry_backoff = 32;
  /// Device key material (boot contexts, window auth, journal MAC). Empty
  /// derives a fixed test key.
  bytes device_key;
};

/// One update attempt / recovery, measured.
struct update_report {
  update_status status = update_status::none_pending;
  unsigned active_slot = 0; ///< after the episode
  u64 version = 0;          ///< after the episode
  cycles verify_cycles = 0;  ///< staged-image chunk verification
  cycles install_cycles = 0; ///< slot program + readback verify
  cycles total_cycles = 0;   ///< verify + install + stall backoff
  unsigned retries = 0;      ///< bus-stall retries spent
};

/// The update agent: owns the A/B slot state machine over one
/// bus_encryption_engine whose external path runs through a
/// fault_injector. On-chip state (journal, Dm, version mirror) survives
/// power_cycle(); volatile state (session key/context, auth caches) does
/// not — exactly the split the recovery invariants quantify over.
class update_agent {
 public:
  /// \param eng engine whose lower port is (or sits above) \p fi.
  /// \param fi the injectable external path + NVM write hooks.
  /// \param dm the device private key (Fig. 1 Dm, on-chip NVM).
  update_agent(engine::bus_encryption_engine& eng, sim::fault_injector& fi,
               crypto::rsa_private_key dm, update_config cfg);

  /// Factory provisioning: install \p image into slot A at \p version,
  /// attach the slot authenticators, journal the baseline commit.
  void provision(std::span<const u8> image, u64 version);

  /// Drive one full update: downgrade check, stage, verify, install,
  /// readback, commit. Throws sim::power_cut through when the injector
  /// fires — callers power_cycle() then recover().
  update_report apply(const update_package& up);

  /// Power loss: volatile state gone (session key + context, slot auth
  /// caches), on-chip NVM (journal, Dm, versions, tree roots) intact.
  void power_cycle();

  /// Journal-driven recovery. With \p pkg (the updater daemon re-offers
  /// the package after reboot), an interrupted update of that version is
  /// re-driven to commit — re-verifying the staged DRAM copy first, since
  /// it sat in untrusted memory across the cut. Without it, or on any
  /// verification failure, the pending update rolls back; the old slot
  /// was never touched and stays bootable. A journal whose MAC check
  /// fails fail-stops onto the last good committed record.
  update_report recover(const update_package* pkg = nullptr);

  // --- inspection ------------------------------------------------------------

  [[nodiscard]] unsigned active_slot() const noexcept { return active_; }
  [[nodiscard]] u64 version() const noexcept { return version_; }
  [[nodiscard]] std::size_t active_image_bytes() const noexcept {
    return static_cast<std::size_t>(image_bytes_[active_]);
  }
  /// Plaintext of the active slot through the engine (offline path).
  [[nodiscard]] bytes active_image();
  [[nodiscard]] addr_t slot_base(unsigned slot) const noexcept {
    return slot == 0 ? cfg_.slot_base_a : cfg_.slot_base_b;
  }
  [[nodiscard]] update_journal& journal() noexcept { return journal_; }
  [[nodiscard]] const update_config& config() const noexcept { return cfg_; }
  [[nodiscard]] engine::bus_encryption_engine& engine() noexcept { return *eng_; }

 private:
  /// (Re)build one slot's context: destroy, create, map, attach auth —
  /// the "erase" step of a flash update, and what keeps a previously torn
  /// tree/tag state from fail-stopping a fresh install.
  void rebuild_slot_context(unsigned slot);
  void rebuild_staging_context(std::span<const u8> k);
  [[nodiscard]] addr_t tag_base(unsigned slot) const noexcept {
    return slot == 0 ? cfg_.tag_base_a : cfg_.tag_base_b;
  }
  [[nodiscard]] engine::auth_config window_auth(addr_t base, std::size_t len,
                                                addr_t tags) const;
  /// Bounded retry/backoff against a stalled bus; false = budget blown.
  [[nodiscard]] bool wait_bus(update_report& rep, cycles& acc);
  /// The staged-verify → install → readback → commit drive shared by
  /// apply() and resume. \p resumed marks the report accordingly.
  [[nodiscard]] update_report drive(const update_package& up, const crypto::hmac_key& k,
                                    bool resumed);
  [[nodiscard]] update_report roll_back(update_status why);
  /// Adopt boot state from the newest valid committed journal record.
  void sync_from_journal();
  void teardown_session();

  engine::bus_encryption_engine* eng_;
  sim::fault_injector* fi_;
  crypto::rsa_private_key dm_; ///< on-chip NVM
  update_config cfg_;
  update_journal journal_;     ///< on-chip NVM

  // On-chip NVM mirrors of the newest committed record.
  unsigned active_ = 0;
  u64 version_ = 0;
  u64 image_bytes_[2] = {0, 0};

  // Volatile (lost on power_cycle).
  engine::bus_encryption_engine::context_id ctx_slot_[2];
  engine::bus_encryption_engine::context_id ctx_session_;
  bytes session_key_;
  bool provisioned_ = false;
};

} // namespace buscrypt::update
