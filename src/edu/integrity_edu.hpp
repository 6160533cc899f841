#pragma once
/// \file integrity_edu.hpp
/// The survey's closing "future exploration": "take into account the
/// problem of integrity, to thwart attacks based on the modification of
/// the fetched instructions." This engine extends the stream/OTP
/// confidentiality EDU with per-line authentication, in three levels:
///
///   none          — confidentiality only (baseline; spoof/splice/replay all land)
///   mac           — per-line truncated HMAC over (address || ciphertext),
///                   stored in a tag region of external memory: defeats
///                   spoofing (random/chosen ciphertext injection) and
///                   splicing (relocating a valid line to another address)
///   mac_versioned — the MAC additionally covers an on-chip version
///                   counter bumped on every write: defeats replay
///                   (restoring a stale line+tag pair)
///
/// The costs the later literature (and the survey's own authors' follow-up
/// work) made standard are all modeled: extra bus traffic for tags, MAC
/// unit latency, and on-chip version RAM.

#include "crypto/block_cipher.hpp"
#include "crypto/mac.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

#include <unordered_map>

namespace buscrypt::edu {

enum class integrity_level { none, mac, mac_versioned };

struct integrity_edu_config {
  std::size_t line_bytes = 32;
  std::size_t tag_bytes = 8;
  integrity_level level = integrity_level::mac_versioned;
  addr_t protected_limit = 1 << 21; ///< end of the protected address range
  addr_t tag_base = 6u << 20;       ///< where tags live in external memory
  pipeline_model pad_core = aes_pipelined();
  cycles mac_startup = 10;          ///< hardware MAC unit fill latency
  double mac_cycles_per_byte = 0.5;
  /// On-chip tag cache entries (64-byte tag lines). Without it every data
  /// fetch pays a second DRAM access for its tag; with it, sequential
  /// lines share a tag line 8:1. 0 disables (the naive design).
  unsigned tag_cache_entries = 16;
  u64 tweak = 0x17E617ULL;
};

/// Authenticating bus-encryption engine (pad cipher + per-line tags).
class integrity_edu final : public edu {
 public:
  /// \param prf     block cipher for the pad and (keyed) tag derivation.
  /// \param mac_key key for the line MACs.
  integrity_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                std::span<const u8> mac_key, integrity_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override;

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path for line-aligned transactions. Writes pre-encipher
  /// (the pad is address+version-derived and the data is in hand) and
  /// pre-MAC at staging; their ciphertext lines *and* their tag stores
  /// ride the same lower window. Reads queue their line fetch plus — when
  /// the tag misses on chip — one deduplicated tag-line fetch per window;
  /// the serial MAC unit then verifies each line once its data and its tag
  /// line have both arrived, pipelining against later fetches, while the
  /// precomputable pad overlaps the whole window. Versions and tags are
  /// snapshotted in submission order, and tags written earlier in the same
  /// window forward to later reads (in-flush staged-tag forwarding), so a
  /// read never sees a stale or future tag. Fetched tag lines install into
  /// the on-chip cache when the window retires, with the window's staged
  /// tags applied on top. Sub-line requests detour in order.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.line_bytes;
  }

  /// Tamper events detected so far (tag mismatches on fetch).
  [[nodiscard]] u64 tamper_events() const noexcept { return tamper_events_; }

  /// External-memory overhead for tags over the protected range.
  [[nodiscard]] std::size_t tag_memory_bytes() const noexcept {
    return static_cast<std::size_t>(cfg_.protected_limit / cfg_.line_bytes) *
           cfg_.tag_bytes;
  }

  /// On-chip version RAM (mac_versioned only): 4 bytes per line written.
  [[nodiscard]] std::size_t version_ram_bytes() const noexcept {
    return versions_.size() * 4;
  }

  /// Drop the (volatile) on-chip tag cache — a power cycle. Version
  /// counters survive: the design keeps them in on-chip NVM.
  void flush_tag_cache() noexcept {
    tag_cache_.clear();
    tag_cache_fifo_.clear();
  }

  /// Tag-cache effectiveness.
  [[nodiscard]] u64 tag_cache_hits() const noexcept { return tag_hits_; }
  [[nodiscard]] u64 tag_cache_misses() const noexcept { return tag_misses_; }
  [[nodiscard]] std::size_t tag_cache_ram_bytes() const noexcept {
    return cfg_.tag_cache_entries * k_tag_line;
  }

  /// Where the tag for the line at \p addr lives (attack-suite hook —
  /// a Class-II attacker can read the layout from the bus anyway).
  [[nodiscard]] addr_t tag_addr(addr_t addr) const noexcept {
    return cfg_.tag_base + (addr / cfg_.line_bytes) * cfg_.tag_bytes;
  }

  [[nodiscard]] const integrity_edu_config& config() const noexcept { return cfg_; }

 private:
  static constexpr std::size_t k_tag_line = 64; ///< tag-cache fill granule

  [[nodiscard]] cycles read_line(addr_t line_addr, std::span<u8> out);
  [[nodiscard]] cycles write_line(addr_t line_addr, std::span<const u8> in);

  void pad_line(addr_t line_addr, u64 version, std::span<u8> buf) const;
  [[nodiscard]] bytes line_tag(addr_t line_addr, u64 version,
                               std::span<const u8> ciphertext) const;
  [[nodiscard]] u64 version_of(addr_t line_addr) const noexcept;
  [[nodiscard]] cycles mac_time(std::size_t nbytes) const noexcept;

  /// Read the tag for \p line_addr into \p out, through the tag cache.
  /// Returns cycles spent on the external bus (0 on a tag-cache hit).
  [[nodiscard]] cycles fetch_tag(addr_t line_addr, std::span<u8> out);
  /// Write a freshly computed tag through cache and memory.
  [[nodiscard]] cycles store_tag(addr_t line_addr, std::span<const u8> tag);

  const crypto::block_cipher* prf_;
  crypto::hmac_key mac_key_;
  integrity_edu_config cfg_;
  std::unordered_map<addr_t, u64> versions_;
  std::unordered_map<addr_t, bytes> tag_cache_; ///< tag-line base -> 64 B
  std::vector<addr_t> tag_cache_fifo_;
  u64 tag_hits_ = 0;
  u64 tag_misses_ = 0;
  u64 tamper_events_ = 0;
};

} // namespace buscrypt::edu
