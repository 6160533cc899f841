#pragma once
/// \file memory_authenticator.hpp
/// Memory *authentication* for the keyslot engine — the survey's second
/// pillar next to confidentiality. Encryption alone cannot stop an active
/// attacker who rewrites the external chip: spoofing (chosen/garbled
/// ciphertext), splicing (relocating a valid line) and replay (restoring a
/// stale line) all land on a confidentiality-only engine. This component
/// adds the three countermeasure families the literature converged on,
/// selectable per protected region:
///
///   mac       — a truncated HMAC-SHA256 tag per data unit over
///               (address || version || ciphertext), stored in a dedicated
///               DRAM tag region and fronted by an on-chip tag cache so hot
///               units verify without extra bus beats. The on-chip version
///               counter (bumped per write) is what defeats replay.
///   area      — Added Redundancy Explicit Authentication (Elbaz et al.):
///               every cipher block of a unit carries a few bytes of
///               address+version-derived nonce *inside the encrypted
///               payload*. Tampering any ciphertext block garbles its
///               nonce slice on decipher, so the check rides the block
///               cipher's diffusion: zero extra bus traffic, no tag
///               region, no MAC unit — but block modes only (a stream/CTR
///               pad has no diffusion, so bit flips would go unnoticed).
///               The capacity lost to the nonce is modeled as widened
///               memory (ECC-DIMM style): the expansion ciphertext rides
///               the same burst in sideband cells, never as extra beats.
///   hash_tree — an AEGIS-style Merkle tree over the region: leaf = hash
///               of (index || unit ciphertext), interior nodes hash their
///               children, and only the root lives on-chip. Nodes are
///               stored in the DRAM tag region and verified/updated
///               path-wise; an on-chip node cache terminates verification
///               walks early (a cached node is trusted), which is what
///               makes the scheme affordable.
///
/// The authenticator is deliberately engine-agnostic: it authenticates
/// *ciphertext* units (mac, hash_tree) or wraps the engine's own keyed
/// cipher (area), so it composes with any keyslot backend without a second
/// key schedule in the datapath.

#include "common/types.hpp"
#include "crypto/mac.hpp"
#include "engine/cipher_backend.hpp"
#include "sim/memory_port.hpp"

#include <string_view>
#include <unordered_map>
#include <vector>

namespace buscrypt::engine {

/// Authentication scheme of one protected region. `none` is the PR 3
/// behaviour: the engine's datapath is untouched, cycle for cycle.
enum class auth_mode : u8 { none, mac, area, hash_tree };

[[nodiscard]] constexpr std::string_view auth_mode_name(auth_mode m) noexcept {
  switch (m) {
    case auth_mode::none: return "none";
    case auth_mode::mac: return "mac";
    case auth_mode::area: return "area";
    case auth_mode::hash_tree: return "hash-tree";
  }
  return "?";
}

/// Parse an auth_mode from its auth_mode_name() spelling. Returns false
/// (and leaves \p out untouched) on an unknown name.
[[nodiscard]] bool parse_auth_mode(std::string_view name, auth_mode& out) noexcept;

inline constexpr auth_mode all_auth_modes[] = {auth_mode::none, auth_mode::mac,
                                               auth_mode::area, auth_mode::hash_tree};

struct auth_config {
  auth_mode mode = auth_mode::none;
  /// MAC / nonce / node-digest key (any length; HMAC-SHA256 inside).
  bytes key;
  /// Authenticated window [base, limit): data-unit aligned, non-empty.
  addr_t base = 0;
  addr_t limit = 0;
  /// mac/hash_tree: stored tag / node digest size (1..32 bytes).
  /// area: nonce bytes embedded per cipher block (1..granule-1).
  std::size_t tag_bytes = 8;
  /// mac/hash_tree: external-memory region holding tags / tree nodes. Must
  /// not overlap the window (the tag of a tag would recurse).
  addr_t tag_base = 6u << 20;
  /// On-chip cache entries: 64-byte tag lines (mac) or tree nodes
  /// (hash_tree). 0 disables — the naive every-fetch-pays design.
  unsigned tag_cache_entries = 16;
  /// Hardware MAC/hash unit: fill latency + streaming rate.
  cycles mac_startup = 10;
  double mac_cycles_per_byte = 0.5;
  /// hash_tree fan-out (2..8). Depth trades against per-level fetch width.
  unsigned tree_arity = 2;
};

/// Counters the benches and tests read.
struct auth_stats {
  u64 verifies = 0;       ///< units checked on the fetch path
  u64 updates = 0;        ///< units re-tagged / re-sealed on the store path
  u64 faults = 0;         ///< verifications that failed (tamper detected)
  u64 tag_hits = 0;       ///< tag-line / tree-node cache hits
  u64 tag_misses = 0;     ///< misses that had to touch external memory
  u64 tag_bus_reads = 0;  ///< lower-port reads for tags / nodes
  u64 tag_bus_writes = 0; ///< lower-port writes for tags / nodes
  u64 nodes_walked = 0;   ///< hash_tree: levels visited across all walks
  cycles auth_cycles = 0; ///< compute cycles charged (MAC/hash units)
};

/// Per-region authentication engine. One instance guards one window of one
/// encryption context; the bus_encryption_engine owns it and calls the
/// verify/update hooks from both its scalar and batched datapaths.
class memory_authenticator {
 public:
  /// Tag-cache fill granule (mac): one external burst of packed tags.
  static constexpr std::size_t k_tag_line = 64;

  /// \param lower external path for tag/node traffic; referenced, not owned.
  /// \param unit_bytes the owning context's data-unit size.
  /// \throws std::invalid_argument on mode==none, empty key, a misaligned
  ///         or empty window, a tag region overlapping the window, or
  ///         out-of-range tag_bytes / tree_arity.
  memory_authenticator(sim::memory_port& lower, auth_config cfg,
                       std::size_t unit_bytes);

  [[nodiscard]] auth_mode mode() const noexcept { return cfg_.mode; }
  [[nodiscard]] const auth_config& config() const noexcept { return cfg_; }
  [[nodiscard]] const auth_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Whether \p unit_addr (unit-aligned) falls inside the guarded window.
  [[nodiscard]] bool covers(addr_t unit_addr) const noexcept {
    return unit_addr >= cfg_.base && unit_addr < cfg_.limit;
  }

  /// Bring the authentication state in sync with the window's *current*
  /// external-memory content at the current versions: mac tags stored,
  /// tree rebuilt bottom-up, volatile caches dropped; nothing for area
  /// (the engine seals area units itself, it owns the cipher). Called at
  /// attach (all versions 0) and by an operator to re-provision a region
  /// after a detected tamper — it *trusts* whatever the chip holds now.
  void seal_from_memory();

  // --- mac / hash_tree: ciphertext-level hooks -----------------------------

  struct check_result {
    bool ok = true;
    cycles bus = 0;     ///< external cycles spent on tags / nodes
    cycles compute = 0; ///< MAC / hash unit cycles
  };

  /// Verify one fetched ciphertext unit (mac: tag compare through the tag
  /// cache; hash_tree: path walk to a trusted node or the root). Counts a
  /// fault on mismatch. \p charge gates cycle accounting only — the
  /// functional check always runs.
  [[nodiscard]] check_result verify_unit(addr_t unit_addr, std::span<const u8> ct,
                                         bool charge);

  /// Account a freshly stored ciphertext unit: bump the on-chip version,
  /// recompute and store the tag (mac) or re-hash the path and the on-chip
  /// root (hash_tree — the stored path is authenticated first, and on a
  /// mismatch the update is *refused* (fail-stop): a tampered sibling must
  /// never be hashed into the new root, so the subtree stays unverifiable
  /// until the operator re-seals the region. The refusal counts a fault
  /// and returns ok=false). Returns cycles like verify_unit.
  [[nodiscard]] check_result update_unit(addr_t unit_addr, std::span<const u8> ct,
                                         bool charge);

  // --- mac: batched-pipeline protocol --------------------------------------
  // The engine's submit() path stages tag traffic into the same lower batch
  // as the data so tag fetches overlap data fetches bank-wise; the verify
  // itself runs after arrival on the serial MAC unit.

  /// What a staged (batched) read needs to verify later: the version
  /// snapshot at staging order, and either the tag value (cache hit) or
  /// the tag line to fetch (miss; the engine rides it on the batch).
  struct staged_verify {
    addr_t unit_addr = 0;
    u64 version = 0;
    bool have_tag = false;
    bytes tag;              ///< valid when have_tag
    addr_t tag_line = 0;    ///< 64-byte-aligned fetch address when !have_tag
    std::size_t tag_off = 0;///< this unit's tag offset inside that line
  };
  [[nodiscard]] staged_verify batch_prepare_verify(addr_t unit_addr);

  /// Finish a staged verify once data (and, on a miss, the tag line) have
  /// arrived. \p tag_line_data is the fetched 64-byte line (installed into
  /// the tag cache here, with any tags staged later in the same flush
  /// overlaid — the fetch was ordered before those writes) or empty on a
  /// snapshot hit.
  [[nodiscard]] check_result batch_finish_verify(const staged_verify& sv,
                                                 std::span<const u8> ct,
                                                 std::span<const u8> tag_line_data,
                                                 bool charge);

  /// The engine deduplicates tag-line fetches per flush; it reports each
  /// fetch it actually stages here so tag_bus_reads counts lower-port
  /// traffic, not cache probes.
  void note_batch_tag_fetch() noexcept { ++stats_.tag_bus_reads; }

  /// End of one submit() flush window: staged-tag forwarding state is
  /// retired (everything is in DRAM and the cache by now).
  void batch_flush_done() noexcept {
    staged_tags_.clear();
    batch_open_ = false;
  }

  /// True between the first staged batch operation and batch_flush_done()
  /// — the window in which a reseal would race the in-flight tag traffic.
  [[nodiscard]] bool batch_open() const noexcept { return batch_open_; }

  /// Stage a (batched) write: bump the version, compute the new tag, update
  /// the cache write-through. The engine appends the returned tag bytes as
  /// a write transaction in the same lower batch.
  struct staged_update {
    addr_t tag_addr = 0;
    bytes tag;
    cycles compute = 0;
  };
  [[nodiscard]] staged_update batch_stage_update(addr_t unit_addr,
                                                 std::span<const u8> ct, bool charge);

  // --- area: payload-level hooks (the engine passes its leased cipher) -----

  /// Stored bytes per unit under area: ceil(unit / (granule - tag_bytes))
  /// cipher blocks. The first unit_bytes go to DRAM at the unit's address
  /// (same beats as an unauthenticated store); the rest live in the
  /// widened-memory sideband.
  [[nodiscard]] std::size_t area_stored_bytes(std::size_t granule) const noexcept;

  /// Seal one unit: embed per-block nonces, encipher the expanded payload
  /// with \p kc, emit the DRAM-resident half into \p dram_ct (unit_bytes)
  /// and the expansion into the sideband. Bumps the version unless
  /// \p initial (the attach-time seal keeps version 0). \p plain and
  /// \p dram_ct may be the same bytes.
  [[nodiscard]] cycles area_encipher(keyed_cipher& kc, addr_t unit_addr,
                                     std::span<const u8> plain, std::span<u8> dram_ct,
                                     bool initial, bool charge);

  /// Snapshot of one unit's unseal inputs at batch *staging* order. A later
  /// write of the same unit in the same batch bumps the live version and
  /// replaces the sideband, but the staged read's data arrives from before
  /// that write (functional order) — it must unseal against this snapshot,
  /// exactly as the mac path snapshots versions and forwards staged tags.
  struct area_staged {
    u64 version = 0;
    bytes sideband;
  };
  [[nodiscard]] area_staged area_prepare(addr_t unit_addr) const;

  /// Unseal one unit against \p staged (area_prepare of the unit — taken
  /// at staging order on the batch path, just before the unseal
  /// otherwise): reassemble DRAM + sideband ciphertext, decipher, check
  /// every block's nonce slice, extract the data into \p plain_out.
  /// \p dram_ct and \p plain_out may be the same bytes.
  [[nodiscard]] check_result area_finish(keyed_cipher& kc, addr_t unit_addr,
                                         std::span<const u8> dram_ct,
                                         std::span<u8> plain_out,
                                         const area_staged& staged, bool charge);

  // --- device lifecycle / attack-suite hooks -------------------------------

  /// Power cycle: the volatile on-chip caches vanish — including any batch
  /// forwarding window a cut left open mid-flush — while versions and the
  /// tree root survive (the design keeps them in on-chip NVM), which is
  /// exactly why replay fails even across a reset.
  void drop_caches() noexcept;

  /// Where the mac tag for \p unit_addr lives in external memory (a
  /// Class-II attacker reads the layout off the bus anyway).
  [[nodiscard]] addr_t tag_addr(addr_t unit_addr) const noexcept;

  /// hash_tree: external address of stored node (level, index); level 0 =
  /// leaves. The root is on-chip and has no address.
  [[nodiscard]] addr_t node_addr(unsigned level, u64 index) const noexcept;

  /// hash_tree: stored levels (root excluded) and total stored node count.
  [[nodiscard]] unsigned tree_levels() const noexcept {
    return static_cast<unsigned>(level_sizes_.size());
  }

  /// area: the widened-memory cells of one unit — tamperable external
  /// state, exposed so the attack suite can splice/replay them.
  [[nodiscard]] bytes* area_sideband(addr_t unit_addr) noexcept;

  /// External bytes dedicated to tags / stored tree nodes (0 for area,
  /// whose expansion is counted by area_stored_bytes).
  [[nodiscard]] std::size_t tag_memory_bytes() const noexcept;

  /// On-chip state: version RAM, caches, root (the silicon cost column).
  [[nodiscard]] std::size_t onchip_bytes() const noexcept;

  [[nodiscard]] u64 version_of(addr_t unit_addr) const noexcept;

 private:
  [[nodiscard]] cycles mac_time(std::size_t nbytes) const noexcept;
  [[nodiscard]] u64 unit_index(addr_t unit_addr) const noexcept {
    return (unit_addr - cfg_.base) / unit_;
  }
  void note(check_result& r, bool charge) noexcept;

  // mac helpers.
  [[nodiscard]] bytes unit_tag(addr_t unit_addr, u64 version,
                               std::span<const u8> ct) const;
  /// Read the tag through the cache; returns bus cycles (0 on a hit).
  [[nodiscard]] cycles fetch_tag(addr_t unit_addr, std::span<u8> out);
  [[nodiscard]] cycles store_tag(addr_t unit_addr, std::span<const u8> tag);
  void install_tag_line(addr_t tag_line, std::span<const u8> data);

  // hash_tree helpers.
  [[nodiscard]] bytes leaf_digest(u64 index, std::span<const u8> ct) const;
  [[nodiscard]] bytes node_digest(unsigned level, u64 index,
                                  std::span<const u8> children) const;
  [[nodiscard]] bytes read_node(unsigned level, u64 index, cycles& bus,
                                bool* from_cache = nullptr);
  void cache_node(unsigned level, u64 index, const bytes& digest);
  void write_node(unsigned level, u64 index, const bytes& digest, cycles& bus);
  // area helpers.
  [[nodiscard]] bytes area_nonce(addr_t unit_addr, u64 version,
                                 std::size_t block) const;

  sim::memory_port* lower_;
  auth_config cfg_;
  std::size_t unit_;
  crypto::hmac_key mac_; ///< cfg_.key, prepared once for every tag and digest

  std::unordered_map<addr_t, u64> versions_; ///< on-chip version RAM (NVM)

  // mac state.
  std::unordered_map<addr_t, bytes> tag_cache_; ///< tag-line base -> 64 B
  std::vector<addr_t> tag_cache_fifo_;
  /// Tags staged by the current submit() flush (tag addr -> value): later
  /// staged reads must see them even when the tag line is uncached, and a
  /// tag-line fetch ordered before the staged write must not install a
  /// stale line over them.
  std::unordered_map<addr_t, bytes> staged_tags_;
  /// An engine submit() flush is staging against this authenticator; a
  /// reseal inside the window would clobber in-flight tag state.
  bool batch_open_ = false;

  // hash_tree state.
  std::vector<u64> level_sizes_;    ///< nodes per stored level, leaves first
  std::vector<addr_t> level_base_;  ///< external base address per level
  bytes root_;                      ///< on-chip root digest (tag_bytes)
  std::unordered_map<u64, bytes> node_cache_; ///< (level,index) key -> digest
  std::vector<u64> node_cache_fifo_;

  // area state: widened-memory expansion cells, by unit address.
  std::unordered_map<addr_t, bytes> sideband_;

  auth_stats stats_;
};

} // namespace buscrypt::engine
