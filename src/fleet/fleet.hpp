#pragma once
/// \file fleet.hpp
/// Many-SoC fleet runner: execute N independent SoC simulations (cells)
/// across a work-stealing thread pool and aggregate their stats — the
/// horizontal production axis over the survey's deterministic single-SoC
/// engines, the way Linux's inline-encryption layer multiplexes many
/// request queues over one keyslot pool.
///
/// The contract that makes this safe is *cell independence*: a cell is a
/// pure function of its `fleet_cell` description. Every component a cell
/// touches (DRAM, caches, EDU, keyslot pool, authenticator, RNG streams)
/// is instantiated per cell inside run_cell(); the only process-wide
/// object reachable from a run is engine::backend_registry::builtin(),
/// which is immutable after construction and holds no cache or lock (see
/// cipher_backend.hpp) — cells share nothing mutable. Hence the
/// determinism proof the tests enforce: a cell's cycles, DRAM image and
/// engine stats are identical whether it runs alone, serially, or on a
/// 16-thread fleet in randomized order.

#include "common/bitops.hpp"
#include "edu/edu.hpp"
#include "edu/soc.hpp"
#include "engine/churn.hpp"
#include "fleet/pool.hpp"
#include "sim/fault_injector.hpp"
#include "update/lifetime.hpp"

#include <span>
#include <string>
#include <vector>

namespace buscrypt::fleet {

/// How a cell drives its SoC.
enum class drive_mode : u8 {
  batched,  ///< run_throughput with mem_txn batches (the tab7 fast path)
  scalar,   ///< run_throughput one blocking request at a time
  cpu,      ///< full CPU + L1 execution via secure_soc::run
  noc,      ///< multi-master interconnect via secure_soc::run_topology
  lifetime, ///< whole-device episode: boot → update under fault → recover
};

[[nodiscard]] constexpr std::string_view drive_mode_name(drive_mode m) noexcept {
  switch (m) {
    case drive_mode::batched: return "batched";
    case drive_mode::scalar: return "scalar";
    case drive_mode::cpu: return "cpu";
    case drive_mode::noc: return "noc";
    case drive_mode::lifetime: return "lifetime";
  }
  return "?";
}

/// A cell's traffic shape (the sim/workload.hpp generators).
enum class traffic : u8 { mixed, jumpy, streaming, data_rw, pointer_chase, sequential };

[[nodiscard]] constexpr std::string_view traffic_name(traffic t) noexcept {
  switch (t) {
    case traffic::mixed: return "mixed";
    case traffic::jumpy: return "jumpy";
    case traffic::streaming: return "streaming";
    case traffic::data_rw: return "data-rw";
    case traffic::pointer_chase: return "pointer-chase";
    case traffic::sequential: return "sequential";
  }
  return "?";
}

/// One independent SoC simulation: engine x traffic x auth x seed x
/// drive. Self-describing — two identical cells produce bit-identical
/// results on any thread, in any order.
struct fleet_cell {
  edu::engine_kind kind = edu::engine_kind::plaintext;
  traffic load = traffic::mixed;
  std::size_t accesses = 6000;        ///< workload length knob
  std::size_t footprint = 256 * 1024; ///< address range the workload covers
  /// inline_keyslot only (every other engine ignores both): default
  /// context's authentication scheme and cipher backend. AREA composes
  /// only with block-diffusion backends — the matrix builders pick
  /// aes-ecb for area cells; an explicit area-on-ctr cell throws, as the
  /// engine's attach does.
  engine::auth_mode auth = engine::auth_mode::none;
  std::string backend; ///< empty = keyslot_default_backend
  /// inline_keyslot only: slot-pool victim policy and size (0 = the
  /// engine_edu default). Policies never change a cell's DRAM bytes —
  /// the cross-policy sweep test proves exactly that.
  engine::slot_policy policy = engine::slot_policy::lru;
  unsigned keyslot_slots = 0;
  u64 seed = 0x5EC5EEDULL; ///< key material + workload + image derivation
  std::size_t batch_txns = 16; ///< batched drive only
  drive_mode drive = drive_mode::batched;
  // noc drive only (every other drive ignores all four): the interconnect
  // shape. The heterogeneous cast (CPU compute, DMA movers, peripheral
  // pollers — see noc_cast) partitions the footprint; noc_clusters == 0
  // is the flat implicit cluster (tab8's flat bus), >= 1 deals the
  // masters round-robin into that many explicit clusters.
  std::size_t noc_masters = 4;
  std::size_t noc_clusters = 0;
  bool noc_qos = false;      ///< role-derived QoS classes (dma bulk, periph latency)
  bool noc_firewall = false; ///< per-master whitelists over each slice
  // lifetime drive only (every other drive ignores all three): the fault
  // armed over the update leg. inject_trigger counts the point's native
  // unit (bus beats / flush boundaries / journal records; stall count for
  // bus_stall); offer_package picks the resume (true) or rollback (false)
  // recovery path after a cut.
  sim::fault_point inject = sim::fault_point::none;
  u64 inject_trigger = 0;
  bool offer_package = true;

  /// Display label, unique per distinct cell in the standard matrices:
  /// "<engine>[+auth][/backend][~policy][@slots]/<traffic>/<drive> s<seed>"
  /// (noc drive renders as "noc<m>x<c>[+qos][+fw]"; the policy/pool marks
  /// appear only off the defaults, so the committed tab10 labels are
  /// unchanged).
  [[nodiscard]] std::string label() const;
};

/// Everything one cell run measured. The sim_* portion is deterministic;
/// host_ms is the only machine-dependent field.
struct cell_result {
  std::string label;
  // Simulated results (deterministic).
  u64 ops = 0;            ///< port operations (batched/scalar) or instructions (cpu)
  u64 bytes = 0;          ///< payload bytes moved
  cycles total_cycles = 0;
  edu::edu_stats edu;     ///< the engine-front counters every EDU keeps
  u64 integrity_faults = 0; ///< keyslot engines only
  u64 domain_faults = 0;    ///< keyslot engines only
  u64 firewall_denials = 0; ///< keyslot noc cells only (rule-table refusals)
  u64 fallbacks = 0;        ///< keyslot engines only
  // lifetime cells only (zero elsewhere): crash-safety outcome counters.
  u64 updates_committed = 0;   ///< device ended on the new image
  u64 updates_rolled_back = 0; ///< device ended on the intact old image
  u64 torn_images = 0;         ///< neither — must stay 0 fleet-wide
  u64 downgrade_breaches = 0;  ///< stale-version probe accepted — must stay 0
  u64 dram_fnv = 0; ///< FNV-1a over the post-flush external memory image
  // Host speed (machine-dependent, excluded from equivalence).
  double host_ms = 0.0;

  [[nodiscard]] double bytes_per_cycle() const noexcept {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(bytes) / static_cast<double>(total_cycles);
  }

  /// Simulated-state equality: everything but host_ms. This is the
  /// fleet-vs-serial bit-equivalence relation the tests quantify over.
  [[nodiscard]] bool sim_equal(const cell_result& o) const noexcept;
};

struct fleet_config {
  std::vector<fleet_cell> cells;
  unsigned threads = 0; ///< pool size; 0 = hardware_concurrency, 1 = serial
  /// Execute in a deterministically shuffled order (shared-state stress;
  /// results are always reported in cells[] order regardless).
  bool shuffle = false;
  u64 shuffle_seed = 0;
};

struct fleet_result {
  std::vector<cell_result> cells; ///< config order, independent of execution order
  pool_stats pool;                ///< host-side: workers, steals
  double host_ms = 0.0;           ///< wall time of the whole fleet run

  [[nodiscard]] u64 total_ops() const noexcept;
  [[nodiscard]] u64 total_bytes() const noexcept;
  [[nodiscard]] cycles total_cycles() const noexcept;
  /// Aggregate host throughput: simulated port txns retired per host
  /// second across the whole fleet — the "million-user day" figure.
  [[nodiscard]] double host_txns_per_sec() const noexcept;
};

/// Run one cell, fully isolated: builds the SoC, installs a seed-derived
/// image, drives it, flushes, and checksums external memory.
[[nodiscard]] cell_result run_cell(const fleet_cell& cell);

/// The heterogeneous master cast of a noc cell: noc_masters descriptors
/// in the repeating role pattern cpu, dma, dma, periph, each over its own
/// slice of the footprint (DMA movers copy within the slice, pollers spin
/// on slice-base registers; on the keyslot engine each slice is that
/// master's private protection domain). Deterministic in (seed,
/// footprint, accesses, noc_masters) only — the scenario axis tab12 and
/// the fleet cells share.
[[nodiscard]] std::vector<edu::master_desc> noc_cast(const fleet_cell& cell);

/// The topology of a noc cell: flat when noc_clusters == 0, otherwise the
/// masters dealt round-robin into that many clusters; role-derived QoS
/// classes when noc_qos; a per-master rw whitelist over each slice when
/// noc_firewall (in-slice traffic never trips it, so the firewalled cell
/// moves the same bytes — the denial counters prove containment).
[[nodiscard]] sim::topology noc_topology(const fleet_cell& cell);

/// Run every cell of \p cfg across the pool. Results land in config
/// order; an exception in any cell aborts the fleet and rethrows.
[[nodiscard]] fleet_result run_fleet(const fleet_config& cfg);

// --- standard matrices -------------------------------------------------------

/// The 16-engine sweep (auth none), one cell per engine_kind.
[[nodiscard]] std::vector<fleet_cell> engine_matrix(std::size_t accesses, u64 seed);

/// The 16-engine x {none, mac, area, hash-tree} matrix (64 cells). Auth
/// composes with the keyslot engine; for every other engine the auth
/// axis is carried (and must be result-invariant — the tests check
/// exactly that). Area cells on the keyslot engine run the aes-ecb
/// backend, since AREA rejects pad-precomputable ciphers.
[[nodiscard]] std::vector<fleet_cell> engine_auth_matrix(std::size_t accesses, u64 seed);

/// \p n copies of \p proto with seeds proto.seed, proto.seed+1, ... —
/// the seed-sweep axis (distinct key material, workloads and images).
[[nodiscard]] std::vector<fleet_cell> seed_sweep(fleet_cell proto, std::size_t n);

/// Lifetime cells: every fault point x every auth scheme, \p runs
/// seed-randomized interruptions per pair (trigger placement, stall depth
/// and resume-vs-rollback path all derived from the cell seed). This is
/// the matrix run_fleet uses to exercise thousands of update
/// interruptions — the crash-safety analogue of engine_auth_matrix.
[[nodiscard]] std::vector<fleet_cell> lifetime_matrix(std::size_t runs, u64 seed);

// --- keyslot churn cells -----------------------------------------------------

/// A fleet of keyslot churn storms (engine/churn.hpp): each cell replays
/// one Zipf context storm against one private pool — the policy x pool x
/// skew comparison grid, run with the same work-stealing/shuffle
/// machinery and the same determinism contract as the SoC cells.
struct churn_fleet_config {
  std::vector<engine::churn_config> cells;
  unsigned threads = 0; ///< pool size; 0 = hardware_concurrency, 1 = serial
  bool shuffle = false; ///< deterministically shuffled execution order
  u64 shuffle_seed = 0;
};

struct churn_fleet_result {
  std::vector<engine::churn_result> cells; ///< config order, always
  pool_stats pool;
  double host_ms = 0.0;
};

/// Run every churn cell across the pool. Results land in config order;
/// cell results are bit-identical for any threads/shuffle choice.
[[nodiscard]] churn_fleet_result run_churn_fleet(const churn_fleet_config& cfg);

// --- serialization -----------------------------------------------------------

/// Deterministic JSON for a fleet run. With include_host = false every
/// machine-dependent field (host_ms, pool stats) is omitted, so one
/// config yields a byte-identical string across runs, thread counts and
/// execution orders — the artifact the determinism tests diff.
[[nodiscard]] std::string fleet_json(const fleet_config& cfg, const fleet_result& r,
                                     bool include_host = true);

/// FNV-1a 64-bit over a byte span (the DRAM-image fingerprint); defined
/// once in common/bitops.hpp.
using buscrypt::fnv1a;

} // namespace buscrypt::fleet
