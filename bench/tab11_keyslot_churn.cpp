// tab11_keyslot_churn — keyslot churn at scale: Zipf context storms
// against the slot pool, swept over eviction policy x pool size x skew.
//
// The survey's keyslot-style engines assume a small fixed pool absorbs
// traffic from many encryption contexts — the exact problem Linux's
// blk-crypto keyslot manager solves. This bench quantifies how the pool
// behaves when the context population is 1000x the slot count and
// popularity is Zipf-skewed: warm-hit rate, demand reprograms and their
// stall cycles, software fallbacks when in-flight requests pin the pool
// out, occupancy, and the resulting bytes/cycle — per policy (LRU,
// CLOCK, usage-aware, prefetch), per pool size, per skew.
//
// Two built-in proofs, mirroring tab10: (1) every churn cell is run
// serially and on the shuffled work-stealing fleet and must be
// bit-identical; (2) the four policies drive the same SoC workload to
// bit-identical DRAM images (policies move telemetry, never bytes). A
// failure of either exits nonzero.
//
// Emits BENCH_keyslot.json next to the console table and exits 1 if a
// warm-hit, prefetch or fallback claim does not hold. Machine-dependent
// fields are named host_*.

#include "bench_util.hpp"
#include "engine/churn.hpp"
#include "fleet/fleet.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kContexts = 100'000; // Zipf rank population per cell
constexpr std::size_t kOps = 150'000;      // storm length per cell

} // namespace

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 base_seed = bench::seed_arg(argc, argv, 0x5EC5EEDULL);
  const bench::fleet_args opt = bench::parse_fleet_args(argc, argv, "BENCH_keyslot.json");
  bench::banner("Tab. 11 — keyslot churn: Zipf context storms vs eviction policy",
                "pool behaviour when contexts outnumber slots 1000:1 (blk-crypto)");

  const u64 kSeed = base_seed;

  // The grid: policy x pool {4, 16} x skew {0.8, 1.2}. in_flight == 4
  // means the small pool saturates (misses pin out and fall back) while
  // the large pool isolates pure eviction behaviour.
  fleet::churn_fleet_config cfg;
  for (const engine::slot_policy policy : engine::all_slot_policies)
    for (const unsigned pool : {4u, 16u})
      for (const double skew : {0.8, 1.2}) {
        engine::churn_config c;
        c.contexts = kContexts;
        c.ops = kOps;
        c.zipf_s = skew;
        c.slots = pool;
        c.in_flight = 4;
        c.policy = policy;
        c.seed = kSeed;
        cfg.cells.push_back(std::move(c));
      }

  // Serial reference, then the shuffled work-stealing fleet: every cell
  // must be bit-identical between the two (the tab10 determinism proof,
  // on churn cells).
  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet::churn_fleet_result serial = fleet::run_churn_fleet(cfg);

  cfg.threads = opt.threads;
  cfg.shuffle = true;
  cfg.shuffle_seed = kSeed;
  const fleet::churn_fleet_result fleet_run = fleet::run_churn_fleet(cfg);

  if (const std::size_t mismatches = bench::fleet_mismatches(serial, fleet_run);
      mismatches != 0) {
    std::fprintf(stderr, "%zu/%zu cells diverged — shared-state bug\n", mismatches,
                 cfg.cells.size());
    return 1;
  }

  // Cross-policy equivalence on a real SoC workload: same cell, four
  // policies, a deliberately tiny pool — DRAM fingerprints must match
  // and nobody may fault. This is the bit the CI gate trusts.
  bool policies_equivalent = true;
  u64 fault_total = 0;
  {
    fleet::fleet_config pcfg;
    for (const engine::slot_policy policy : engine::all_slot_policies) {
      fleet::fleet_cell cell;
      cell.kind = edu::engine_kind::inline_keyslot;
      cell.accesses = 4000;
      cell.seed = kSeed;
      cell.policy = policy;
      cell.keyslot_slots = 2;
      pcfg.cells.push_back(std::move(cell));
    }
    pcfg.threads = opt.threads;
    const fleet::fleet_result pr = fleet::run_fleet(pcfg);
    for (std::size_t i = 0; i < pr.cells.size(); ++i) {
      fault_total += pr.cells[i].integrity_faults + pr.cells[i].domain_faults;
      if (pr.cells[i].dram_fnv != pr.cells[0].dram_fnv) {
        policies_equivalent = false;
        std::fprintf(stderr, "POLICY MISMATCH %s: DRAM diverged from %s\n",
                     pr.cells[i].label.c_str(), pr.cells[0].label.c_str());
      }
    }
  }
  if (!policies_equivalent || fault_total != 0) {
    std::fprintf(stderr, "cross-policy equivalence failed (faults: %llu)\n",
                 static_cast<unsigned long long>(fault_total));
    return 1;
  }

  table t({"cell", "warm-hit", "cold", "reprog", "prefetch", "stall cyc",
           "fallback", "occ", "B/cyc"});
  for (const engine::churn_result& c : serial.cells)
    t.add_row({c.label, table::num(100.0 * c.warm_hit_rate(), 1) + "%",
               table::num(static_cast<unsigned long long>(c.slots.cold_programs)),
               table::num(static_cast<unsigned long long>(c.slots.reprograms)),
               table::num(static_cast<unsigned long long>(c.slots.prefetch_programs)),
               table::num(static_cast<unsigned long long>(c.stall_cycles)),
               table::num(100.0 * c.fallback_rate(), 1) + "%",
               table::num(c.mean_occupancy(), 2), table::num(c.bytes_per_cycle(), 4)});
  std::printf("%s\n", t.str().c_str());

  const double speedup =
      fleet_run.host_ms <= 0.0 ? 0.0 : serial.host_ms / fleet_run.host_ms;
  std::printf("cells: %zu  threads: %u (hw %u)  steals: %llu\n", cfg.cells.size(),
              fleet_run.pool.threads, std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(fleet_run.pool.steals));
  std::printf("serial wall: %.1f ms   fleet wall: %.1f ms   speedup: %.2fx\n",
              serial.host_ms, fleet_run.host_ms, speedup);
  std::printf("determinism: all %zu churn cells bit-identical serial vs fleet\n",
              cfg.cells.size());
  std::printf("equivalence: 4 policies, bit-identical DRAM, 0 faults\n");

  std::FILE* json = std::fopen(opt.json_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"tab11_keyslot_churn\",\n  \"cells\": %zu,\n"
               "  \"host_threads\": %u,\n  \"host_hardware_concurrency\": %u,\n"
               "  \"contexts\": %zu,\n  \"ops\": %zu,\n  \"in_flight\": 4,\n"
               "  \"equivalent\": true,\n  \"policies_equivalent\": true,\n"
               "  \"policy_faults\": %llu,\n"
               "  \"host_serial_ms\": %.1f,\n  \"host_fleet_ms\": %.1f,\n"
               "  \"host_speedup\": %.2f,\n  \"matrix\": [\n",
               cfg.cells.size(), fleet_run.pool.threads,
               std::thread::hardware_concurrency(), kContexts, kOps,
               static_cast<unsigned long long>(fault_total), serial.host_ms,
               fleet_run.host_ms, speedup);
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const engine::churn_result& c = serial.cells[i];
    const engine::churn_config& cc = cfg.cells[i];
    std::fprintf(
        json,
        "    {\"cell\": \"%s\", \"policy\": \"%s\", \"pool\": %u, "
        "\"zipf_s\": %.2f, \"ops\": %llu, \"warm_hit_rate\": %.6f, "
        "\"cold_programs\": %llu, \"reprograms\": %llu, "
        "\"prefetch_programs\": %llu, \"evictions\": %llu, "
        "\"reprogram_stall_cycles\": %llu, \"fallbacks\": %llu, "
        "\"fallback_rate\": %.6f, \"mean_occupancy\": %.4f, "
        "\"bytes\": %llu, \"cycles\": %llu, \"bytes_per_cycle\": %.6f, "
        "\"draw_fnv\": \"%016llx\"}%s\n",
        c.label.c_str(), std::string(engine::slot_policy_name(cc.policy)).c_str(),
        cc.slots, cc.zipf_s, static_cast<unsigned long long>(c.ops),
        c.warm_hit_rate(), static_cast<unsigned long long>(c.slots.cold_programs),
        static_cast<unsigned long long>(c.slots.reprograms),
        static_cast<unsigned long long>(c.slots.prefetch_programs),
        static_cast<unsigned long long>(c.slots.evictions),
        static_cast<unsigned long long>(c.stall_cycles),
        static_cast<unsigned long long>(c.fallbacks), c.fallback_rate(),
        c.mean_occupancy(), static_cast<unsigned long long>(c.bytes),
        static_cast<unsigned long long>(c.total_cycles), c.bytes_per_cycle(),
        static_cast<unsigned long long>(c.draw_fnv),
        i + 1 == cfg.cells.size() ? "" : ",");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", opt.json_path);

  // Skewed traffic keeps the pool warm, the usage-aware policy beats LRU
  // on the hot-head storm, the prefetcher prefetches, and only the
  // saturated pool falls back.
  const auto cell = [&](const char* label) {
    for (const engine::churn_result& c : serial.cells)
      if (c.label == label) return c;
    return engine::churn_result{};
  };
  const engine::churn_result lru = cell("lru/p16/z1.20/c100000");
  const engine::churn_result refcount = cell("refcount/p16/z1.20/c100000");
  bench::claims claims;
  claims.check(lru.warm_hit_rate() >= 0.35, "LRU warm-hit >= 0.35 on p16 z1.20");
  claims.check(refcount.warm_hit_rate() >= lru.warm_hit_rate(),
               "refcount warm-hit >= LRU on p16 z1.20");
  claims.check(cell("prefetch/p16/z1.20/c100000").slots.prefetch_programs > 0,
               "the prefetch policy prefetches on p16 z1.20");
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const engine::churn_result& c = serial.cells[i];
    if (cfg.cells[i].slots == 4)
      claims.check(c.fallbacks > 0, c.label + ": the saturated pool falls back");
    else
      claims.check(c.fallbacks == 0, c.label + ": the roomy pool never falls back");
  }
  return claims.status();
}
