// tab10_fleet — many-SoC fleet: the 16-engine matrix on a work-stealing
// thread pool, with a built-in determinism proof.
//
// The survey's engines are deterministic single-SoC models; the
// production-scale axis is horizontal — run many independent SoC cells
// (engine x traffic x auth x seed) in parallel, the way Linux's
// inline-encryption layer multiplexes many request queues over one
// keyslot pool. This bench runs the same cell matrix twice: serially
// (threads=1, the per-cell host_ms denominator) and on the fleet pool in
// a deterministically shuffled order, then proves cell-by-cell
// bit-equivalence (cycles, DRAM image fingerprint, engine counters)
// before reporting the host-side speedup. A mismatch is a shared-state
// bug and exits nonzero.
//
// Emits BENCH_fleet.json next to the console table. Every machine-dependent
// field (thread count, steals, wall times, speedup) is named host_*.

#include "bench_util.hpp"
#include "fleet/fleet.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kAccesses = 6000; // per-cell workload length

} // namespace

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 base_seed = bench::seed_arg(argc, argv, 0x5EC5EEDULL);
  const bench::fleet_args opt = bench::parse_fleet_args(argc, argv, "BENCH_fleet.json");
  bench::banner("Tab. 10 — many-SoC fleet: parallel scenario matrix",
                "horizontal scale over the whole survey (tab1/tab7 matrices)");

  // The cell matrix: every engine (auth none), plus the keyslot engine
  // under each authentication scheme.
  const u64 kSeed = base_seed;
  fleet::fleet_config cfg;
  cfg.cells = fleet::engine_matrix(kAccesses, kSeed);
  for (const engine::auth_mode m :
       {engine::auth_mode::mac, engine::auth_mode::area, engine::auth_mode::hash_tree}) {
    fleet::fleet_cell c;
    c.kind = edu::engine_kind::inline_keyslot;
    c.accesses = kAccesses;
    c.seed = kSeed;
    c.auth = m;
    if (m == engine::auth_mode::area) c.backend = "aes-ecb"; // AREA rejects CTR
    cfg.cells.push_back(std::move(c));
  }

  // Serial reference: same cells, one thread, config order. Its per-cell
  // host_ms is the honest speedup denominator (per cell, not whole-sweep).
  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet::fleet_result serial = fleet::run_fleet(cfg);

  // The fleet proper: work-stealing pool, deterministically shuffled
  // execution order — the anti-ordering stress for shared state.
  cfg.threads = opt.threads;
  cfg.shuffle = true;
  cfg.shuffle_seed = kSeed;
  const fleet::fleet_result fleet_run = fleet::run_fleet(cfg);

  // Determinism proof: every cell bit-equal between the two runs.
  if (const std::size_t mismatches = bench::fleet_mismatches(serial, fleet_run);
      mismatches != 0) {
    std::fprintf(stderr, "%zu/%zu cells diverged — shared-state bug\n", mismatches,
                 cfg.cells.size());
    return 1;
  }

  table t({"cell", "ops", "B/cyc", "serial ms", "fleet ms"});
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const fleet::cell_result& c = serial.cells[i];
    t.add_row({c.label, table::num(static_cast<unsigned long long>(c.ops)),
               table::num(c.bytes_per_cycle(), 4), table::num(c.host_ms, 1),
               table::num(fleet_run.cells[i].host_ms, 1)});
  }
  std::printf("%s\n", t.str().c_str());

  const double speedup =
      fleet_run.host_ms <= 0.0 ? 0.0 : serial.host_ms / fleet_run.host_ms;
  std::printf("cells: %zu  threads: %u (hw %u)  steals: %llu\n",
              cfg.cells.size(), fleet_run.pool.threads,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(fleet_run.pool.steals));
  std::printf("serial wall: %.1f ms   fleet wall: %.1f ms   speedup: %.2fx\n",
              serial.host_ms, fleet_run.host_ms, speedup);
  std::printf("aggregate host txns/sec (fleet): %.0f\n", fleet_run.host_txns_per_sec());
  std::printf("determinism: all %zu cells bit-identical serial vs fleet\n",
              cfg.cells.size());

  std::FILE* json = std::fopen(opt.json_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"tab10_fleet\",\n  \"cells\": %zu,\n"
               "  \"host_threads\": %u,\n  \"host_hardware_concurrency\": %u,\n"
               "  \"host_steals\": %llu,\n  \"accesses\": %zu,\n  \"seeds\": 1,\n"
               "  \"equivalent\": true,\n"
               "  \"host_serial_ms\": %.1f,\n  \"host_fleet_ms\": %.1f,\n"
               "  \"host_speedup\": %.2f,\n  \"host_txns_per_sec\": %.0f,\n"
               "  \"matrix\": [\n",
               cfg.cells.size(), fleet_run.pool.threads,
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(fleet_run.pool.steals), kAccesses,
               serial.host_ms, fleet_run.host_ms, speedup, fleet_run.host_txns_per_sec());
  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    const fleet::cell_result& c = serial.cells[i];
    std::fprintf(json,
                 "    {\"cell\": \"%s\", \"auth\": \"%s\", \"ops\": %llu, "
                 "\"bytes\": %llu, \"cycles\": %llu, \"bytes_per_cycle\": %.6f, "
                 "\"integrity_faults\": %llu, \"dram_fnv\": \"%016llx\", "
                 "\"host_serial_ms\": %.1f, \"host_fleet_ms\": %.1f}%s\n",
                 c.label.c_str(),
                 std::string(engine::auth_mode_name(cfg.cells[i].auth)).c_str(),
                 static_cast<unsigned long long>(c.ops),
                 static_cast<unsigned long long>(c.bytes),
                 static_cast<unsigned long long>(c.total_cycles), c.bytes_per_cycle(),
                 static_cast<unsigned long long>(c.integrity_faults),
                 static_cast<unsigned long long>(c.dram_fnv), c.host_ms,
                 fleet_run.cells[i].host_ms, i + 1 == cfg.cells.size() ? "" : ",");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", opt.json_path);
  return 0;
}
