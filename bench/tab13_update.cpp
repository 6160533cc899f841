// tab13_update — crash-safe A/B firmware update under beat-level fault
// injection: the update lifecycle's recovery matrix.
//
// Three legs, every one of them a gate:
//
//  1. Recovery matrix: injection point x auth scheme x cipher backend.
//     Each cell boots a device (update/lifetime.hpp), arms one fault over
//     the update leg — a power cut at a bus beat / flush boundary /
//     journal write, a staged-image bit flip, or a bus stall storm —
//     power-cycles, recovers, and audits flash. Every cell must end
//     exactly-old or exactly-new (zero torn images) with the stale-version
//     replay probe fail-stopped.
//  2. Replay suite: attack::run_update_tamper_suite per auth scheme — the
//     downgrade / partial-flash / interrupted-update / journal-tamper
//     replays must all be caught (100% detection).
//  3. Fleet lifetime cells: fleet::lifetime_matrix on the work-stealing
//     pool, serial vs shuffled — randomized interruption placement at
//     scale, with the tab10 cell-by-cell bit-equivalence proof.
//
// Any torn image, accepted downgrade, missed replay, fleet divergence or
// cell that is not exactly one of old-intact and new-committed exits
// nonzero. Emits BENCH_update.json (--seed 0 reproduces the committed
// baseline).

#include "attack/tamper.hpp"
#include "bench_util.hpp"
#include "fleet/fleet.hpp"
#include "update/lifetime.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace buscrypt;

constexpr std::size_t kImageBytes = 8 * 1024;
constexpr std::size_t kChunkBytes = 512;

// The sampled engine axis: the stream fast path, the block-diffusion
// path AREA needs, and the survey's legacy 3DES core. AREA composes only
// with block diffusion, so the area x aes-ctr cell is skipped (the same
// rule tab9 prints as "unsupported").
constexpr const char* kBackends[] = {"aes-ctr", "aes-ecb", "3des-cbc"};

constexpr engine::auth_mode kSchemes[] = {
    engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
    engine::auth_mode::hash_tree};

constexpr std::size_t kRuns = 24; ///< fleet interruptions per (fault x auth) pair

struct matrix_cell {
  const char* backend = "";
  engine::auth_mode mode = engine::auth_mode::none;
  sim::fault_point point = sim::fault_point::none;
  u64 trigger = 0;
  unsigned stalls = 0;
  update::lifetime_result lr;
};

/// The per-point trigger schedule: cut placements that land before, inside
/// and after each phase of the update (seeded, so --seed reshuffles them).
std::vector<matrix_cell> plan_matrix(u64 seed) {
  std::vector<matrix_cell> cells;
  for (const char* backend : kBackends)
    for (const engine::auth_mode mode : kSchemes) {
      // AREA needs block diffusion (rules out aes-ctr) and data capacity
      // left beside the 8-byte redundancy in every cipher block (rules out
      // the 8-byte DES block, which the redundancy would fill completely).
      if (mode == engine::auth_mode::area && std::strcmp(backend, "aes-ecb") != 0)
        continue;
      for (const sim::fault_point point : sim::all_fault_points) {
        rng r(seed ^ (static_cast<u64>(point) << 12) ^
              (static_cast<u64>(mode) << 8) ^
              static_cast<u64>(backend[0] + backend[4]));
        const auto add = [&](u64 trigger, unsigned stalls) {
          matrix_cell c;
          c.backend = backend;
          c.mode = mode;
          c.point = point;
          c.trigger = trigger;
          c.stalls = stalls;
          cells.push_back(c);
        };
        switch (point) {
          case sim::fault_point::none: add(0, 0); break;
          case sim::fault_point::bus_beat:
          case sim::fault_point::bit_flip:
            add(r.between(8, 2000), 0);   // during staging / verify
            add(r.between(2000, 6000), 0); // during install / readback
            break;
          case sim::fault_point::flush: add(r.below(3), 0); break;
          case sim::fault_point::journal: add(r.below(4), 0); break;
          case sim::fault_point::bus_stall:
            add(0, 3);  // within the retry budget: must commit
            add(0, 20); // beyond it: must abort and roll back
            break;
        }
      }
    }
  return cells;
}

} // namespace

int main(int argc, char** argv) {
  const u64 seed = bench::seed_arg(argc, argv);
  const bench::fleet_args opt = bench::parse_fleet_args(argc, argv, "BENCH_update.json");
  bench::banner("Tab. 13 — crash-safe update lifecycle: recovery matrix",
                "A/B slots + on-chip journal under beat-level fault injection");

  const bench::host_timer wall;
  unsigned long long total_episodes = 0;
  bool ok = true;

  // --- 1. recovery matrix ----------------------------------------------------
  std::vector<matrix_cell> cells = plan_matrix(seed);
  for (matrix_cell& c : cells) {
    update::lifetime_config lc;
    lc.seed = seed ^ (static_cast<u64>(c.point) << 16) ^
              (static_cast<u64>(c.mode) << 24) ^ c.trigger;
    lc.auth = c.mode;
    lc.backend = c.backend;
    lc.inject = c.point;
    lc.trigger = c.trigger;
    lc.stalls = c.stalls;
    lc.image_bytes = kImageBytes;
    lc.chunk_bytes = kChunkBytes;
    c.lr = update::run_lifetime(lc);
    ++total_episodes;
    if (!update::lifetime_safe(c.lr)) ok = false;
  }

  table mt({"fault", "trigger", "backend", "auth", "status", "outcome",
            "dgrade-blocked", "retries"});
  for (const matrix_cell& c : cells)
    mt.add_row({std::string(sim::fault_point_name(c.point)),
                table::num(static_cast<unsigned long long>(
                    c.point == sim::fault_point::bus_stall ? c.stalls : c.trigger)),
                c.backend, std::string(engine::auth_mode_name(c.mode)),
                std::string(update::update_status_name(c.lr.status)),
                c.lr.torn ? "TORN"
                          : (c.lr.committed_new ? "new-committed" : "old-intact"),
                c.lr.downgrade_blocked ? "yes" : "NO",
                table::num(static_cast<unsigned long long>(c.lr.retries))});
  std::fputs(mt.str().c_str(), stdout);

  // --- 2. the four replay classes, per auth scheme ----------------------------
  bench::banner("Update replay suite: downgrade / partial-flash / interrupted / "
                "journal-tamper",
                "attack-kernel extension of the engine tamper suite");
  struct tamper_row {
    engine::auth_mode mode;
    const char* backend;
    attack::update_tamper_report rep;
  };
  std::vector<tamper_row> tampers;
  for (const engine::auth_mode mode : kSchemes) {
    const char* backend =
        mode == engine::auth_mode::area ? "aes-ecb" : "aes-ctr";
    tampers.push_back({mode, backend,
                       attack::run_update_tamper_suite(mode, backend, seed ^ 0x7A3EULL)});
    total_episodes += 5; // probe + one episode per replay class
    if (!tampers.back().rep.all_detected()) ok = false;
  }
  table tt({"auth", "backend", "downgrade", "partial-flash", "interrupted",
            "journal-tamper"});
  const auto caught = [](bool b) { return std::string(b ? "caught" : "MISSED"); };
  for (const tamper_row& t : tampers)
    tt.add_row({std::string(engine::auth_mode_name(t.mode)), t.backend,
                caught(t.rep.downgrade_detected), caught(t.rep.partial_flash_detected),
                caught(t.rep.interrupted_update_detected),
                caught(t.rep.journal_tamper_detected)});
  std::fputs(tt.str().c_str(), stdout);

  // --- 3. fleet lifetime cells: randomized interruptions at scale -------------
  bench::banner("Fleet lifetime cells: randomized interruptions, serial vs pool",
                "tab10 determinism proof over whole-device update episodes");
  fleet::fleet_config fcfg;
  fcfg.cells = fleet::lifetime_matrix(kRuns, seed ^ 0x13F1EE7ULL);
  fcfg.threads = 1;
  fcfg.shuffle = false;
  const fleet::fleet_result serial = fleet::run_fleet(fcfg);
  fcfg.threads = opt.threads;
  fcfg.shuffle = true;
  fcfg.shuffle_seed = seed ^ 0x13F1EE7ULL;
  const fleet::fleet_result pooled = fleet::run_fleet(fcfg);
  total_episodes += 2 * fcfg.cells.size();

  const std::size_t mismatches = bench::fleet_mismatches(serial, pooled);
  u64 committed = 0, rolled_back = 0, torn = 0, breaches = 0;
  for (const fleet::cell_result& c : serial.cells) {
    committed += c.updates_committed;
    rolled_back += c.updates_rolled_back;
    torn += c.torn_images;
    breaches += c.downgrade_breaches;
  }
  if (mismatches != 0 || torn != 0 || breaches != 0) ok = false;
  std::printf("%zu lifetime cells x 2 runs: %llu committed, %llu rolled back, "
              "%llu torn, %llu downgrade breaches, %zu determinism mismatches\n",
              fcfg.cells.size(), static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(rolled_back),
              static_cast<unsigned long long>(torn),
              static_cast<unsigned long long>(breaches), mismatches);

  // --- JSON -------------------------------------------------------------------
  std::FILE* json = std::fopen(opt.json_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path);
    return 1;
  }
  const double total_ms = wall.ms();
  std::fprintf(json,
               "{\n  \"bench\": \"tab13_update\",\n  \"image_bytes\": %zu,\n"
               "  \"chunk_bytes\": %zu,\n  \"host_ms\": %.1f,\n"
               "  \"host_ops_per_sec\": %.0f,\n  \"matrix\": [\n",
               kImageBytes, kChunkBytes, total_ms,
               bench::host_ops_per_sec(total_episodes, total_ms));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const matrix_cell& c = cells[i];
    std::fprintf(
        json,
        "    {\"fault\": \"%s\", \"trigger\": %llu, \"stalls\": %u, "
        "\"backend\": \"%s\", \"auth\": \"%s\", \"status\": \"%s\", "
        "\"cut\": %s, \"committed_new\": %s, \"old_intact\": %s, "
        "\"torn\": %s, \"downgrade_blocked\": %s, \"retries\": %llu, "
        "\"update_cycles\": %llu}%s\n",
        std::string(sim::fault_point_name(c.point)).c_str(),
        static_cast<unsigned long long>(c.trigger), c.stalls, c.backend,
        std::string(engine::auth_mode_name(c.mode)).c_str(),
        std::string(update::update_status_name(c.lr.status)).c_str(),
        c.lr.cut ? "true" : "false", c.lr.committed_new ? "true" : "false",
        c.lr.old_intact ? "true" : "false", c.lr.torn ? "true" : "false",
        c.lr.downgrade_blocked ? "true" : "false",
        static_cast<unsigned long long>(c.lr.retries),
        static_cast<unsigned long long>(c.lr.update_cycles),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"tamper\": [\n");
  for (std::size_t i = 0; i < tampers.size(); ++i) {
    const tamper_row& t = tampers[i];
    std::fprintf(json,
                 "    {\"auth\": \"%s\", \"backend\": \"%s\", \"downgrade\": %s, "
                 "\"partial_flash\": %s, \"interrupted\": %s, \"journal\": %s}%s\n",
                 std::string(engine::auth_mode_name(t.mode)).c_str(), t.backend,
                 t.rep.downgrade_detected ? "true" : "false",
                 t.rep.partial_flash_detected ? "true" : "false",
                 t.rep.interrupted_update_detected ? "true" : "false",
                 t.rep.journal_tamper_detected ? "true" : "false",
                 i + 1 < tampers.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"fleet\": {\"cells\": %zu, \"runs_per_pair\": %zu, "
               "\"committed\": %llu, \"rolled_back\": %llu, \"torn\": %llu, "
               "\"downgrade_breaches\": %llu, \"mismatches\": %zu},\n"
               "  \"all_recovered_or_rolled_back\": %s\n}\n",
               fcfg.cells.size(), kRuns,
               static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(rolled_back),
               static_cast<unsigned long long>(torn),
               static_cast<unsigned long long>(breaches), mismatches,
               ok ? "true" : "false");
  std::fclose(json);

  std::printf("\nwrote %s (%zu matrix cells, %llu episodes, %.1f ms)\n",
              opt.json_path, cells.size(), total_episodes, total_ms);
  // Recovery is all-or-nothing: each cell ends exactly one of old-intact
  // and new-committed, and every fleet cell is accounted for as one.
  bench::claims claims;
  claims.check(ok, "no torn image, accepted downgrade, missed replay or fleet mismatch");
  for (const matrix_cell& c : cells) {
    char name[96];
    std::snprintf(name, sizeof name, "%s/%llu/%u/%s/%s",
                  std::string(sim::fault_point_name(c.point)).c_str(),
                  static_cast<unsigned long long>(c.trigger), c.stalls, c.backend,
                  std::string(engine::auth_mode_name(c.mode)).c_str());
    claims.check(c.lr.committed_new != c.lr.old_intact,
                 std::string(name) + " ends exactly old-intact or new-committed");
  }
  claims.check(committed + rolled_back == fcfg.cells.size(),
               "fleet cells committed + rolled back == cells");
  return claims.status();
}
