// Many-SoC fleet runner: work-stealing pool semantics (every job exactly
// once, serial reference order, exception propagation, stealing under
// skew), the multi-threaded hammer on the shared builtin backend
// registry's make_keyed(), fleet determinism (byte-identical
// fleet JSON across thread counts and execution orders, stable seed
// sweeps), and the 16-engine x 4-auth fleet-vs-solo bit-equivalence
// sweep. These are the proofs behind the cell-independence contract in
// fleet.hpp: scheduling may never leak into simulated results.

#include "engine/cipher_backend.hpp"
#include "fleet/fleet.hpp"
#include "fleet/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace buscrypt {
namespace {

using fleet::drive_mode;
using fleet::fleet_cell;
using fleet::fleet_config;
using fleet::fleet_result;
using fleet::traffic;

// --- pool -------------------------------------------------------------------

TEST(FleetPool, RunsEveryJobExactlyOnce) {
  constexpr std::size_t n = 97;
  std::vector<std::atomic<int>> hits(n);
  const fleet::pool_stats st =
      fleet::run_jobs(n, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(st.executed, n);
  EXPECT_EQ(st.threads, 4u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(FleetPool, ZeroJobsIsANoop) {
  const fleet::pool_stats st =
      fleet::run_jobs(0, 4, [](std::size_t) { FAIL() << "no job should run"; });
  EXPECT_EQ(st.executed, 0u);
  EXPECT_EQ(st.steals, 0u);
}

TEST(FleetPool, ThreadsClampToJobCount) {
  std::vector<std::atomic<int>> hits(3);
  const fleet::pool_stats st =
      fleet::run_jobs(3, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(st.executed, 3u);
  EXPECT_LE(st.threads, 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(FleetPool, SerialPathRunsInIndexOrder) {
  std::vector<std::size_t> order;
  const fleet::pool_stats st =
      fleet::run_jobs(10, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(st.threads, 1u);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(FleetPool, FirstExceptionPropagates) {
  std::atomic<u64> ran{0};
  const auto boom = [&](std::size_t i) {
    if (i == 7) throw std::runtime_error("cell 7 failed");
    ran.fetch_add(1);
  };
  EXPECT_THROW(fleet::run_jobs(32, 4, boom), std::runtime_error);
  EXPECT_LT(ran.load(), 32u); // the throwing job never counts as run
}

TEST(FleetPool, IdleWorkersStealFromBusyVictims) {
  // Two workers, round-robin seeding: worker 0 owns {0,2,4,6} and pops
  // LIFO, so it executes job 6 first — and job 6 blocks until its three
  // deque-mates {0,2,4} have run. Worker 0 cannot run them itself (it is
  // inside job 6), so the only way the pool finishes is worker 1 stealing
  // them. No timing assumptions: the wait is on job completion, and the
  // pool's own termination guarantee makes the steal inevitable.
  std::vector<std::atomic<int>> done(8);
  const auto fn = [&](std::size_t i) {
    if (i == 6) {
      while (done[0].load() + done[2].load() + done[4].load() < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done[i].fetch_add(1);
  };
  const fleet::pool_stats st = fleet::run_jobs(8, 2, fn);
  EXPECT_EQ(st.executed, 8u);
  EXPECT_GE(st.steals, 3u);
}

// --- the shared builtin registry (hammer make_keyed) ------------------------

// make_keyed() on the process-wide builtin() backends is the one code
// path every fleet worker thread reaches through the same objects. The
// backends are immutable, so concurrent minting needs no lock: hammer it
// from many threads with overlapping keys and check every minted cipher
// transforms exactly like a single-threaded reference and round-trips.
TEST(BackendThreads, MakeKeyedFromManyThreadsMatchesSerial) {
  const engine::backend_registry& reg = engine::backend_registry::builtin();
  const std::vector<std::string> names = {"aes-ecb", "aes-cbc", "aes-ctr",
                                          "3des-cbc", "rc4-stream"};
  constexpr std::size_t k_keys = 8;
  constexpr std::size_t k_threads = 8;
  constexpr std::size_t k_iters = 48;
  constexpr u64 k_dun = 0x51;

  std::vector<bytes> keys;
  for (std::size_t k = 0; k < k_keys; ++k) {
    bytes key(16);
    for (std::size_t i = 0; i < key.size(); ++i)
      key[i] = static_cast<u8>(0xA0 + 31 * k + 7 * i);
    keys.push_back(std::move(key));
  }
  bytes plain(64);
  for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = static_cast<u8>(i * 5 + 1);

  // Single-threaded reference ciphertexts, one per (backend, key).
  std::vector<std::vector<bytes>> expected(names.size());
  for (std::size_t b = 0; b < names.size(); ++b) {
    const engine::cipher_backend& backend = reg.at(names[b]);
    for (const bytes& key : keys) {
      bytes ct(plain.size());
      backend.make_keyed(key)->encrypt_unit(k_dun, plain, ct);
      expected[b].push_back(std::move(ct));
    }
  }

  std::atomic<u64> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < k_threads; ++t)
    threads.emplace_back([&, t] {
      bytes out(plain.size());
      bytes back(plain.size());
      for (std::size_t it = 0; it < k_iters; ++it)
        for (std::size_t b = 0; b < names.size(); ++b) {
          // Rotate key choice per thread so threads mint the same keys at once.
          const std::size_t k = (t + it + b) % k_keys;
          const auto keyed = reg.at(names[b]).make_keyed(keys[k]);
          keyed->encrypt_unit(k_dun, plain, out);
          if (out != expected[b][k]) mismatches.fetch_add(1);
          keyed->decrypt_unit(k_dun, out, back);
          if (back != plain) mismatches.fetch_add(1);
        }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- cell determinism -------------------------------------------------------

fleet_cell small_cell(edu::engine_kind kind, engine::auth_mode auth,
                      std::size_t accesses) {
  fleet_cell c;
  c.kind = kind;
  c.auth = auth;
  c.accesses = accesses;
  c.footprint = 64 * 1024;
  if (kind == edu::engine_kind::inline_keyslot && auth == engine::auth_mode::area)
    c.backend = "aes-ecb";
  return c;
}

TEST(FleetCell, SoloRerunIsBitIdentical) {
  const fleet_cell c =
      small_cell(edu::engine_kind::inline_keyslot, engine::auth_mode::mac, 400);
  const fleet::cell_result a = fleet::run_cell(c);
  const fleet::cell_result b = fleet::run_cell(c);
  EXPECT_TRUE(a.sim_equal(b));
  EXPECT_NE(a.dram_fnv, 0u);
  EXPECT_GT(a.ops, 0u);
  EXPECT_GT(a.total_cycles, 0u);
}

TEST(FleetCell, DistinctSeedsProduceDistinctImages) {
  fleet_cell proto = small_cell(edu::engine_kind::inline_keyslot,
                                engine::auth_mode::none, 300);
  const std::vector<fleet_cell> cells = fleet::seed_sweep(proto, 4);
  std::vector<fleet::cell_result> results;
  for (const fleet_cell& c : cells) results.push_back(fleet::run_cell(c));
  for (std::size_t i = 0; i < results.size(); ++i)
    for (std::size_t j = i + 1; j < results.size(); ++j) {
      EXPECT_NE(results[i].dram_fnv, results[j].dram_fnv) << i << " vs " << j;
      EXPECT_NE(results[i].label, results[j].label);
    }
}

// The satellite-2 artifact: same fleet_config -> byte-identical
// machine-independent JSON whether the fleet runs serially, on 4
// threads, on hardware_concurrency threads, or in a shuffled order.
TEST(FleetDeterminism, JsonByteIdenticalAcrossThreadCountsAndOrders) {
  fleet_config cfg;
  cfg.cells = fleet::engine_matrix(200, 0xDE7E12ULL);
  for (fleet_cell& c : cfg.cells) c.footprint = 64 * 1024;
  cfg.cells.push_back(
      small_cell(edu::engine_kind::inline_keyslot, engine::auth_mode::mac, 200));
  {
    fleet_cell scalar = small_cell(edu::engine_kind::xom_aes,
                                   engine::auth_mode::none, 200);
    scalar.drive = drive_mode::scalar;
    cfg.cells.push_back(std::move(scalar));
  }

  cfg.threads = 1;
  cfg.shuffle = false;
  const std::string serial = fleet::fleet_json(cfg, fleet::run_fleet(cfg), false);
  const std::string serial_again =
      fleet::fleet_json(cfg, fleet::run_fleet(cfg), false);
  EXPECT_EQ(serial, serial_again);

  cfg.threads = 4;
  cfg.shuffle = true;
  cfg.shuffle_seed = 1;
  EXPECT_EQ(serial, fleet::fleet_json(cfg, fleet::run_fleet(cfg), false));

  cfg.threads = 0; // hardware_concurrency
  cfg.shuffle_seed = 99;
  EXPECT_EQ(serial, fleet::fleet_json(cfg, fleet::run_fleet(cfg), false));
}

TEST(FleetDeterminism, SeedSweepFleetIsStableAcrossRuns) {
  fleet_config cfg;
  cfg.cells = fleet::seed_sweep(
      small_cell(edu::engine_kind::inline_keyslot, engine::auth_mode::none, 300), 6);
  cfg.threads = 3;
  cfg.shuffle = true;
  cfg.shuffle_seed = 7;
  const std::string a = fleet::fleet_json(cfg, fleet::run_fleet(cfg), false);
  const std::string b = fleet::fleet_json(cfg, fleet::run_fleet(cfg), false);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"dram_fnv\""), std::string::npos);
}

TEST(FleetDeterminism, CpuDriveCellsMatchSoloRuns) {
  fleet_config cfg;
  for (const edu::engine_kind kind :
       {edu::engine_kind::plaintext, edu::engine_kind::inline_keyslot}) {
    fleet_cell c = small_cell(kind, engine::auth_mode::none, 800);
    c.drive = drive_mode::cpu;
    c.load = traffic::jumpy;
    cfg.cells.push_back(std::move(c));
  }
  std::vector<fleet::cell_result> solo;
  for (const fleet_cell& c : cfg.cells) solo.push_back(fleet::run_cell(c));

  cfg.threads = 8;
  cfg.shuffle = true;
  const fleet_result r = fleet::run_fleet(cfg);
  ASSERT_EQ(r.cells.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i)
    EXPECT_TRUE(r.cells[i].sim_equal(solo[i])) << solo[i].label;
}

// DES-backend cells on a multi-thread fleet: the GI engine's 1 KiB
// segment decrypts (128 blocks a call) and Gilmont's prefetch runs drive
// the bitsliced wide DES path concurrently from several worker threads
// while sharing immutable key schedules. Covered by the TSan CI leg (it
// filters -R 'Fleet'), so a data race in the lane-group dispatch table or
// the borrowed-schedule passes would surface here.
TEST(FleetDeterminism, BitslicedDesCellsAcrossWorkerThreads) {
  fleet_config cfg;
  for (const edu::engine_kind kind :
       {edu::engine_kind::dallas_des, edu::engine_kind::gilmont_3des,
        edu::engine_kind::gi_3des_cbc}) {
    const std::vector<fleet_cell> pair =
        fleet::seed_sweep(small_cell(kind, engine::auth_mode::none, 400), 2);
    cfg.cells.insert(cfg.cells.end(), pair.begin(), pair.end());
  }
  std::vector<fleet::cell_result> solo;
  for (const fleet_cell& c : cfg.cells) solo.push_back(fleet::run_cell(c));

  cfg.threads = 6;
  cfg.shuffle = true;
  cfg.shuffle_seed = 0xDE5F1EE7ULL;
  const fleet_result r = fleet::run_fleet(cfg);
  ASSERT_EQ(r.cells.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i)
    EXPECT_TRUE(r.cells[i].sim_equal(solo[i])) << solo[i].label;
}

TEST(FleetJson, HostFieldsAppearOnlyWhenRequested) {
  fleet_config cfg;
  cfg.cells.push_back(small_cell(edu::engine_kind::plaintext,
                                 engine::auth_mode::none, 100));
  cfg.threads = 1;
  const fleet_result r = fleet::run_fleet(cfg);
  const std::string with_host = fleet::fleet_json(cfg, r, true);
  const std::string without = fleet::fleet_json(cfg, r, false);
  EXPECT_NE(with_host.find("\"host_ms\""), std::string::npos);
  EXPECT_NE(with_host.find("\"threads\""), std::string::npos);
  EXPECT_EQ(without.find("\"host_ms\""), std::string::npos);
  EXPECT_EQ(without.find("\"threads\""), std::string::npos);
  EXPECT_NE(without.find("\"total_cycles\""), std::string::npos);
}

// --- the 16-engine x 4-auth bit-equivalence sweep (satellite 3) -------------

// Every engine under every auth mode, three ways: alone (run_cell),
// serially (threads=1 fleet), and on a 16-thread fleet in randomized
// order. All three must agree bit-for-bit on every cell — the ISSUE's
// acceptance matrix. Named *Sweep* so the sweep label/filter picks it up.
TEST(FleetSweep, AllEnginesAllAuthFleetVsSolo) {
  fleet_config cfg;
  cfg.cells = fleet::engine_auth_matrix(400, 0x5EC5EEDULL);
  for (fleet_cell& c : cfg.cells) c.footprint = 64 * 1024;
  ASSERT_EQ(cfg.cells.size(), edu::all_engines().size() * 4);

  std::vector<fleet::cell_result> solo;
  solo.reserve(cfg.cells.size());
  for (const fleet_cell& c : cfg.cells) solo.push_back(fleet::run_cell(c));

  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet_result serial = fleet::run_fleet(cfg);

  cfg.threads = 16;
  cfg.shuffle = true;
  cfg.shuffle_seed = 0xF1EE7ULL;
  const fleet_result fleet_run = fleet::run_fleet(cfg);

  ASSERT_EQ(serial.cells.size(), solo.size());
  ASSERT_EQ(fleet_run.cells.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_TRUE(serial.cells[i].sim_equal(solo[i])) << "serial: " << solo[i].label;
    EXPECT_TRUE(fleet_run.cells[i].sim_equal(solo[i])) << "fleet: " << solo[i].label;
  }
  EXPECT_EQ(fleet_run.pool.executed, solo.size());
}

// --- lifetime cells: whole-device update episodes on the pool ----------------

TEST(FleetLifetime, MatrixCellsAreSafeAcrossThreadsAndOrders) {
  fleet_config cfg;
  cfg.cells = fleet::lifetime_matrix(2, 0x13F1EE7ULL);
  ASSERT_EQ(cfg.cells.size(), std::size(sim::all_fault_points) * 4 * 2);

  cfg.threads = 1;
  cfg.shuffle = false;
  const fleet_result serial = fleet::run_fleet(cfg);

  cfg.threads = 8;
  cfg.shuffle = true;
  cfg.shuffle_seed = 0xDEF7ULL;
  const fleet_result pooled = fleet::run_fleet(cfg);

  for (std::size_t i = 0; i < cfg.cells.size(); ++i) {
    EXPECT_TRUE(pooled.cells[i].sim_equal(serial.cells[i]))
        << serial.cells[i].label;
    // The crash-safety invariant, cell by cell: ended on exactly one of
    // the two images, stale-version probe refused.
    EXPECT_EQ(serial.cells[i].torn_images, 0u) << serial.cells[i].label;
    EXPECT_EQ(serial.cells[i].downgrade_breaches, 0u) << serial.cells[i].label;
    EXPECT_EQ(serial.cells[i].updates_committed + serial.cells[i].updates_rolled_back,
              1u)
        << serial.cells[i].label;
  }
}

TEST(FleetLifetime, LabelsCarryTheFaultAxis) {
  fleet_cell c;
  c.drive = drive_mode::lifetime;
  c.inject = sim::fault_point::bus_beat;
  c.inject_trigger = 42;
  c.offer_package = false;
  const std::string l = c.label();
  EXPECT_NE(l.find("lifetime"), std::string::npos) << l;
  EXPECT_NE(l.find("bus-beat"), std::string::npos) << l;
  EXPECT_NE(l.find("42"), std::string::npos) << l;
  EXPECT_NE(l.find("noresume"), std::string::npos) << l;
}

} // namespace
} // namespace buscrypt
