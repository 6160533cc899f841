// Keyslot churn at scale: the Zipf context-storm generator (seeded
// determinism, rank-frequency slope, skew monotonicity), the churn fleet
// (thread-count/shuffle invariance, draw identity across policies), and
// the cross-policy equivalence sweeps — every engine x policy produces
// bit-identical DRAM, including under the tab8 multi-master domain
// workload. Policies may move telemetry and cycles, never bytes.

#include "edu/engine_edu.hpp"
#include "edu/soc.hpp"
#include "engine/churn.hpp"
#include "fleet/fleet.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace buscrypt {
namespace {

using engine::all_slot_policies;
using engine::churn_config;
using engine::churn_result;
using engine::slot_policy;
using engine::slot_policy_name;
using engine::zipf_sampler;

// --- the Zipf generator -----------------------------------------------------

TEST(ZipfGenerator, SeededDrawsAreDeterministic) {
  zipf_sampler a(10'000, 1.1, 0x5EEDULL);
  zipf_sampler b(10'000, 1.1, 0x5EEDULL);
  zipf_sampler c(10'000, 1.1, 0x5EEEULL);
  bool any_differ = false;
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t da = a.next();
    EXPECT_EQ(da, b.next());
    if (da != c.next()) any_differ = true;
  }
  EXPECT_TRUE(any_differ) << "different seeds must give different storms";
}

TEST(ZipfGenerator, RejectsDegenerateParameters) {
  EXPECT_THROW(zipf_sampler(0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(zipf_sampler(10, -0.5, 1), std::invalid_argument);
}

/// Empirical skew estimate from rank-frequency pairs: for P(r) ~
/// (r+1)^-s, ln(f(a)/f(b)) = s * ln((b+1)/(a+1)). Averaged over a few
/// well-populated rank pairs.
double estimated_skew(double s, u64 seed) {
  constexpr std::size_t kRanks = 4096;
  constexpr std::size_t kDraws = 300'000;
  zipf_sampler z(kRanks, s, seed);
  std::vector<u64> count(kRanks, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++count[z.next()];

  const std::size_t pairs[3][2] = {{0, 15}, {1, 31}, {3, 63}};
  double acc = 0.0;
  for (const auto& p : pairs) {
    EXPECT_GT(count[p[0]], 0u);
    EXPECT_GT(count[p[1]], 0u);
    acc += std::log(static_cast<double>(count[p[0]]) /
                    static_cast<double>(count[p[1]])) /
           std::log(static_cast<double>(p[1] + 1) / static_cast<double>(p[0] + 1));
  }
  return acc / 3.0;
}

TEST(ZipfGenerator, RankFrequencySlopeTracksRequestedSkew) {
  EXPECT_NEAR(estimated_skew(0.8, 0xAB5EEDULL), 0.8, 0.15);
  EXPECT_NEAR(estimated_skew(1.2, 0xAB5EEDULL), 1.2, 0.15);
}

TEST(ZipfGenerator, HeadMassGrowsWithSkew) {
  double prev_mass = -1.0;
  for (const double s : {0.5, 1.0, 1.5}) {
    zipf_sampler z(2048, s, 0xFEEDULL);
    u64 head = 0;
    constexpr std::size_t kDraws = 100'000;
    for (std::size_t i = 0; i < kDraws; ++i)
      if (z.next() < 8) ++head;
    const double mass = static_cast<double>(head) / kDraws;
    EXPECT_GT(mass, prev_mass) << "top-8 mass must grow with s";
    prev_mass = mass;
  }
}

// --- churn cells and the fleet ----------------------------------------------

void expect_churn_consistent(const churn_result& r) {
  const engine::keyslot_stats& s = r.slots;
  EXPECT_EQ(s.programs, s.cold_programs + s.reprograms + s.prefetch_programs);
  EXPECT_EQ(s.acquires, s.hits + s.cold_programs + s.reprograms + s.denials);
  EXPECT_EQ(r.ops, s.acquires);
  EXPECT_EQ(r.fallbacks, s.denials);
  EXPECT_GE(r.warm_hit_rate(), 0.0);
  EXPECT_LE(r.warm_hit_rate(), 1.0);
  EXPECT_EQ(r.stall_cycles,
            (s.cold_programs + s.reprograms) * 40); // default program cost
}

std::vector<churn_config> policy_grid() {
  std::vector<churn_config> cells;
  for (const slot_policy p : all_slot_policies) {
    churn_config c;
    c.contexts = 3000;
    c.ops = 6000;
    c.zipf_s = 1.1;
    c.slots = 8;
    c.in_flight = 4;
    c.policy = p;
    c.seed = 0xC0117EULL;
    cells.push_back(c);
  }
  return cells;
}

TEST(ChurnFleet, ThreadCountAndShuffleNeverChangeResults) {
  fleet::churn_fleet_config serial;
  serial.cells = policy_grid();
  serial.threads = 1;

  fleet::churn_fleet_config pooled = serial;
  pooled.threads = 4;
  pooled.shuffle = true;
  pooled.shuffle_seed = 0xD15C0ULL;

  const fleet::churn_fleet_result a = fleet::run_churn_fleet(serial);
  const fleet::churn_fleet_result b = fleet::run_churn_fleet(pooled);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE(a.cells[i].label);
    EXPECT_TRUE(a.cells[i].sim_equal(b.cells[i]))
        << "churn cell diverged across thread counts";
    EXPECT_EQ(a.cells[i].draw_fnv, b.cells[i].draw_fnv)
        << "draw sequence must be identical on any worker count";
    expect_churn_consistent(a.cells[i]);
  }
}

TEST(ChurnFleet, PoliciesShareDrawsAndDifferOnlyInTelemetry) {
  const fleet::churn_fleet_result r =
      fleet::run_churn_fleet({policy_grid(), 1, false, 0});
  ASSERT_EQ(r.cells.size(), all_slot_policies.size());
  for (std::size_t i = 1; i < r.cells.size(); ++i) {
    EXPECT_EQ(r.cells[i].draw_fnv, r.cells[0].draw_fnv)
        << "same seed, same storm, whatever the policy";
    EXPECT_EQ(r.cells[i].ops, r.cells[0].ops);
    EXPECT_EQ(r.cells[i].bytes, r.cells[0].bytes);
  }
  // The prefetch cell actually prefetched under a skewed storm.
  EXPECT_GT(r.cells[3].slots.prefetch_programs, 0u);
}

TEST(ChurnFleet, SaturatedPoolFallsBackAndRoomyPoolDoesNot) {
  churn_config tight;
  tight.contexts = 2000;
  tight.ops = 4000;
  tight.zipf_s = 0.9;
  tight.slots = 4;
  tight.in_flight = 4; // misses find every slot pinned
  churn_config roomy = tight;
  roomy.slots = 16; // in_flight 4 can never pin 16 slots

  const churn_result a = engine::run_churn(tight);
  const churn_result b = engine::run_churn(roomy);
  EXPECT_GT(a.fallbacks, 0u);
  EXPECT_EQ(b.fallbacks, 0u);
  expect_churn_consistent(a);
  expect_churn_consistent(b);
  EXPECT_GT(b.warm_hit_rate(), a.warm_hit_rate() - 1e-12)
      << "a larger pool never hits less on the same storm";
}

// --- cross-policy equivalence sweeps (bit-identical DRAM) -------------------

TEST(KeyslotPolicySweep, EveryEngineEveryPolicyDramBitIdentical) {
  for (const edu::engine_kind kind : edu::all_engines()) {
    fleet::fleet_cell proto;
    proto.kind = kind;
    proto.accesses = 1500;
    proto.footprint = 96 * 1024;
    proto.seed = 0x5EC5EEDULL;
    if (kind == edu::engine_kind::inline_keyslot)
      proto.keyslot_slots = 2; // small pool: evictions actually happen

    const fleet::cell_result ref = fleet::run_cell(proto);
    for (const slot_policy p : all_slot_policies) {
      if (p == slot_policy::lru) continue;
      fleet::fleet_cell cell = proto;
      cell.policy = p;
      const fleet::cell_result got = fleet::run_cell(cell);
      SCOPED_TRACE(got.label);
      EXPECT_EQ(got.dram_fnv, ref.dram_fnv)
          << "policy changed ciphertext for " << edu::engine_name(kind);
      EXPECT_EQ(got.bytes, ref.bytes);
      EXPECT_EQ(got.edu.reads, ref.edu.reads);
      EXPECT_EQ(got.edu.writes, ref.edu.writes);
      EXPECT_EQ(got.integrity_faults, 0u);
      EXPECT_EQ(got.domain_faults, 0u);
    }
  }
}

// The tab8 multi-master mix with keyslot domains: CPU compute, DMA bulk
// copy in its own domain, peripheral polling — against a deliberately
// tiny pool so domain contexts churn through it. Every policy must leave
// the exact same DRAM image and fault nobody.
TEST(KeyslotPolicySweep, MultiMasterDomainStormIsPolicyInvariant) {
  constexpr addr_t kDmaSrc = 2u << 20;
  constexpr addr_t kDmaDst = (2u << 20) + (1u << 19);
  constexpr addr_t kPeriphRegs = 3u << 20;

  const auto scenario = [] {
    std::vector<edu::master_desc> m(3);
    m[0].role = edu::master_kind::cpu;
    m[0].work = sim::make_data_rw(3000, 64 * 1024, 0.5, 0.4, 8, 0xC0FFEE);
    m[1].role = edu::master_kind::dma;
    m[1].work = sim::make_dma_copy(32 * 1024, kDmaSrc, kDmaDst, 128, 0xD0);
    m[1].priority = 1;
    m[1].domain_base = kDmaSrc;
    m[1].domain_len = 1u << 20;
    m[2].role = edu::master_kind::peripheral;
    m[2].work = sim::make_peripheral_poll(1500, kPeriphRegs, 8, 64, 16, 0x9E);
    m[2].priority = 9;
    return m;
  }();

  bytes image(64 * 1024);
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = static_cast<u8>(i * 13 + 5);

  bytes ref_dram;
  for (const slot_policy p : all_slot_policies) {
    edu::soc_config cfg;
    cfg.l1.size = 4 * 1024;
    cfg.l1.line_size = 32;
    cfg.l1.ways = 2;
    cfg.mem_size = 4u << 20;
    cfg.mem_timing.banks = 4;
    cfg.keyslot_policy = p;
    cfg.keyslot_slots = 2; // default ctx + DMA domain ctx contend hard

    edu::secure_soc soc(edu::engine_kind::inline_keyslot, cfg);
    soc.load_image(0, image);
    (void)soc.run_topology(scenario, sim::topology{});
    soc.flush();

    const engine::engine_stats& es =
        static_cast<edu::engine_edu&>(soc.engine()).engine().stats();
    EXPECT_EQ(es.integrity_faults, 0u) << slot_policy_name(p);
    EXPECT_EQ(es.domain_faults, 0u) << slot_policy_name(p);

    const std::span<const u8> raw = soc.memory().raw();
    if (ref_dram.empty()) {
      ref_dram.assign(raw.begin(), raw.end());
    } else {
      EXPECT_TRUE(std::equal(raw.begin(), raw.end(), ref_dram.begin()))
          << "multi-master DRAM diverged under policy " << slot_policy_name(p);
    }
  }
}

} // namespace
} // namespace buscrypt
