// tab8_multimaster — the shared bus under contention: aggregate throughput
// and per-master latency vs. master count and arbitration policy.
//
// The survey's SoCs are multi-master systems: the CPU, VLSI Technology's
// secure DMA engine (Fig. 4) and peripherals all initiate transfers on the
// one external bus the EDU protects. This bench generalises tab7's
// single-stream throughput view: N masters (CPU compute, DMA bulk copies,
// peripheral polling — the shared cast in multimaster_cast.hpp) are
// time-multiplexed onto every engine over a flat bus (a one-cluster
// sim::topology driven by secure_soc::run_topology) under round-robin and
// fixed-priority (with aging) policies. Aggregate bytes/cycle shows how far each engine's
// crypto datapath scales as bandwidth-bound masters join; per-master
// average latency and starvation streaks show what each policy costs the
// others. On the keyslot engine the DMA masters run inside private
// per-master protection domains (own keys) sharing the one slot pool.
//
// Emits BENCH_multimaster.json next to the console tables and exits 1 if
// the pad engines stop scaling with bandwidth-bound masters or fixed
// priority stops shielding the peripheral.

#include "multimaster_cast.hpp"

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

struct run_result {
  std::size_t masters = 0;
  buscrypt::sim::arbiter_stats stats;
};

struct policy_result {
  buscrypt::sim::arb_policy policy{};
  std::vector<run_result> runs; ///< one per master count 1..4
};

struct engine_result {
  std::string name;
  std::vector<policy_result> policies;
};

const std::vector<run_result>& runs_of(const engine_result& er,
                                       buscrypt::sim::arb_policy policy) {
  for (const policy_result& pr : er.policies)
    if (pr.policy == policy) return pr.runs;
  throw std::logic_error("tab8: policy not swept");
}

double periph_latency(const run_result& run) {
  for (const buscrypt::sim::master_stats& ms : run.stats.masters)
    if (ms.name == "periph") return ms.avg_txn_latency();
  return 0.0;
}

} // namespace

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 seed = bench::seed_arg(argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--seed N]\n", argv[0]);
    return 2;
  }
  bench::banner("Tab. 8 — multi-master bus: aggregate throughput and per-master latency",
                "Fig. 4 secure DMA as a first-class master; arbitration policies");

  const bytes image = bench::firmware_image(64 * 1024, seed ^ 0x5EED);

  const bench::host_timer wall;
  unsigned long long total_txns = 0;
  std::vector<engine_result> results;
  for (edu::engine_kind kind : edu::all_engines()) {
    engine_result er;
    er.name = std::string(edu::engine_name(kind));
    const auto cast =
        bench::multimaster_cast(kind == edu::engine_kind::inline_keyslot);
    for (const sim::arb_policy policy : sim::all_arb_policies) {
      policy_result pr;
      pr.policy = policy;
      for (std::size_t n = 1; n <= cast.size(); ++n) {
        edu::secure_soc soc(kind, bench::multimaster_soc());
        soc.load_image(0, image);
        const u64 limit = policy == sim::arb_policy::fixed_priority
                              ? bench::kMmStarvationLimit
                              : 0;
        const std::vector<edu::master_desc> subset(cast.begin(), cast.begin() + n);
        const sim::topology flat(
            sim::arbiter_config{policy, bench::kMmWindowTxns, limit});
        pr.runs.push_back({n, soc.run_topology(subset, flat).noc.bus});
        total_txns += pr.runs.back().stats.txns;
      }
      er.policies.push_back(std::move(pr));
    }
    results.push_back(std::move(er));
  }

  // Aggregate throughput vs master count, per policy.
  for (std::size_t p = 0; p < std::size(sim::all_arb_policies); ++p) {
    table t({"engine", "B/cyc x1", "B/cyc x2", "B/cyc x3", "B/cyc x4",
             "periph lat x4", "cpu max-wait x4"});
    for (const engine_result& er : results) {
      const policy_result& pr = er.policies[p];
      const sim::arbiter_stats& four = pr.runs[3].stats;
      t.add_row({er.name, table::num(pr.runs[0].stats.bytes_per_cycle(), 4),
                 table::num(pr.runs[1].stats.bytes_per_cycle(), 4),
                 table::num(pr.runs[2].stats.bytes_per_cycle(), 4),
                 table::num(pr.runs[3].stats.bytes_per_cycle(), 4),
                 table::num(four.masters[3].avg_txn_latency(), 0),
                 table::num(static_cast<unsigned long long>(four.masters[0].max_wait_streak))});
    }
    std::printf("policy: %s\n%s\n",
                std::string(sim::arb_policy_name(sim::all_arb_policies[p])).c_str(),
                t.str().c_str());
  }
  std::printf("masters join in order cpu, dma0, dma1, periph; %u banks, windows\n"
              "of %zu txns, fixed-priority ages at %llu rounds. Keyslot DMA\n"
              "masters run in private per-master protection domains.\n",
              bench::kMmBanks, bench::kMmWindowTxns,
              static_cast<unsigned long long>(bench::kMmStarvationLimit));

  std::FILE* json = std::fopen("BENCH_multimaster.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_multimaster.json\n");
    return 1;
  }
  const double total_ms = wall.ms();
  std::fprintf(json,
               "{\n  \"bench\": \"tab8_multimaster\",\n  \"banks\": %u,\n"
               "  \"window_txns\": %zu,\n  \"starvation_limit\": %llu,\n"
               "  \"host_ms\": %.1f,\n  \"host_ops_per_sec\": %.0f,\n"
               "  \"engines\": [\n",
               bench::kMmBanks, bench::kMmWindowTxns,
               static_cast<unsigned long long>(bench::kMmStarvationLimit),
               total_ms, bench::host_ops_per_sec(total_txns, total_ms));
  for (std::size_t e = 0; e < results.size(); ++e) {
    const engine_result& er = results[e];
    std::fprintf(json, "    {\"engine\": \"%s\", \"policies\": [\n", er.name.c_str());
    for (std::size_t p = 0; p < er.policies.size(); ++p) {
      const policy_result& pr = er.policies[p];
      std::fprintf(json, "      {\"policy\": \"%s\", \"runs\": [\n",
                   std::string(sim::arb_policy_name(pr.policy)).c_str());
      for (std::size_t r = 0; r < pr.runs.size(); ++r) {
        const run_result& run = pr.runs[r];
        std::fprintf(json,
                     "        {\"masters\": %zu, \"bytes_per_cycle\": %.6f, "
                     "\"total_cycles\": %llu, \"per_master\": [",
                     run.masters, run.stats.bytes_per_cycle(),
                     static_cast<unsigned long long>(run.stats.total_cycles));
        for (std::size_t m = 0; m < run.stats.masters.size(); ++m) {
          const sim::master_stats& ms = run.stats.masters[m];
          std::fprintf(json,
                       "%s{\"name\": \"%s\", \"bytes\": %llu, "
                       "\"avg_latency\": %.1f, \"max_wait_streak\": %llu}",
                       m == 0 ? "" : ", ", ms.name.c_str(),
                       static_cast<unsigned long long>(ms.bytes),
                       ms.avg_txn_latency(),
                       static_cast<unsigned long long>(ms.max_wait_streak));
        }
        std::fprintf(json, "]}%s\n", r + 1 == pr.runs.size() ? "" : ",");
      }
      std::fprintf(json, "      ]}%s\n", p + 1 == er.policies.size() ? "" : ",");
    }
    std::fprintf(json, "    ]}%s\n", e + 1 == results.size() ? "" : ",");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_multimaster.json\n");

  // Aggregate B/cyc rises as the bandwidth-bound masters join (x1 -> x2 ->
  // x3; the x4 step adds the latency-bound peripheral and may dip), and
  // fixed priority gives the peripheral a lower average latency than
  // round-robin at four masters.
  bench::claims claims;
  for (const engine_result& er : results) {
    if (er.name != "Stream-OTP" && er.name != "Keyslot-aes-ctr") continue;
    const auto& rr = runs_of(er, sim::arb_policy::round_robin);
    const auto& fp = runs_of(er, sim::arb_policy::fixed_priority);
    const auto bpc = [&](std::size_t i) { return rr[i].stats.bytes_per_cycle(); };
    claims.check(bpc(1) > bpc(0) && bpc(2) > bpc(1),
                 er.name + " round-robin B/cyc scales x1 -> x2 -> x3");
    claims.check(periph_latency(fp[3]) < periph_latency(rr[3]),
                 er.name + " fixed priority lowers the peripheral's latency at x4");
  }
  return claims.status();
}
