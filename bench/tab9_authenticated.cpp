// tab9_authenticated — the cost of memory *authentication* on the keyslot
// engine, scheme x backend x workload.
//
// The survey's integrity discussion (and the follow-up literature it
// seeded: MAC-per-block, Elbaz's AREA, AEGIS-style hash trees) is about
// the price of detecting spoof/splice/replay on top of confidentiality.
// Sealer-style evaluation frames it as throughput against a near-zero-cost
// encryption baseline: this bench drives the batched transaction pipeline
// with auth_mode ∈ {none, mac, area, hash-tree} over the AES-CTR and
// AES-ECB keyslot engines and reports bytes/cycle, tag-cache hit rate and
// bus-traffic overhead (AREA's claim is exactly zero extra beats; the tag
// cache is what keeps mac's far below naive). A tamper section re-runs the
// attack trio against each scheme, so the bench gates detection, not just
// speed.
//
// Emits BENCH_authenticated.json and exits 1 if a detection, zero-traffic
// or zero-fault claim does not hold.

#include "attack/tamper.hpp"
#include "bench_util.hpp"
#include "edu/engine_edu.hpp"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace buscrypt;

constexpr unsigned kBanks = 8;
constexpr std::size_t kBatchTxns = 16;
constexpr addr_t kWindow = 256 * 1024; // authenticated range = workload range
constexpr addr_t kTagBase = 6u << 20;

constexpr engine::auth_mode kSchemes[] = {
    engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
    engine::auth_mode::hash_tree};
constexpr const char* kBackends[] = {"aes-ctr", "aes-ecb"};

// Base seed from --seed (bench::seed_arg); 0 reproduces the committed JSON.
u64 g_seed = 0;

sim::workload mixed_heavy() {
  sim::workload w = sim::make_jumpy_code(20'000, kWindow, 0.15, g_seed ^ 0x7AB9);
  sim::workload s = sim::make_streaming(6'000, kWindow, 4, g_seed ^ 0x7ABA);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  w.name = "mixed-heavy";
  return w;
}

sim::workload streaming_store() {
  sim::workload w = sim::make_streaming(12'000, kWindow, 3, g_seed ^ 0x7ABB);
  w.name = "streaming";
  return w;
}

struct run_result {
  std::string workload;
  double bytes_per_cycle = 0.0;
  u64 ops = 0;
  u64 bus_beats = 0;
  double tag_hit_rate = 0.0;
  u64 integrity_faults = 0;
  cycles auth_cycles = 0;
  std::size_t tag_memory_bytes = 0;
  std::size_t onchip_bytes = 0;
  double traffic_overhead = 0.0; ///< beats vs the same backend's none run
};

struct scheme_result {
  engine::auth_mode mode = engine::auth_mode::none;
  bool supported = true;
  std::vector<run_result> runs;
};

struct engine_result {
  std::string backend;
  std::string name;
  std::vector<scheme_result> schemes;
};

std::optional<run_result> run_one(const char* backend, engine::auth_mode mode,
                                  const sim::workload& w) {
  edu::soc_config cfg = bench::default_soc();
  cfg.mem_timing.banks = kBanks;
  cfg.keyslot_backend = backend;
  cfg.keyslot_auth = mode;
  cfg.keyslot_auth_limit = kWindow;
  cfg.keyslot_auth_tag_base = kTagBase;
  std::unique_ptr<edu::secure_soc> soc;
  try {
    soc = std::make_unique<edu::secure_soc>(edu::engine_kind::inline_keyslot, cfg);
  } catch (const std::invalid_argument&) {
    return std::nullopt; // AREA on a pad-precomputable backend
  }
  soc->load_image(0, bench::firmware_image(kWindow, g_seed ^ 0x5EED));

  const u64 beats_before = soc->external().beats();
  run_result r;
  r.workload = w.name;
  const auto st = soc->run_throughput(w, kBatchTxns);
  r.bytes_per_cycle = st.bytes_per_cycle();
  r.ops = st.ops;
  r.bus_beats = soc->external().beats() - beats_before;

  auto& adapter = static_cast<edu::engine_edu&>(soc->engine());
  r.integrity_faults = adapter.engine().stats().integrity_faults;
  if (const engine::memory_authenticator* auth = adapter.auth()) {
    const auto& as = auth->stats();
    const u64 probes = as.tag_hits + as.tag_misses;
    r.tag_hit_rate = probes == 0 ? 0.0
                                 : static_cast<double>(as.tag_hits) /
                                       static_cast<double>(probes);
    r.auth_cycles = as.auth_cycles;
    r.tag_memory_bytes = auth->tag_memory_bytes();
    r.onchip_bytes = auth->onchip_bytes();
  }
  return r;
}

struct tamper_row {
  std::string backend;
  engine::auth_mode mode = engine::auth_mode::none;
  attack::engine_tamper_report rep;
};

tamper_row tamper_one(const char* backend, engine::auth_mode mode) {
  tamper_row row;
  row.backend = backend;
  row.mode = mode;
  sim::dram chip(8u << 20);
  sim::external_memory ext(chip);
  rng r(g_seed ^ 0x7A5);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
  engine::bus_encryption_engine eng(ext, slots);
  const auto ctx = eng.create_context({backend, r.random_bytes(16), 32});
  eng.map_region(0, 1u << 20, ctx);
  if (mode != engine::auth_mode::none) {
    engine::auth_config acfg;
    acfg.mode = mode;
    acfg.key = r.random_bytes(16);
    acfg.base = 0;
    acfg.limit = 64 * 1024;
    acfg.tag_base = kTagBase;
    (void)eng.attach_auth(ctx, acfg);
  }
  row.rep = attack::run_engine_tamper_suite(eng, chip, 0x1000, 0x2000);
  return row;
}

} // namespace

int main(int argc, char** argv) {
  g_seed = bench::seed_arg(argc, argv);
  bench::banner("Tab. 9 — authenticated memory: mac / AREA / hash tree on the "
                "keyslot engine",
                "integrity discussion + MAC-per-block / AREA / AEGIS-tree "
                "follow-up work");

  const std::vector<sim::workload> workloads = {mixed_heavy(), streaming_store()};

  const bench::host_timer wall;
  std::vector<engine_result> results;
  for (const char* backend : kBackends) {
    engine_result er;
    er.backend = backend;
    er.name = std::string(edu::keyslot_name_prefix) + backend;
    for (const engine::auth_mode mode : kSchemes) {
      scheme_result sr;
      sr.mode = mode;
      for (const sim::workload& w : workloads) {
        auto r = run_one(backend, mode, w);
        if (!r) {
          sr.supported = false;
          break;
        }
        sr.runs.push_back(std::move(*r));
      }
      er.schemes.push_back(std::move(sr));
    }
    // Traffic overhead against the same backend's none baseline.
    const auto& base_runs = er.schemes.front().runs;
    for (scheme_result& sr : er.schemes)
      for (std::size_t i = 0; i < sr.runs.size(); ++i)
        sr.runs[i].traffic_overhead =
            static_cast<double>(sr.runs[i].bus_beats) /
                static_cast<double>(base_runs[i].bus_beats) -
            1.0;
    results.push_back(std::move(er));
  }

  table t({"engine", "scheme", "workload", "B/cyc", "tag hit%", "beats overhead",
           "faults"});
  for (const engine_result& er : results)
    for (const scheme_result& sr : er.schemes) {
      if (!sr.supported) {
        t.add_row({er.name, std::string(engine::auth_mode_name(sr.mode)),
                   "(unsupported: needs block diffusion)", "-", "-", "-", "-"});
        continue;
      }
      for (const run_result& r : sr.runs)
        t.add_row({er.name, std::string(engine::auth_mode_name(sr.mode)), r.workload,
                   table::num(r.bytes_per_cycle, 4), table::num(r.tag_hit_rate * 100, 1),
                   table::num(r.traffic_overhead * 100, 2) + "%",
                   table::num(static_cast<unsigned long long>(r.integrity_faults))});
    }
  std::printf("%s\n", t.str().c_str());
  std::printf("window %u KiB, %u banks, batches of %zu txns. AREA rides widened\n"
              "memory (0 extra beats); mac pays cached tag traffic; the hash\n"
              "tree pays a node walk per cold verify but keeps one root on-chip.\n\n",
              static_cast<unsigned>(kWindow / 1024), kBanks, kBatchTxns);

  // Detection matrix.
  std::vector<tamper_row> tampers;
  for (const char* backend : kBackends)
    for (const engine::auth_mode mode : kSchemes) {
      if (mode == engine::auth_mode::area && std::string(backend) != "aes-ecb")
        continue; // rejected by attach: nothing to measure
      tampers.push_back(tamper_one(backend, mode));
    }
  table dt({"engine", "scheme", "clean", "spoof", "splice", "replay"});
  for (const tamper_row& row : tampers) {
    auto cell = [](bool detected) { return detected ? "caught" : "LANDS"; };
    dt.add_row({std::string(edu::keyslot_name_prefix) + row.backend,
                std::string(engine::auth_mode_name(row.mode)),
                row.rep.clean_faulted ? "FALSE FAULT" : "ok", cell(row.rep.spoof_detected),
                cell(row.rep.splice_detected), cell(row.rep.replay_detected)});
  }
  std::printf("%s\n", dt.str().c_str());

  std::FILE* json = std::fopen("BENCH_authenticated.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_authenticated.json\n");
    return 1;
  }
  const double total_ms = wall.ms();
  unsigned long long total_ops = 0;
  for (const engine_result& er : results)
    for (const scheme_result& sr : er.schemes)
      for (const run_result& r : sr.runs) total_ops += r.ops;
  std::fprintf(json,
               "{\n  \"bench\": \"tab9_authenticated\",\n  \"window_bytes\": %llu,\n"
               "  \"banks\": %u,\n  \"batch_txns\": %zu,\n"
               "  \"host_ms\": %.1f,\n  \"host_ops_per_sec\": %.0f,\n"
               "  \"engines\": [\n",
               static_cast<unsigned long long>(kWindow), kBanks, kBatchTxns, total_ms,
               bench::host_ops_per_sec(total_ops, total_ms));
  for (std::size_t e = 0; e < results.size(); ++e) {
    const engine_result& er = results[e];
    std::fprintf(json,
                 "    {\"engine\": \"%s\", \"backend\": \"%s\", \"schemes\": [\n",
                 er.name.c_str(), er.backend.c_str());
    for (std::size_t s = 0; s < er.schemes.size(); ++s) {
      const scheme_result& sr = er.schemes[s];
      std::fprintf(json, "      {\"scheme\": \"%s\", \"supported\": %s",
                   std::string(engine::auth_mode_name(sr.mode)).c_str(),
                   sr.supported ? "true" : "false");
      if (sr.supported) {
        std::fprintf(json, ", \"workloads\": [\n");
        for (std::size_t i = 0; i < sr.runs.size(); ++i) {
          const run_result& r = sr.runs[i];
          std::fprintf(
              json,
              "        {\"workload\": \"%s\", \"bytes_per_cycle\": %.6f, "
              "\"bus_beats\": %llu, \"traffic_overhead\": %.6f, "
              "\"tag_hit_rate\": %.4f, \"integrity_faults\": %llu, "
              "\"auth_cycles\": %llu, \"tag_memory_bytes\": %zu, "
              "\"onchip_bytes\": %zu}%s\n",
              r.workload.c_str(), r.bytes_per_cycle,
              static_cast<unsigned long long>(r.bus_beats), r.traffic_overhead,
              r.tag_hit_rate, static_cast<unsigned long long>(r.integrity_faults),
              static_cast<unsigned long long>(r.auth_cycles), r.tag_memory_bytes,
              r.onchip_bytes, i + 1 == sr.runs.size() ? "" : ",");
        }
        std::fprintf(json, "      ]}");
      } else {
        std::fprintf(json, "}");
      }
      std::fprintf(json, "%s\n", s + 1 == er.schemes.size() ? "" : ",");
    }
    std::fprintf(json, "    ]}%s\n", e + 1 == results.size() ? "" : ",");
  }
  std::fprintf(json, "  ],\n  \"tamper\": [\n");
  for (std::size_t i = 0; i < tampers.size(); ++i) {
    const tamper_row& row = tampers[i];
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"scheme\": \"%s\", \"clean\": %s, "
                 "\"spoof\": %s, \"splice\": %s, \"replay\": %s}%s\n",
                 row.backend.c_str(),
                 std::string(engine::auth_mode_name(row.mode)).c_str(),
                 row.rep.clean_faulted ? "false" : "true",
                 row.rep.spoof_detected ? "true" : "false",
                 row.rep.splice_detected ? "true" : "false",
                 row.rep.replay_detected ? "true" : "false",
                 i + 1 == tampers.size() ? "" : ",");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_authenticated.json\n");

  bench::claims claims;
  // Detection: mac, the hash tree and AREA catch the whole trio without
  // faulting a clean run; the unauthenticated control lets all of it land.
  for (const tamper_row& row : tampers) {
    const attack::engine_tamper_report& rep = row.rep;
    const std::string cell =
        std::string(engine::auth_mode_name(row.mode)) + "/" + row.backend;
    const bool any = rep.spoof_detected || rep.splice_detected || rep.replay_detected;
    const bool all = rep.spoof_detected && rep.splice_detected && rep.replay_detected;
    if (row.mode == engine::auth_mode::none)
      claims.check(!any, cell + " (the control) detects no tampering");
    else
      claims.check(all && !rep.clean_faulted,
                   cell + " detects spoof, splice and replay, and no clean fault");
  }
  // AREA refuses pad-precomputable backends and adds zero bus beats; no
  // clean sweep faults; the tag cache holds streaming locality.
  for (const engine_result& er : results)
    for (const scheme_result& sr : er.schemes) {
      const std::string cell =
          std::string(engine::auth_mode_name(sr.mode)) + "/" + er.backend;
      if (sr.mode == engine::auth_mode::area)
        claims.check(sr.supported == (er.backend == "aes-ecb"),
                     cell + ": AREA runs on aes-ecb and rejects aes-ctr");
      for (const run_result& r : sr.runs) {
        if (sr.mode == engine::auth_mode::area)
          claims.check(r.traffic_overhead == 0.0,
                       cell + "/" + r.workload + " adds no bus traffic");
        claims.check(r.integrity_faults == 0,
                     cell + "/" + r.workload + " takes no integrity fault");
        if (sr.mode == engine::auth_mode::mac && er.backend == "aes-ctr" &&
            r.workload == "streaming")
          claims.check(r.tag_hit_rate > 0.9, cell + "/streaming tag hit rate > 0.9");
      }
    }
  return claims.status();
}
