// tab12_interconnect — the topology-first interconnect at scale:
// hierarchical arbitration, QoS classes and programmable bus firewalls.
//
// Three sections; containment and reconfig are claims the exit code
// enforces:
//
//  1. scaling — the fleet noc cells: {4..64} masters x {flat, 4-cluster}
//     x {QoS off, on} on Stream-OTP and the keyslot engine (the keyslot
//     cells carry per-master firewall whitelists; in-slice traffic takes
//     zero denials, so the tables are free).
//
//  2. containment — the untrusted-accelerator scenario: a master whose
//     workload strays outside its whitelist on a heterogeneous SoC (CPU
//     cluster + DMA + peripheral poller + accelerator). Every stray
//     access must be an *accounted* denial — 0xFF bus-error fill on
//     reads, dropped writes, per-rule/per-master attribution — and never
//     a plaintext leak. A bare-engine byte proof checks the fill pattern
//     and the any_master sentinel, and attack::run_engine_tamper_suite
//     runs with the firewall attached to show the attack surface is
//     unchanged.
//
//  3. reconfig — rule tables reprogrammed under live traffic: staged by
//     a grant observer, committed at window boundaries, stage-to-commit
//     latency measured in simulated cycles.
//
// Usage: tab12_interconnect [--threads N] [--json FILE]
// Emits BENCH_interconnect.json (machine-readable, consumed by CI).

#include "multimaster_cast.hpp"

#include "attack/tamper.hpp"
#include "edu/engine_edu.hpp"
#include "fleet/fleet.hpp"
#include "sim/interconnect.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

// Base seed from --seed (bench::seed_arg); 0 reproduces the committed JSON.
buscrypt::u64 g_seed = 0;

using namespace buscrypt;

struct cli {
  unsigned threads = 0; ///< scaling-fleet pool; 0 = hardware_concurrency
  const char* json_path = "BENCH_interconnect.json";
};

cli parse(int argc, char** argv) {
  cli c;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      c.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      c.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: tab12_interconnect [--seed N] [--threads N] [--json FILE]\n");
      std::exit(2);
    }
  }
  return c;
}

struct containment_result {
  bool ok = true;
  u64 accel_checks = 0;
  u64 accel_denials = 0;
  u64 rule_hits = 0;
  u64 rule_denies = 0;
  u64 engine_denials = 0;
  u64 sentinel_denials = 0;
  u64 reprograms = 0;
  double reconfig_latency_avg = 0.0;
  u64 reconfig_latency_max = 0;
  double bytes_per_cycle = 0.0;
  bool secret_intact = false;
  bool fill_ok = false;
  bool tamper_clean = false;

  void fail(const char* what) {
    ok = false;
    std::fprintf(stderr, "CONTAINMENT FAILURE: %s\n", what);
  }
};

// The heterogeneous containment SoC: keyslot engine, two clusters (cpu
// compute + trusted DMA; peripheral poller + untrusted accelerator). The
// accelerator's whitelist covers only the upper half of its 128 KiB
// region; a 4 KiB secret sits in the forbidden lower half.
constexpr addr_t kAccelBase = 5u << 20;
constexpr std::size_t kAccelHalf = 64 * 1024;
constexpr addr_t kSecretBase = kAccelBase + 4096;
constexpr std::size_t kSecretLen = 4096;
constexpr sim::master_id kAccelId = 3;

std::vector<sim::firewall_rule> accel_rules(bool split) {
  // Rule 0 pins the forbidden half to an explicit deny (per-rule
  // attribution); the rest whitelists the upper half. The split variant
  // is decision-identical — it exists so live reprogramming can be
  // exercised without changing any outcome.
  std::vector<sim::firewall_rule> t;
  t.push_back({kAccelBase, kAccelHalf, sim::fw_perm::none, 0});
  if (split) {
    t.push_back({kAccelBase + kAccelHalf, kAccelHalf / 2, sim::fw_perm::rw, 1});
    t.push_back({kAccelBase + kAccelHalf + kAccelHalf / 2, kAccelHalf / 2,
                 sim::fw_perm::rw, 1});
  } else {
    t.push_back({kAccelBase + kAccelHalf, kAccelHalf, sim::fw_perm::rw, 1});
  }
  return t;
}

containment_result run_containment() {
  containment_result r;

  edu::soc_config cfg = bench::multimaster_soc();
  edu::secure_soc soc(edu::engine_kind::inline_keyslot, cfg);
  soc.load_image(0, bench::firmware_image(64 * 1024, g_seed ^ 0x5EED));
  bytes secret(kSecretLen);
  for (std::size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<u8>(0xA5 ^ i);
  soc.load_image(kSecretBase, secret);

  sim::topology topo(sim::arbiter_config{sim::arb_policy::round_robin,
                                         bench::kMmWindowTxns, 0});
  const sim::cluster_id compute = topo.add_cluster(
      {"compute", {sim::arb_policy::round_robin, bench::kMmWindowTxns, 0}, 0,
       sim::qos_class::none});
  const sim::cluster_id io = topo.add_cluster(
      {"io", {sim::arb_policy::round_robin, bench::kMmWindowTxns, 0}, 0,
       sim::qos_class::none});
  topo.add_master(compute, 0);
  topo.add_master(compute, 1, sim::qos_class::bulk);
  topo.add_master(io, 2, sim::qos_class::latency);
  topo.add_master(io, kAccelId, sim::qos_class::bulk);
  for (const sim::firewall_rule& rule : accel_rules(false))
    topo.add_firewall_rule(kAccelId, rule);

  std::vector<edu::master_desc> m(4);
  m[0].role = edu::master_kind::cpu;
  m[0].name = "cpu";
  m[0].work = sim::make_data_rw(3000, 64 * 1024, 0.5, 0.4, 8, 0x7AC0);
  m[1].role = edu::master_kind::dma;
  m[1].name = "dma";
  m[1].work = sim::make_dma_copy(32 * 1024, bench::kMmDma1Src, bench::kMmDma1Dst,
                                 128, 0x7AC1);
  m[1].domain_base = bench::kMmDma1Src;
  m[1].domain_len = 1u << 20;
  m[2].role = edu::master_kind::peripheral;
  m[2].name = "periph";
  m[2].work = sim::make_peripheral_poll(1500, bench::kMmPeriphRegs, 8, 64, 16, 0x7AC2);
  m[3].role = edu::master_kind::dma;
  m[3].name = "accel";
  // The stray workload: loads and stores folded over the whole 128 KiB
  // region, half of which (including the secret) is outside the whitelist.
  m[3].work = sim::confine_workload(
      sim::make_data_rw(1500, 2 * kAccelHalf, 0.9, 0.4, 8, 0x7AC3), kAccelBase,
      2 * kAccelHalf);

  // Live reprogramming: every 24th grant, stage the alternate (but
  // decision-identical) table; the in-flight window finishes under the
  // old rules and the commit is timed at the next window boundary.
  u64 grants = 0;
  u64 staged = 0;
  const auto observe = [&](sim::interconnect& ic, sim::master_id) {
    if (++grants % 24 == 0 && staged < 6)
      ic.reprogram_firewall(kAccelId, accel_rules(++staged % 2 == 1));
  };
  const edu::topology_run_stats ts = soc.run_topology(m, topo, observe);
  r.bytes_per_cycle = ts.bytes_per_cycle();

  // Accounted denial: the accelerator took denials, nobody else did, and
  // the engine's fault-path counters agree with the firewall's.
  r.accel_checks = ts.firewall[kAccelId].checks;
  r.accel_denials = ts.firewall[kAccelId].denies;
  for (const sim::fw_rule_stats& rs : ts.firewall[kAccelId].rules) {
    r.rule_hits += rs.hits;
    r.rule_denies += rs.denies;
  }
  r.engine_denials = ts.domains.empty() ? 0 : ts.domains[kAccelId].firewall_denials;
  r.sentinel_denials = ts.sentinel_denials;
  if (r.accel_denials == 0) r.fail("accelerator took no denials");
  if (r.accel_checks <= r.accel_denials) r.fail("accelerator had no allowed traffic");
  if (r.rule_denies == 0) r.fail("deny rule attributed no refusals");
  if (r.engine_denials != r.accel_denials)
    r.fail("engine fault-path count diverges from firewall count");
  for (std::size_t i = 0; i < ts.firewall.size(); ++i)
    if (i != kAccelId && ts.firewall[i].denies != 0)
      r.fail("a trusted master was denied");

  // Reconfiguration under traffic, timed.
  r.reprograms = ts.noc.firewall_reprograms;
  r.reconfig_latency_max = ts.noc.reconfig_latency_max;
  r.reconfig_latency_avg =
      r.reprograms == 0 ? 0.0
                        : static_cast<double>(ts.noc.reconfig_latency_sum) /
                              static_cast<double>(r.reprograms);
  if (r.reprograms != staged) r.fail("staged reprograms did not all commit");
  if (r.reprograms > 0 && r.reconfig_latency_max == 0)
    r.fail("reconfig latency not measured");

  // Zero leaks, write side: the accelerator stored into the forbidden
  // half throughout the run; every one of those writes must have been
  // dropped, so the secret reads back untouched.
  r.secret_intact = soc.read_back(kSecretBase, kSecretLen) == secret;
  if (!r.secret_intact) r.fail("secret region was modified through a denied write");

  // Zero leaks, read side — byte-level proof on a bare engine: a denied
  // read returns the 0xFF bus-error fill and nothing of the plaintext; a
  // forged any_master transaction is refused whole; the tamper suite
  // runs clean with the firewall attached.
  {
    sim::dram chip(8u << 20);
    sim::external_memory ext(chip);
    rng rand(0x7AC7);
    engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
    engine::bus_encryption_engine eng(ext, slots);
    const auto ctx = eng.create_context(
        {std::string(edu::keyslot_default_backend), rand.random_bytes(16), 32});
    eng.map_region(0, 1u << 20, ctx);
    bytes plain(256);
    for (std::size_t i = 0; i < plain.size(); ++i)
      plain[i] = static_cast<u8>(0x5A ^ i);
    eng.install(0x40000, plain);

    sim::bus_firewall fw;
    fw.program(2, {{0x10000, 0x10000, sim::fw_perm::rw, 0}});
    eng.set_firewall(&fw);

    const auto read_as = [&](sim::master_id who, addr_t addr, std::span<u8> out) {
      sim::mem_txn t = sim::mem_txn::read_of(1, addr, out);
      t.master = who;
      eng.submit({&t, 1});
      (void)eng.drain();
    };
    bytes buf(256, 0);
    read_as(2, 0x40000, buf); // outside the whitelist: bus-error fill
    r.fill_ok = true;
    for (const u8 b : buf)
      if (b != 0xFF) r.fill_ok = false;
    if (!r.fill_ok) r.fail("denied read leaked bytes past the 0xFF fill");

    bytes junk(256, 0x77);
    sim::mem_txn w = sim::mem_txn::write_of(2, 0x40000, junk);
    w.master = 2;
    eng.submit({&w, 1});
    (void)eng.drain();
    bytes check(256);
    eng.read_plain(0x40000, check);
    if (check != plain) r.fail("denied write reached memory");

    bytes open(256, 0);
    read_as(sim::cpu_master, 0x40000, open); // no table: port is open
    if (open != plain) r.fail("open master could not read");
    if (eng.stats().firewall_denials == 0) r.fail("bare engine counted no denials");

    bytes forged(64, 0);
    read_as(sim::any_master, 0x40000, forged);
    bool forged_filled = true;
    for (const u8 b : forged)
      if (b != 0xFF) forged_filled = false;
    if (!forged_filled || fw.sentinel_denials() == 0)
      r.fail("forged any_master transaction was not refused whole");

    const attack::engine_tamper_report rep =
        attack::run_engine_tamper_suite(eng, chip, 0x1000, 0x2000);
    r.tamper_clean = !rep.clean_faulted;
    if (!r.tamper_clean) r.fail("tamper suite false-faulted with firewall attached");
  }
  return r;
}

} // namespace

int main(int argc, char** argv) {
  g_seed = bench::seed_arg(argc, argv);
  const cli opt = parse(argc, argv);
  bench::banner("Tab. 12 — topology-first interconnect: hierarchy, QoS, firewalls",
                "clustered arbitration at scale; Cotret-style rule tables on the bus");

  const bench::host_timer wall;
  unsigned long long total_txns = 0;

  // --- 1. scaling: masters x shape x QoS on the fleet noc cells -------------
  fleet::fleet_config scfg;
  for (const edu::engine_kind kind :
       {edu::engine_kind::stream_otp, edu::engine_kind::inline_keyslot})
    for (const std::size_t masters : {4u, 8u, 16u, 32u, 64u})
      for (const std::size_t clusters : {0u, 4u})
        for (const bool qos : {false, true}) {
          fleet::fleet_cell cell;
          cell.kind = kind;
          cell.drive = fleet::drive_mode::noc;
          cell.accesses = 4000;
          cell.noc_masters = masters;
          cell.noc_clusters = clusters;
          cell.noc_qos = qos;
          cell.noc_firewall = kind == edu::engine_kind::inline_keyslot;
          scfg.cells.push_back(std::move(cell));
        }
  scfg.threads = opt.threads;
  const fleet::fleet_result scaling = fleet::run_fleet(scfg);
  for (const fleet::cell_result& c : scaling.cells) total_txns += c.ops;
  {
    table t({"cell", "B/cyc", "cycles", "fw denials"});
    for (const fleet::cell_result& c : scaling.cells)
      t.add_row({c.label, table::num(c.bytes_per_cycle(), 4),
                 table::num(static_cast<unsigned long long>(c.total_cycles)),
                 table::num(static_cast<unsigned long long>(c.firewall_denials))});
    std::printf("%s\n", t.str().c_str());
  }

  // --- 2 + 3. containment and live reconfiguration --------------------------
  containment_result cont = run_containment();
  std::printf("containment: accel %llu/%llu spans denied (rule hits %llu, rule "
              "denies %llu), engine count %llu, secret %s, fill %s, sentinel "
              "%llu, tamper %s\n",
              static_cast<unsigned long long>(cont.accel_denials),
              static_cast<unsigned long long>(cont.accel_checks),
              static_cast<unsigned long long>(cont.rule_hits),
              static_cast<unsigned long long>(cont.rule_denies),
              static_cast<unsigned long long>(cont.engine_denials),
              cont.secret_intact ? "intact" : "MODIFIED",
              cont.fill_ok ? "0xFF" : "LEAKED",
              static_cast<unsigned long long>(cont.sentinel_denials),
              cont.tamper_clean ? "clean" : "FALSE-FAULTED");
  std::printf("reconfig: %llu staged tables committed at window boundaries, "
              "latency avg %.1f max %llu cycles\n",
              static_cast<unsigned long long>(cont.reprograms),
              cont.reconfig_latency_avg,
              static_cast<unsigned long long>(cont.reconfig_latency_max));

  std::FILE* json = std::fopen(opt.json_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path);
    return 1;
  }
  const double total_ms = wall.ms();
  std::fprintf(json,
               "{\n  \"bench\": \"tab12_interconnect\",\n"
               "  \"threads\": %u,\n  \"hardware_concurrency\": %u,\n"
               "  \"host_ms\": %.1f,\n  \"host_ops_per_sec\": %.0f,\n"
               "  \"scaling\": [\n",
               scaling.pool.threads, std::thread::hardware_concurrency(), total_ms,
               bench::host_ops_per_sec(total_txns, total_ms));
  for (std::size_t i = 0; i < scaling.cells.size(); ++i) {
    const fleet::fleet_cell& cell = scfg.cells[i];
    const fleet::cell_result& c = scaling.cells[i];
    std::fprintf(json,
                 "    {\"cell\": \"%s\", \"engine\": \"%s\", \"masters\": %zu, "
                 "\"clusters\": %zu, \"qos\": %s, \"firewall\": %s, "
                 "\"bytes_per_cycle\": %.6f, \"total_cycles\": %llu, "
                 "\"firewall_denials\": %llu}%s\n",
                 c.label.c_str(), std::string(edu::engine_name(cell.kind)).c_str(),
                 cell.noc_masters, cell.noc_clusters, cell.noc_qos ? "true" : "false",
                 cell.noc_firewall ? "true" : "false", c.bytes_per_cycle(),
                 static_cast<unsigned long long>(c.total_cycles),
                 static_cast<unsigned long long>(c.firewall_denials),
                 i + 1 == scaling.cells.size() ? "" : ",");
  }
  std::fprintf(json,
               "  ],\n  \"containment\": {\n"
               "    \"ok\": %s,\n    \"accel_checks\": %llu,\n"
               "    \"accel_denials\": %llu,\n    \"rule_hits\": %llu,\n"
               "    \"rule_denies\": %llu,\n    \"engine_denials\": %llu,\n"
               "    \"sentinel_denials\": %llu,\n    \"secret_intact\": %s,\n"
               "    \"fill_ok\": %s,\n    \"tamper_clean\": %s,\n"
               "    \"bytes_per_cycle\": %.6f\n  },\n"
               "  \"reconfig\": {\n    \"reprograms\": %llu,\n"
               "    \"latency_avg\": %.1f,\n    \"latency_max\": %llu\n  }\n}\n",
               cont.ok ? "true" : "false",
               static_cast<unsigned long long>(cont.accel_checks),
               static_cast<unsigned long long>(cont.accel_denials),
               static_cast<unsigned long long>(cont.rule_hits),
               static_cast<unsigned long long>(cont.rule_denies),
               static_cast<unsigned long long>(cont.engine_denials),
               static_cast<unsigned long long>(cont.sentinel_denials),
               cont.secret_intact ? "true" : "false", cont.fill_ok ? "true" : "false",
               cont.tamper_clean ? "true" : "false", cont.bytes_per_cycle,
               static_cast<unsigned long long>(cont.reprograms),
               cont.reconfig_latency_avg,
               static_cast<unsigned long long>(cont.reconfig_latency_max));
  std::fclose(json);
  std::printf("wrote %s\n", opt.json_path);

  if (!cont.ok) {
    std::fprintf(stderr, "tab12_interconnect: FAILED\n");
    return 1;
  }
  return 0;
}
