// update_lifetime: whole device lifetimes on the fleet pool — boot,
// provision, update under an armed power cut / bit flip / bus stall,
// recover, audit and downgrade probe — for every fault point x every auth
// scheme.
//
// The engine and authenticator are used write-heavy here (staging,
// install, tag updates, journal MACs), and every cell also pays an RSA
// keygen and SHA-256: the same layers as sealed_stream, from the write side.

#include "workloads.hpp"

#include "crypto/rsa.hpp"
#include "keymgmt/session.hpp"
#include "probes.hpp"
#include "update/lifetime.hpp"


namespace perfbench {

namespace {

using namespace buscrypt;

constexpr std::size_t k_runs = 8;
/// Context ids an episode can reach (the agent creates a handful).
constexpr std::size_t k_max_contexts = 64;

} // namespace

std::vector<fleet::fleet_cell> lifetime_cells(u64 seed, std::size_t runs) {
  return fleet::lifetime_matrix(runs, seed ^ 0x11FE'7135ULL);
}

fleet::cell_result traced_lifetime(const fleet::fleet_cell& cell,
                                   const engine::backend_registry& registry,
                                   lifetime_probe& probe) {
  // fleet::run_cell's lifetime mapping ...
  update::lifetime_config cfg;
  cfg.seed = cell.seed;
  cfg.auth = cell.auth;
  cfg.backend = cell.backend.empty()
                    ? (cell.auth == engine::auth_mode::area ? "aes-ecb" : "aes-ctr")
                    : cell.backend;
  cfg.inject = cell.inject;
  cfg.trigger = cell.inject_trigger;
  cfg.stalls = cell.inject == sim::fault_point::bus_stall
                   ? static_cast<unsigned>(cell.inject_trigger)
                   : 0;
  cfg.offer_package = cell.offer_package;

  // ... then update::run_lifetime step for step, with the timed port
  // below the fault injector, the pool over \p registry and a span
  // around each update-layer call.
  update::lifetime_result lr;
  rng r(cfg.seed ^ 0x11FE71'3E5ULL);

  const std::size_t s = cfg.image_bytes;
  update::update_config ucfg;
  ucfg.slot_base_a = 0;
  ucfg.slot_base_b = s;
  ucfg.slot_bytes = s;
  ucfg.staging_base = 2 * s;
  ucfg.auth = cfg.auth;
  ucfg.tag_base_a = static_cast<addr_t>(4 * s);
  ucfg.tag_base_b = static_cast<addr_t>(6 * s);
  ucfg.tag_base_staging = static_cast<addr_t>(8 * s);
  ucfg.backend = cfg.backend;
  ucfg.data_unit = cfg.data_unit;
  ucfg.chunk_bytes = cfg.chunk_bytes;
  ucfg.device_key = update::backend_device_key(cfg.backend, cfg.seed);

  sim::dram chip(12 * s < (64u << 10) ? (64u << 10) : 12 * s);
  sim::external_memory ext(chip);
  timed_port below(ext, span_kind::sim_port, ucfg.tag_base_a);
  sim::fault_injector fi(below);
  engine::keyslot_manager slots(registry, 4);
  engine::bus_encryption_engine eng(fi, slots);

  crypto::rsa_keypair keys;
  {
    const scoped_span rsa(span_kind::crypto_rsa_generate);
    keys = crypto::rsa_generate(r, 256);
  }
  update::update_agent agent(eng, fi, keys.priv, ucfg);

  const bytes image_v1 = rng(cfg.seed ^ 0xF1EE7'1A6EULL).random_bytes(s);
  const bytes image_v2 = rng(cfg.seed ^ 0xF1EE7'1A6FULL).random_bytes(s);
  {
    const scoped_span span(span_kind::update_provision);
    agent.provision(image_v1, 1);
  }

  timed_port engine_calls(eng, span_kind::engine_call);
  bytes buf(cfg.chunk_bytes);
  for (int i = 0; i < 8; ++i) {
    const addr_t at = agent.slot_base(agent.active_slot()) +
                      r.below(s / cfg.chunk_bytes) * cfg.chunk_bytes;
    lr.traffic_cycles += engine_calls.read(at, buf);
  }

  keymgmt::insecure_channel net;
  const auto make_package = [&](const bytes& image, u64 version) {
    const scoped_span span(span_kind::update_make_package);
    return update::make_update_package(image, version, keys.pub, net, r, cfg.chunk_bytes);
  };
  const update::update_package up = make_package(image_v2, 2);

  sim::fault_plan plan;
  plan.point = cfg.inject;
  plan.trigger = cfg.trigger;
  plan.seed = cfg.seed ^ 0xB1A57ULL;
  plan.blast_base = ucfg.staging_base;
  plan.blast_len = s;
  plan.stalls = cfg.stalls;
  fi.arm(plan);

  update::update_report rep;
  try {
    const scoped_span span(span_kind::update_apply);
    rep = agent.apply(up);
    lr.beats = fi.beats();
  } catch (const sim::power_cut&) {
    lr.cut = true;
    lr.beats = fi.beats();
    {
      const scoped_span span(span_kind::update_power_cycle);
      agent.power_cycle();
    }
    fi.disarm();
    const scoped_span span(span_kind::update_recover);
    rep = agent.recover(cfg.offer_package ? &up : nullptr);
  }
  fi.disarm();

  lr.status = rep.status;
  lr.retries = rep.retries;
  lr.update_cycles = rep.verify_cycles + rep.install_cycles;

  const auto active_image = [&] {
    const scoped_span span(span_kind::update_audit);
    return agent.active_image();
  };
  const bytes now = active_image();
  lr.committed_new = agent.version() == 2 && now == image_v2;
  lr.old_intact = agent.version() == 1 && now == image_v1;
  lr.torn = !lr.committed_new && !lr.old_intact;
  lr.active_slot = agent.active_slot();
  lr.version = agent.version();

  if (cfg.downgrade_probe) {
    const update::update_package stale = make_package(image_v1, 1);
    update::update_report drep;
    {
      const scoped_span span(span_kind::update_apply);
      drep = agent.apply(stale);
    }
    lr.downgrade_blocked = drep.status == update::update_status::downgrade_blocked &&
                           agent.version() == lr.version && active_image() == now;
  }
  lr.dram_fingerprint = fleet::fnv1a(chip.raw());

  probe.cut = lr.cut;
  probe.retries = lr.retries;
  probe.counters = {};
  probe.counters.engine = eng.stats();
  probe.counters.slots = slots.stats();
  for (std::size_t ctx = 0; ctx < k_max_contexts; ++ctx)
    if (const engine::memory_authenticator* a = eng.auth_of(ctx)) {
      layer_counters attached;
      attached.auth = a->stats();
      probe.counters.add(attached);
    }
  probe.counters.beats = ext.beats();
  probe.counters.row_hits = chip.row_hits();
  probe.counters.row_misses = chip.row_misses();
  probe.counters.data_bytes = below.data_bytes();
  probe.counters.tag_bytes = below.tag_bytes();

  // ... and run_cell's result fields.
  fleet::cell_result out;
  out.label = cell.label();
  out.ops = lr.beats;
  out.bytes = cfg.image_bytes;
  out.total_cycles = lr.traffic_cycles + lr.update_cycles;
  out.updates_committed = lr.committed_new ? 1 : 0;
  out.updates_rolled_back = !lr.committed_new && lr.old_intact ? 1 : 0;
  out.torn_images = lr.torn ? 1 : 0;
  out.downgrade_breaches = lr.downgrade_blocked ? 0 : 1;
  out.dram_fnv = lr.dram_fingerprint;
  return out;
}

void check_lifetime_round(const std::vector<fleet::cell_result>& got,
                          const std::vector<fleet::cell_result>& ref, const char* what,
                          outcome& out) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    ++out.attempted;
    std::string why;
    if (!check_lifetime_cell(got[i], why)) out.fail(1, got[i].label + ": " + why);
    else if (!got[i].sim_equal(ref[i]))
      out.fail(1, got[i].label + ": " + what + " result differs from the reference");
  }
}

bool check_lifetime_cell(const fleet::cell_result& r, std::string& why) {
  if (r.torn_images != 0) why = "torn image";
  else if (r.updates_committed + r.updates_rolled_back != 1)
    why = "ended on neither exactly the old nor exactly the new image";
  else if (r.downgrade_breaches != 0) why = "stale-version downgrade accepted";
  else return true;
  return false;
}

outcome run_update_lifetime(const run_options& opt) {
  outcome out;
  const clock::time_point start = clock::now();

  // Set-up: cell planning, repeated per round (the pool start stays in the
  // measured round, as in ctx_storm).
  std::vector<double> setups;
  const auto plan = [&] {
    const clock::time_point t0 = clock::now();
    fleet::fleet_config cfg;
    cfg.cells = lifetime_cells(opt.seed, k_runs);
    cfg.threads = opt.threads;
    setups.push_back(seconds_since(t0));
    return cfg;
  };

  fleet::fleet_config cfg = plan();
  const fleet::fleet_result ref = fleet::run_fleet(cfg); // warm-up and reference
  check_lifetime_round(ref.cells, ref.cells, "warm-up", out);

  std::vector<double> ops_per_s, untraced_cell_ms, traced_cell_ms;
  trace_summary sum;
  fleet_timing timing;
  std::vector<tracer> kept;
  std::vector<lifetime_probe> probes(cfg.cells.size());
  const engine::backend_registry registry = traced_registry();
  do {
    cfg = plan();
    const clock::time_point t0 = clock::now();
    const fleet::fleet_result r = fleet::run_fleet(cfg);
    const double wall_ms = ms_since(t0);
    check_lifetime_round(r.cells, ref.cells, "untraced", out);
    ops_per_s.push_back(static_cast<double>(r.cells.size()) / (wall_ms * 1e-3));
    std::vector<double> cell_ms;
    for (const fleet::cell_result& c : r.cells) cell_ms.push_back(c.host_ms);
    untraced_cell_ms.push_back(mean(cell_ms));

    if (opt.trace) {
      std::vector<fleet::cell_result> got(cfg.cells.size());
      pool_trace pt =
          traced_jobs(cfg.cells.size(), opt.threads, kept.empty() ? k_kept_spans : 0,
                      [&](std::size_t i) { got[i] = traced_lifetime(cfg.cells[i], registry, probes[i]); });
      check_lifetime_round(got, ref.cells, "traced", out);
      traced_cell_ms.push_back(mean(pt.timing.cell_ms));
      timing.add(pt.timing);
      for (const tracer& t : pt.tracers) sum.add(t);
      if (kept.empty()) kept = std::move(pt.tracers);
    }
  } while (seconds_since(start) < opt.seconds || ops_per_s.size() < 3);

  if (!opt.trace) {
    // The simulated cost of a whole update, from the clean (no-fault)
    // episodes: their cycles depend on the scheme, not on where a fault
    // happened to land, so the figures stay comparable across seeds.
    double bytes = 0.0, cycles = 0.0, plain_cycles = 0.0, plain_n = 0.0, auth_n = 0.0;
    double auth_cycles = 0.0;
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
      if (cfg.cells[i].inject != sim::fault_point::none) continue;
      const fleet::cell_result& c = ref.cells[i];
      bytes += static_cast<double>(c.bytes);
      cycles += static_cast<double>(c.total_cycles);
      const bool plain = cfg.cells[i].auth == engine::auth_mode::none;
      (plain ? plain_cycles : auth_cycles) += static_cast<double>(c.total_cycles);
      (plain ? plain_n : auth_n) += 1.0;
    }
    out.add("host_ops_per_s", median(ops_per_s), "1/s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("sim_bytes_per_cycle", bytes / cycles, "B/cycle");
    // Mean cycles of an authenticated clean update beyond the mean of the
    // unauthenticated ones.
    out.add("sim_overhead_pct", ((auth_cycles / auth_n) / (plain_cycles / plain_n) - 1.0) * 100.0,
            "%");
    return out;
  }

  timing.per_round(static_cast<double>(traced_cell_ms.size()));
  add_fleet_metrics(out, timing);

  layer_counters counters;
  u64 committed = 0, rolled_back = 0, cuts = 0, retries = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    cuts += probes[i].cut ? 1 : 0;
    retries += probes[i].retries;
    committed += ref.cells[i].updates_committed;
    rolled_back += ref.cells[i].updates_rolled_back;
    counters.add(probes[i].counters);
  }
  add_counter_metrics(out, counters);
  out.add("update.power_cuts", static_cast<double>(cuts), "count");
  out.add("update.retries", static_cast<double>(retries), "count");
  out.add("update.committed", static_cast<double>(committed), "count");
  out.add("update.rolled_back", static_cast<double>(rolled_back), "count");

  finish_traced_run(out, opt, sum, kept, untraced_cell_ms, traced_cell_ms);
  return out;
}

} // namespace perfbench
