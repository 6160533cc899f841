// ctx_storm: Zipf context storms against keyslot pools, on the fleet pool.
//
// Nearly all host work is AES key expansion behind the shared schedule
// cache and its lock, keyslot victim choice and fleet scaling: each op
// transforms only one 32 B unit and touches no DRAM and no authenticator.

#include "workloads.hpp"

#include "common/rng.hpp"
#include "probes.hpp"

#include <deque>

namespace perfbench {

namespace {

using namespace buscrypt;

constexpr std::size_t k_contexts = 100'000;
constexpr std::size_t k_ops_per_cell = 4'000;

void fnv_accumulate(u64& h, u64 v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x00000100000001B3ULL;
  }
}

struct storm_round {
  std::vector<engine::churn_result> cells;
  double wall_ms = 0.0;
};

storm_round untraced_round(const std::vector<engine::churn_config>& cells, unsigned threads) {
  fleet::churn_fleet_config cfg;
  cfg.cells = cells;
  cfg.threads = threads;
  const clock::time_point t0 = clock::now();
  fleet::churn_fleet_result r = fleet::run_churn_fleet(cfg);
  return {std::move(r.cells), ms_since(t0)};
}

} // namespace

std::vector<engine::churn_config> storm_cells(u64 seed, std::size_t contexts,
                                              std::size_t ops) {
  std::vector<engine::churn_config> cells;
  rng seeds(seed ^ 0xC7A5'7081ULL);
  for (const engine::slot_policy policy : engine::all_slot_policies)
    for (const unsigned pool : {4u, 16u})
      for (const double skew : {0.8, 1.2}) {
        engine::churn_config c;
        c.contexts = contexts;
        c.ops = ops;
        c.zipf_s = skew;
        c.slots = pool;
        c.in_flight = 4;
        c.policy = policy;
        c.seed = seeds.next_u64();
        cells.push_back(std::move(c));
      }
  return cells;
}

engine::churn_result traced_churn(const engine::churn_config& cfg,
                                  const engine::backend_registry& registry) {
  // The loop of engine::run_churn, step for step, with the registry and
  // the acquire span swapped in.
  const engine::cipher_backend& backend = registry.at(cfg.backend);
  std::size_t key_len = 16;
  if (!backend.key_len_ok(key_len)) {
    for (std::size_t len = 1; len <= 64; ++len)
      if (backend.key_len_ok(len)) {
        key_len = len;
        break;
      }
  }

  engine::keyslot_manager mgr(registry, cfg.slots, cfg.policy);
  engine::zipf_sampler draws(cfg.contexts, cfg.zipf_s, cfg.seed ^ 0x21BF5EEDULL);

  engine::churn_result r;
  r.label = cfg.label();
  r.draw_fnv = 0xCBF29CE484222325ULL;

  rng payload_rng(cfg.seed ^ 0xDA7AULL);
  bytes unit = payload_rng.random_bytes(cfg.data_unit);
  bytes out(cfg.data_unit);
  std::deque<int> held;

  for (std::size_t op = 0; op < cfg.ops; ++op) {
    const std::size_t id = draws.next();
    fnv_accumulate(r.draw_fnv, static_cast<u64>(id));

    rng key_rng(cfg.seed ^ (0x6B5EEDULL + static_cast<u64>(id)));
    engine::keyslot_key k{cfg.backend, key_rng.random_bytes(key_len), cfg.data_unit};

    const engine::keyslot_stats& ks = mgr.stats();
    const u64 demand_before = ks.cold_programs + ks.reprograms;
    int slot = engine::keyslot_manager::no_slot;
    {
      const scoped_span acquire(span_kind::keyslot_acquire);
      slot = mgr.acquire(k);
    }

    cycles cost = 0;
    if (slot == engine::keyslot_manager::no_slot) {
      ++r.fallbacks;
      const std::unique_ptr<engine::keyed_cipher> sw = backend.make_keyed(k.key);
      sw->encrypt_unit(static_cast<u64>(id), unit, out);
      cost = sw->unit_cost(cfg.data_unit, true) * cfg.fallback_penalty;
    } else {
      if (ks.cold_programs + ks.reprograms != demand_before) {
        cost += cfg.slot_program_cycles;
        r.stall_cycles += cfg.slot_program_cycles;
      }
      engine::keyed_cipher& kc = mgr.keyed(slot);
      kc.encrypt_unit(static_cast<u64>(id), unit, out);
      cost += kc.unit_cost(cfg.data_unit, true);
      held.push_back(slot);
      while (held.size() > cfg.in_flight) {
        mgr.release(held.front());
        held.pop_front();
      }
    }
    r.total_cycles += cost;
    r.bytes += cfg.data_unit;
    ++r.ops;
  }

  for (const int slot : held) mgr.release(slot);
  r.slots = mgr.stats();
  return r;
}

void check_storm_round(const std::vector<engine::churn_config>& cfgs,
                       const std::vector<engine::churn_result>& ref,
                       const std::vector<engine::churn_result>& got, const char* what,
                       outcome& out) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    out.attempted += cfgs[i].ops;
    std::string why;
    if (!check_storm_cell(cfgs[i], got[i], why))
      out.fail(cfgs[i].ops, got[i].label + ": " + why);
    else if (!got[i].sim_equal(ref[i]))
      out.fail(cfgs[i].ops, got[i].label + ": " + what + " result differs from the reference");
  }
}

bool check_storm_cell(const engine::churn_config& cfg, const engine::churn_result& r,
                      std::string& why) {
  const engine::keyslot_stats& s = r.slots;
  if (s.programs != s.cold_programs + s.reprograms + s.prefetch_programs)
    why = "programs != cold + reprograms + prefetch";
  else if (s.acquires != s.hits + s.cold_programs + s.reprograms + s.denials)
    why = "acquires != hits + cold + reprograms + denials";
  else if (r.ops != cfg.ops || s.acquires != r.ops)
    why = "ops replayed != ops planned";
  else if (r.fallbacks != s.denials)
    why = "fallbacks != denials";
  else if (r.bytes != r.ops * cfg.data_unit)
    why = "bytes != ops x data unit";
  else
    return true;
  return false;
}

outcome run_ctx_storm(const run_options& opt) {
  outcome out;
  const clock::time_point start = clock::now();

  // Set-up: cell planning, repeated per round. The pool start stays in
  // the measured round (run_churn_fleet starts its own workers), and on a
  // virtual host thread start-up cost drifts too much to gate set-up on.
  std::vector<double> setups;
  const auto plan = [&] {
    const clock::time_point t0 = clock::now();
    std::vector<engine::churn_config> cells = storm_cells(opt.seed, k_contexts, k_ops_per_cell);
    setups.push_back(seconds_since(t0));
    return cells;
  };

  std::vector<engine::churn_config> cells = plan();
  // Warm-up round: the reference every later round must reproduce.
  const storm_round ref = untraced_round(cells, opt.threads);
  check_storm_round(cells, ref.cells, ref.cells, "warm-up", out);

  std::vector<double> ops_per_s;
  std::vector<double> untraced_cell_ms, traced_cell_ms;
  trace_summary sum;
  fleet_timing timing;
  std::vector<tracer> kept; // the first traced round's spans
  const engine::backend_registry registry = traced_registry();
  double total_ops = 0.0;
  for (const engine::churn_config& c : cells) total_ops += static_cast<double>(c.ops);

  do {
    cells = plan();
    const storm_round r = untraced_round(cells, opt.threads);
    check_storm_round(cells, ref.cells, r.cells, "untraced", out);
    ops_per_s.push_back(total_ops / (r.wall_ms * 1e-3));
    std::vector<double> cell_ms;
    for (const engine::churn_result& c : r.cells) cell_ms.push_back(c.host_ms);
    untraced_cell_ms.push_back(mean(cell_ms));
    if (opt.trace) {
      std::vector<engine::churn_result> got(cells.size());
      pool_trace pt = traced_jobs(cells.size(), opt.threads, kept.empty() ? k_kept_spans : 0,
                                  [&](std::size_t i) { got[i] = traced_churn(cells[i], registry); });
      check_storm_round(cells, ref.cells, got, "traced", out);
      traced_cell_ms.push_back(mean(pt.timing.cell_ms));
      timing.add(pt.timing);
      for (const tracer& t : pt.tracers) sum.add(t);
      if (kept.empty()) kept = std::move(pt.tracers);
    }
  } while (seconds_since(start) < opt.seconds || ops_per_s.size() < 3);

  if (!opt.trace) {
    u64 bytes = 0;
    cycles total = 0, ideal = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const engine::backend_cost cost =
          engine::backend_registry::builtin().at(cells[i].backend).cost();
      bytes += ref.cells[i].bytes;
      total += ref.cells[i].total_cycles;
      ideal += ref.cells[i].ops * cost.time(cells[i].data_unit, true);
    }
    out.add("host_ops_per_s", median(ops_per_s), "1/s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("sim_bytes_per_cycle", static_cast<double>(bytes) / static_cast<double>(total),
            "B/cycle");
    // Cycles beyond a pool that held every key: program stalls and the
    // software-fallback penalty.
    out.add("sim_overhead_pct",
            (static_cast<double>(total) / static_cast<double>(ideal) - 1.0) * 100.0, "%");
    return out;
  }

  timing.per_round(static_cast<double>(traced_cell_ms.size()));
  add_fleet_metrics(out, timing);

  layer_counters counters;
  for (const engine::churn_result& r : ref.cells) {
    layer_counters cell;
    cell.slots = r.slots;
    counters.add(cell);
  }
  add_counter_metrics(out, counters);

  finish_traced_run(out, opt, sum, kept, untraced_cell_ms, traced_cell_ms);
  return out;
}

} // namespace perfbench
