// sealed_stream: one aes-ctr keyslot SoC with MAC authentication over 8
// DRAM banks, driven by tab7's read-dominated "mixed-heavy" line stream in
// batches of 16 — the survey's cost question on the per-core simulator.
//
// One key, so key expansion is negligible: the host work is bulk CTR
// pads, HMAC-SHA256 verify/update, the engine's batch path and DRAM
// scheduling. The same stream on the plaintext SoC is the reference for
// the simulated overhead and for the read-back check.

#include "workloads.hpp"

#include "common/rng.hpp"
#include "edu/engine_edu.hpp"
#include "fleet/pool.hpp"
#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <memory>

namespace perfbench {

namespace {

using namespace buscrypt;

constexpr std::size_t k_footprint = 256 * 1024;
constexpr std::size_t k_fetches = 30'000;
constexpr std::size_t k_stores = 8'000;
constexpr std::size_t k_batch_txns = 16;
constexpr std::size_t k_line = 32;

/// The simulated state of a finished stream; the read-back runs last, as
/// it moves the engine's counters.
template <class ReadBack>
void collect(stream_result& r, sim::dram& chip, sim::external_memory& ext,
             ReadBack&& read_back) {
  r.dram_fnv = fleet::fnv1a(chip.raw());
  r.counters.beats = ext.beats();
  r.counters.row_hits = chip.row_hits();
  r.counters.row_misses = chip.row_misses();
  r.dram.assign(chip.raw().begin(), chip.raw().begin() + k_footprint);
  r.read_back.resize(k_footprint);
  read_back(r.read_back);
}

std::unique_ptr<edu::secure_soc> open_soc(const bytes& image, u64 seed, bool sealed) {
  auto soc = std::make_unique<edu::secure_soc>(
      sealed ? edu::engine_kind::inline_keyslot : edu::engine_kind::plaintext,
      stream_soc(seed, sealed));
  soc->load_image(0, image);
  return soc;
}

stream_result close_soc(edu::secure_soc& soc, const sim::throughput_stats& ts, bool sealed) {
  stream_result r;
  r.ts = ts;
  soc.flush();
  if (sealed) {
    auto& adapter = static_cast<edu::engine_edu&>(soc.engine());
    r.counters.engine = adapter.engine().stats();
    r.counters.slots = adapter.slots().stats();
    r.counters.auth = adapter.auth()->stats();
  }
  collect(r, soc.memory(), soc.external(),
          [&](bytes& out) { out = soc.read_back(0, out.size()); });
  return r;
}

} // namespace

sim::workload mixed_heavy(std::size_t accesses, std::size_t footprint, u64 seed) {
  // tab7's proportions: 30k fetches to 8k streaming elements.
  const std::size_t stores = accesses * k_stores / (k_fetches + k_stores);
  sim::workload w = sim::make_jumpy_code(accesses - stores, footprint, 0.15, seed ^ 0x7AB7);
  const sim::workload s = sim::make_streaming(stores, footprint, 4, seed ^ 0x7AB8);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  w.name = "mixed-heavy";
  return w;
}

bytes stream_image(std::size_t footprint, u64 seed) {
  rng r(seed ^ 0x5EEDULL);
  bytes img(footprint);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    img[off] = static_cast<u8>(r.below(24) * 8);
    img[off + 1] = static_cast<u8>(0xE0 | r.below(8));
    img[off + 2] = r.next_byte();
    img[off + 3] = static_cast<u8>(r.below(64));
  }
  return img;
}

edu::soc_config stream_soc(u64 seed, bool sealed) {
  edu::soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = k_line;
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  cfg.mem_timing.banks = 8;
  cfg.key_seed = seed ^ 0x5EA1'ED00ULL;
  if (sealed) {
    cfg.keyslot_backend = "aes-ctr";
    cfg.keyslot_auth = engine::auth_mode::mac;
  }
  return cfg;
}

bool stream_result::sim_equal(const stream_result& o) const noexcept {
  return ts.ops == o.ts.ops && ts.bytes == o.ts.bytes &&
         ts.total_cycles == o.ts.total_cycles && counters.sim_equal(o.counters) &&
         dram_fnv == o.dram_fnv && read_back == o.read_back;
}

stream_result run_stream(const sim::workload& w, const bytes& image, u64 seed, bool sealed) {
  const std::unique_ptr<edu::secure_soc> soc = open_soc(image, seed, sealed);
  const sim::throughput_stats ts = soc->run_throughput(w, k_batch_txns);
  return close_soc(*soc, ts, sealed);
}

std::vector<stream_result> run_stream_copies(const sim::workload& w, const bytes& image,
                                             u64 seed, unsigned copies, double& setup_s,
                                             double& run_s) {
  std::vector<std::unique_ptr<edu::secure_soc>> socs(copies);
  std::vector<sim::throughput_stats> ts(copies);
  std::vector<double> copy_ms(copies, 0.0);
  std::vector<stream_result> out(copies);
  // Each phase on the pool; a copy's own time is summed over the phases.
  const auto phase = [&](const std::function<void(std::size_t)>& step) {
    (void)fleet::run_jobs(copies, copies, [&](std::size_t i) {
      const clock::time_point c0 = clock::now();
      step(i);
      copy_ms[i] += ms_since(c0);
    });
  };
  const clock::time_point t0 = clock::now();
  phase([&](std::size_t i) { socs[i] = open_soc(image, seed, true); });
  const clock::time_point t1 = clock::now();
  phase([&](std::size_t i) { ts[i] = socs[i]->run_throughput(w, k_batch_txns); });
  setup_s = std::chrono::duration<double>(t1 - t0).count();
  run_s = seconds_since(t1);
  phase([&](std::size_t i) { out[i] = close_soc(*socs[i], ts[i], true); });
  for (std::size_t i = 0; i < copies; ++i) out[i].host_ms = copy_ms[i];
  return out;
}

stream_result traced_stream(const sim::workload& w, const bytes& image, u64 seed,
                            const engine::backend_registry& registry) {
  // secure_soc(inline_keyslot) + engine_edu, composed from public parts
  // with a timed port on each side of the engine.
  const edu::soc_config cfg = stream_soc(seed, true);
  const edu::engine_edu_config ecfg;
  sim::dram chip(cfg.mem_size, cfg.mem_timing);
  sim::external_memory ext(chip);
  timed_port below(ext, span_kind::sim_port, cfg.keyslot_auth_tag_base);
  engine::keyslot_manager slots(registry, ecfg.num_slots, cfg.keyslot_policy);
  engine::bus_encryption_engine eng(below, slots, ecfg.engine);

  rng key_rng(cfg.key_seed);
  const auto ctx = eng.create_context({cfg.keyslot_backend, key_rng.random_bytes(16), k_line});
  eng.map_region(0, static_cast<std::size_t>(-1), ctx);
  engine::auth_config ac;
  ac.mode = cfg.keyslot_auth;
  ac.base = 0;
  ac.limit = cfg.keyslot_auth_limit;
  ac.tag_base = cfg.keyslot_auth_tag_base;
  rng auth_rng(cfg.key_seed ^ 0xA07411ULL);
  ac.key = auth_rng.random_bytes(16);
  {
    const scoped_span seal(span_kind::engine_call); // the attach-time seal and install
    eng.attach_auth(ctx, ac);
    eng.install(0, image);
  }

  timed_port above(eng, span_kind::engine_call);
  stream_result r;
  r.ts = sim::issue_batched(above, sim::to_port_ops(w, k_line), k_line, k_batch_txns);
  r.counters.engine = eng.stats();
  r.counters.slots = slots.stats();
  r.counters.auth = eng.auth_of(ctx)->stats();
  r.counters.tag_bytes = below.tag_bytes();
  r.counters.data_bytes = below.data_bytes();
  collect(r, chip, ext, [&](bytes& out) {
    const scoped_span read_back(span_kind::engine_call);
    eng.read_plain(0, out);
  });
  return r;
}

void check_stream_round(const stream_result& got, const stream_result& ref,
                        const stream_result& plain, const char* what, outcome& out) {
  out.attempted += got.ts.ops;
  std::string why;
  if (!check_stream(got, plain, why)) out.fail(got.ts.ops, what + (": " + why));
  else if (!got.sim_equal(ref))
    out.fail(got.ts.ops, std::string(what) + " result differs from the reference");
}

bool check_stream(const stream_result& sealed, const stream_result& plain, std::string& why) {
  if (sealed.counters.engine.integrity_faults != 0) {
    why = std::to_string(sealed.counters.engine.integrity_faults) +
          " integrity faults on a clean run";
    return false;
  }
  if (sealed.read_back != plain.read_back) {
    why = "read-back differs from the plaintext SoC's";
    return false;
  }
  for (std::size_t off = 0; off + k_line <= sealed.dram.size(); off += k_line) {
    if (std::equal(sealed.dram.begin() + static_cast<std::ptrdiff_t>(off),
                   sealed.dram.begin() + static_cast<std::ptrdiff_t>(off + k_line),
                   plain.dram.begin() + static_cast<std::ptrdiff_t>(off))) {
      why = "plaintext line in DRAM at " + std::to_string(off);
      return false;
    }
  }
  return true;
}

outcome run_sealed_stream(const run_options& opt) {
  outcome out;
  const clock::time_point start = clock::now();
  const sim::workload w = mixed_heavy(k_fetches + k_stores, k_footprint, opt.seed);
  const bytes image = stream_image(k_footprint, opt.seed);

  const stream_result plain = run_stream(w, image, opt.seed, false);
  const stream_result ref = run_stream(w, image, opt.seed, true); // warm-up
  check_stream_round(ref, ref, plain, "warm-up", out);

  std::vector<double> setups, ops_per_s, untraced_cell_ms, traced_cell_ms;
  trace_summary sum;
  fleet_timing timing;
  layer_counters counters; // of one traced round
  std::vector<tracer> kept;
  const engine::backend_registry registry = traced_registry();
  do {
    double setup_s = 0.0, run_s = 0.0;
    const std::vector<stream_result> copies =
        run_stream_copies(w, image, opt.seed, opt.threads, setup_s, run_s);
    u64 ops = 0;
    std::vector<double> copy_ms;
    for (const stream_result& r : copies) {
      check_stream_round(r, ref, plain, "untraced", out);
      ops += r.ts.ops;
      copy_ms.push_back(r.host_ms);
    }
    untraced_cell_ms.push_back(mean(copy_ms));
    setups.push_back(setup_s);
    ops_per_s.push_back(static_cast<double>(ops) / run_s);

    if (opt.trace) {
      std::vector<stream_result> got(opt.threads);
      pool_trace pt = traced_jobs(got.size(), opt.threads, kept.empty() ? k_kept_spans : 0,
                                  [&](std::size_t i) {
                                    got[i] = traced_stream(w, image, opt.seed, registry);
                                  });
      counters = {};
      for (const stream_result& r : got) {
        check_stream_round(r, ref, plain, "traced", out);
        counters.add(r.counters);
      }
      traced_cell_ms.push_back(mean(pt.timing.cell_ms));
      timing.add(pt.timing);
      for (const tracer& t : pt.tracers) sum.add(t);
      if (kept.empty()) kept = std::move(pt.tracers);
    }
  } while (seconds_since(start) < opt.seconds || ops_per_s.size() < 3);

  if (!opt.trace) {
    out.add("host_ops_per_s", median(ops_per_s), "1/s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("sim_bytes_per_cycle", ref.ts.bytes_per_cycle(), "B/cycle");
    // The survey's headline: cycles the keyslot+mac SoC spends beyond the
    // plaintext SoC on the same stream.
    out.add("sim_overhead_pct",
            (static_cast<double>(ref.ts.total_cycles) /
                 static_cast<double>(plain.ts.total_cycles) -
             1.0) * 100.0,
            "%");
    return out;
  }

  timing.per_round(static_cast<double>(traced_cell_ms.size()));
  add_fleet_metrics(out, timing);
  add_counter_metrics(out, counters);
  finish_traced_run(out, opt, sum, kept, untraced_cell_ms, traced_cell_ms);
  return out;
}

} // namespace perfbench
