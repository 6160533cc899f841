#include "fleet/fleet.hpp"

#include "common/rng.hpp"
#include "edu/engine_edu.hpp"
#include "sim/workload.hpp"

#include <chrono>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace buscrypt::fleet {

namespace {

/// The embedded-class SoC geometry every cell runs (the tab7 bench
/// geometry: 8 KiB 2-way L1, 32 B lines, 8 MiB DRAM over 8 banks).
edu::soc_config cell_soc(const fleet_cell& c) {
  edu::soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  cfg.mem_timing.banks = 8;
  cfg.key_seed = c.seed;
  if (c.kind == edu::engine_kind::inline_keyslot) {
    cfg.keyslot_backend = c.backend;
    cfg.keyslot_auth = c.auth;
    cfg.keyslot_policy = c.policy;
    cfg.keyslot_slots = c.keyslot_slots;
  }
  return cfg;
}

/// Deterministic firmware-like image: seed-derived, word-patterned so
/// compress_otp has structure to work with (pure noise would not
/// compress and the cell would degenerate).
bytes cell_image(const fleet_cell& c) {
  rng r(c.seed ^ 0xF1EE7'1A6EULL);
  bytes img(c.footprint);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    // Skewed high half (opcode-ish), noisy low half (immediate-ish).
    img[off] = static_cast<u8>(r.below(24) * 8);
    img[off + 1] = static_cast<u8>(0xE0 | r.below(8));
    img[off + 2] = r.next_byte();
    img[off + 3] = static_cast<u8>(r.below(64));
  }
  return img;
}

sim::workload cell_workload(const fleet_cell& c) {
  const std::size_t n = c.accesses;
  const std::size_t fp = c.footprint;
  sim::workload w;
  switch (c.load) {
    case traffic::mixed: {
      // The tab7 "mixed-heavy" shape at cell scale: branchy fetch over
      // many DRAM rows plus a streaming store component.
      w = sim::make_jumpy_code(n - n / 4, fp, 0.15, c.seed ^ 0x7AB7);
      sim::workload s = sim::make_streaming(n / 4, fp, 4, c.seed ^ 0x7AB8);
      w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
      break;
    }
    case traffic::jumpy:
      w = sim::make_jumpy_code(n, fp, 0.15, c.seed ^ 0x7AB7);
      break;
    case traffic::streaming:
      w = sim::make_streaming(n, fp, 4, c.seed ^ 0x7AB8);
      break;
    case traffic::data_rw:
      w = sim::make_data_rw(n, fp, 0.4, 0.5, 4, c.seed ^ 0x7AB9);
      break;
    case traffic::pointer_chase:
      w = sim::make_pointer_chase(n, fp, c.seed ^ 0x7ABA);
      break;
    case traffic::sequential:
      w = sim::make_sequential_code(n, fp, 64, c.seed ^ 0x7ABB);
      break;
  }
  w.name = std::string(traffic_name(c.load));
  return w;
}

/// Footprint slice of one noc master: the largest power of two that fits
/// footprint/noc_masters (keyslot domain bounds stay data-unit aligned at
/// any master count), floored at 4 KiB so tiny cells stay well-formed.
std::size_t noc_slice(const fleet_cell& c) {
  const std::size_t n = c.noc_masters == 0 ? 1 : c.noc_masters;
  std::size_t slice = c.footprint / n;
  while ((slice & (slice - 1)) != 0) slice &= slice - 1;
  return std::max<std::size_t>(slice, 4096);
}

/// Base address of one noc master's slice. Slices live above the
/// installed image (which occupies [0, footprint)): the image region is
/// read-only under compress_otp, and every other engine treats the split
/// identically, so the cast stays engine-agnostic.
addr_t noc_slice_base(const fleet_cell& c, std::size_t i) {
  const auto data_base =
      static_cast<addr_t>(std::max<std::size_t>(1u << 20, c.footprint));
  return data_base + static_cast<addr_t>(i * noc_slice(c));
}

} // namespace

std::string fleet_cell::label() const {
  std::string name;
  if (kind == edu::engine_kind::inline_keyslot && !backend.empty())
    name = std::string(edu::keyslot_name_prefix) + backend;
  else
    name = std::string(edu::engine_name(kind));
  if (kind == edu::engine_kind::inline_keyslot && auth != engine::auth_mode::none)
    name += "+" + std::string(engine::auth_mode_name(auth));
  if (kind == edu::engine_kind::inline_keyslot &&
      policy != engine::slot_policy::lru)
    name += "~" + std::string(engine::slot_policy_name(policy));
  if (kind == edu::engine_kind::inline_keyslot && keyslot_slots != 0)
    name += "@" + std::to_string(keyslot_slots);
  name += "/" + std::string(traffic_name(load));
  name += "/" + std::string(drive_mode_name(drive));
  if (drive == drive_mode::noc) {
    name += std::to_string(noc_masters) + "x" + std::to_string(noc_clusters);
    if (noc_qos) name += "+qos";
    if (noc_firewall) name += "+fw";
  }
  if (drive == drive_mode::lifetime) {
    name += ":" + std::string(sim::fault_point_name(inject));
    if (inject != sim::fault_point::none)
      name += "@" + std::to_string(inject_trigger);
    if (!offer_package) name += "+noresume";
  }
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof seed_hex, " s%llx",
                static_cast<unsigned long long>(seed));
  return name + seed_hex;
}

bool cell_result::sim_equal(const cell_result& o) const noexcept {
  return label == o.label && ops == o.ops && bytes == o.bytes &&
         total_cycles == o.total_cycles && edu.reads == o.edu.reads &&
         edu.writes == o.edu.writes && edu.cipher_blocks == o.edu.cipher_blocks &&
         edu.crypto_cycles == o.edu.crypto_cycles && edu.rmw_ops == o.edu.rmw_ops &&
         edu.batches == o.edu.batches && edu.batched_txns == o.edu.batched_txns &&
         integrity_faults == o.integrity_faults && domain_faults == o.domain_faults &&
         firewall_denials == o.firewall_denials && fallbacks == o.fallbacks &&
         updates_committed == o.updates_committed &&
         updates_rolled_back == o.updates_rolled_back &&
         torn_images == o.torn_images &&
         downgrade_breaches == o.downgrade_breaches && dram_fnv == o.dram_fnv;
}

std::vector<edu::master_desc> noc_cast(const fleet_cell& cell) {
  const std::size_t n = cell.noc_masters == 0 ? 1 : cell.noc_masters;
  const std::size_t slice = noc_slice(cell);
  const std::size_t per = std::max<std::size_t>(cell.accesses / n, 64);

  std::vector<edu::master_desc> cast(n);
  for (std::size_t i = 0; i < n; ++i) {
    edu::master_desc& d = cast[i];
    const addr_t base = noc_slice_base(cell, i);
    const u64 seed = cell.seed ^ (0x40C0000ULL + i);
    // The tab8 cast ratio, repeated: one compute stream, two bulk movers,
    // one poller per group of four.
    switch (i % 4) {
      case 1:
      case 2:
        d.role = edu::master_kind::dma;
        d.name = "dma" + std::to_string(i);
        d.work = sim::make_dma_copy(
            std::min<std::size_t>(
                (std::max<std::size_t>(per * 4, 1024) + 127) / 128 * 128,
                slice / 2 / 128 * 128),
            base, base + slice / 2, 128, seed);
        d.priority = 1;
        break;
      case 3:
        d.role = edu::master_kind::peripheral;
        d.name = "periph" + std::to_string(i);
        d.work = sim::make_peripheral_poll(per, base, 8, 64, 16, seed);
        d.priority = 9;
        break;
      default:
        d.role = edu::master_kind::cpu;
        d.name = "cpu" + std::to_string(i);
        d.work = sim::confine_workload(
            sim::make_data_rw(per, slice / 2, 0.5, 0.4, 8, seed), base, slice);
        d.priority = 5;
        break;
    }
    if (cell.kind == edu::engine_kind::inline_keyslot && slice >= 4096) {
      d.domain_base = base;
      d.domain_len = slice;
    }
  }
  return cast;
}

sim::topology noc_topology(const fleet_cell& cell) {
  const std::size_t n = cell.noc_masters == 0 ? 1 : cell.noc_masters;
  const std::size_t slice = noc_slice(cell);

  sim::topology topo(sim::arbiter_config{sim::arb_policy::round_robin, 8, 0});
  // QoS classes live on declared slots, so a flat QoS cell declares one
  // explicit cluster — bit-identical arbitration to the implicit one.
  const std::size_t k =
      cell.noc_clusters > 0 ? cell.noc_clusters : (cell.noc_qos ? 1 : 0);
  std::vector<sim::cluster_id> clusters;
  for (std::size_t c = 0; c < k; ++c) {
    sim::cluster_config cc;
    cc.name = "c" + std::to_string(c);
    cc.arb = topo.root();
    clusters.push_back(topo.add_cluster(cc));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto m = static_cast<sim::master_id>(i);
    sim::qos_class cls = sim::qos_class::none;
    if (cell.noc_qos)
      cls = i % 4 == 3                     ? sim::qos_class::latency
            : (i % 4 == 1 || i % 4 == 2) ? sim::qos_class::bulk
                                         : sim::qos_class::none;
    if (!clusters.empty()) topo.add_master(clusters[i % clusters.size()], m, cls);
    if (cell.noc_firewall) {
      const addr_t base = noc_slice_base(cell, i);
      topo.add_firewall_rule(m, {base, slice, sim::fw_perm::rw, 0});
    }
  }
  return topo;
}

cell_result run_cell(const fleet_cell& cell) {
  const auto t0 = std::chrono::steady_clock::now();

  // Lifetime cells run the whole-device update episode — no SoC workload
  // drive; the episode owns its engine, fault injector and agent.
  if (cell.drive == drive_mode::lifetime) {
    update::lifetime_config lc;
    lc.seed = cell.seed;
    lc.auth = cell.auth;
    lc.backend = cell.backend.empty()
                     ? (cell.auth == engine::auth_mode::area ? "aes-ecb" : "aes-ctr")
                     : cell.backend;
    lc.inject = cell.inject;
    lc.trigger = cell.inject_trigger;
    lc.stalls = cell.inject == sim::fault_point::bus_stall
                    ? static_cast<unsigned>(cell.inject_trigger)
                    : 0;
    lc.offer_package = cell.offer_package;
    const update::lifetime_result lr = update::run_lifetime(lc);

    cell_result r;
    r.label = cell.label();
    r.ops = lr.beats;
    r.bytes = lc.image_bytes;
    r.total_cycles = lr.traffic_cycles + lr.update_cycles;
    r.updates_committed = lr.committed_new ? 1 : 0;
    r.updates_rolled_back = !lr.committed_new && lr.old_intact ? 1 : 0;
    r.torn_images = lr.torn ? 1 : 0;
    r.downgrade_breaches = lr.downgrade_blocked ? 0 : 1;
    r.dram_fnv = lr.dram_fingerprint;
    r.host_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
  }

  edu::secure_soc soc(cell.kind, cell_soc(cell));
  soc.load_image(0, cell_image(cell));
  const sim::workload w = cell_workload(cell);

  cell_result r;
  r.label = cell.label();
  switch (cell.drive) {
    case drive_mode::batched:
    case drive_mode::scalar: {
      const std::size_t batch = cell.drive == drive_mode::batched ? cell.batch_txns : 1;
      const sim::throughput_stats ts = soc.run_throughput(w, batch);
      r.ops = ts.ops;
      r.bytes = ts.bytes;
      r.total_cycles = ts.total_cycles;
      break;
    }
    case drive_mode::cpu: {
      const sim::run_stats rs = soc.run(w);
      r.ops = rs.instructions + rs.mem_ops;
      r.bytes = rs.bytes;
      r.total_cycles = rs.total_cycles;
      break;
    }
    case drive_mode::noc: {
      const std::vector<edu::master_desc> cast = noc_cast(cell);
      const edu::topology_run_stats ts = soc.run_topology(cast, noc_topology(cell));
      r.ops = ts.noc.bus.txns;
      r.bytes = ts.noc.bus.bytes;
      r.total_cycles = ts.noc.bus.total_cycles;
      break;
    }
    case drive_mode::lifetime:
      break; // handled above — never reaches the SoC drive
  }
  soc.flush();

  r.edu = soc.engine().stats();
  if (cell.kind == edu::engine_kind::inline_keyslot) {
    const engine::engine_stats& es =
        static_cast<edu::engine_edu&>(soc.engine()).engine().stats();
    r.integrity_faults = es.integrity_faults;
    r.domain_faults = es.domain_faults;
    r.firewall_denials = es.firewall_denials;
    r.fallbacks = es.fallbacks;
  }
  r.dram_fnv = fnv1a(soc.memory().raw());
  r.host_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

namespace {

/// Run every cell of \p cfg through \p run_one on the work-stealing pool.
/// Execution order is a pure scheduling choice: results land at their
/// cell's config index, so a shuffled run must be bit-identical to a
/// serial one — that is the property the determinism tests hammer.
template <class Result, class Config, class RunOne>
Result run_cells(const Config& cfg, RunOne run_one) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = cfg.cells.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (cfg.shuffle && n > 1) {
    rng shuffle_rng(cfg.shuffle_seed ^ 0x5F1EE7ULL);
    for (std::size_t i = n - 1; i > 0; --i) // Fisher-Yates, deterministic
      std::swap(order[i], order[shuffle_rng.below(i + 1)]);
  }

  Result out;
  out.cells.resize(n);
  out.pool = run_jobs(n, cfg.threads, [&](std::size_t i) {
    const std::size_t idx = order[i];
    out.cells[idx] = run_one(cfg.cells[idx]);
  });
  out.host_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

} // namespace

fleet_result run_fleet(const fleet_config& cfg) {
  return run_cells<fleet_result>(cfg, run_cell);
}

churn_fleet_result run_churn_fleet(const churn_fleet_config& cfg) {
  return run_cells<churn_fleet_result>(cfg, engine::run_churn);
}

u64 fleet_result::total_ops() const noexcept {
  u64 t = 0;
  for (const cell_result& c : cells) t += c.ops;
  return t;
}

u64 fleet_result::total_bytes() const noexcept {
  u64 t = 0;
  for (const cell_result& c : cells) t += c.bytes;
  return t;
}

cycles fleet_result::total_cycles() const noexcept {
  cycles t = 0;
  for (const cell_result& c : cells) t += c.total_cycles;
  return t;
}

double fleet_result::host_txns_per_sec() const noexcept {
  return host_ms <= 0.0 ? 0.0 : static_cast<double>(total_ops()) * 1000.0 / host_ms;
}

std::vector<fleet_cell> engine_matrix(std::size_t accesses, u64 seed) {
  std::vector<fleet_cell> cells;
  cells.reserve(edu::all_engines().size());
  for (const edu::engine_kind kind : edu::all_engines()) {
    fleet_cell c;
    c.kind = kind;
    c.accesses = accesses;
    c.seed = seed;
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<fleet_cell> engine_auth_matrix(std::size_t accesses, u64 seed) {
  constexpr engine::auth_mode modes[] = {
      engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
      engine::auth_mode::hash_tree};
  std::vector<fleet_cell> cells;
  cells.reserve(edu::all_engines().size() * 4);
  for (const edu::engine_kind kind : edu::all_engines()) {
    for (const engine::auth_mode mode : modes) {
      fleet_cell c;
      c.kind = kind;
      c.accesses = accesses;
      c.seed = seed;
      c.auth = mode;
      // AREA embeds its nonce inside the encrypted payload, so it rejects
      // pad-precomputable backends — the keyslot area cell runs aes-ecb.
      if (kind == edu::engine_kind::inline_keyslot && mode == engine::auth_mode::area)
        c.backend = "aes-ecb";
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

std::vector<fleet_cell> lifetime_matrix(std::size_t runs, u64 seed) {
  constexpr engine::auth_mode modes[] = {
      engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
      engine::auth_mode::hash_tree};
  std::vector<fleet_cell> cells;
  cells.reserve(std::size(sim::all_fault_points) * std::size(modes) * runs);
  for (const sim::fault_point point : sim::all_fault_points) {
    for (const engine::auth_mode mode : modes) {
      for (std::size_t i = 0; i < runs; ++i) {
        fleet_cell c;
        c.kind = edu::engine_kind::inline_keyslot;
        c.drive = drive_mode::lifetime;
        c.auth = mode;
        if (mode == engine::auth_mode::area) c.backend = "aes-ecb";
        c.inject = point;
        c.seed = seed + i;
        // Trigger placement, stall depth and the recovery path are all
        // seed-derived, so `runs` cells cut the protocol at `runs`
        // different places — randomized interruptions, reproducibly.
        rng r(c.seed ^ (static_cast<u64>(point) << 8) ^ static_cast<u64>(mode));
        switch (point) {
          case sim::fault_point::bus_beat:
          case sim::fault_point::bit_flip:
            c.inject_trigger = r.between(8, 6000);
            break;
          case sim::fault_point::flush:
            c.inject_trigger = r.below(3);
            break;
          case sim::fault_point::journal:
            c.inject_trigger = r.below(4);
            break;
          case sim::fault_point::bus_stall:
            c.inject_trigger = r.between(1, 10); // stall depth
            break;
          case sim::fault_point::none:
            break;
        }
        c.offer_package = r.chance(0.5);
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<fleet_cell> seed_sweep(fleet_cell proto, std::size_t n) {
  std::vector<fleet_cell> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet_cell c = proto;
    c.seed = proto.seed + i;
    cells.push_back(std::move(c));
  }
  return cells;
}

std::string fleet_json(const fleet_config& cfg, const fleet_result& r,
                       bool include_host) {
  std::string out;
  out.reserve(r.cells.size() * 256 + 512);
  char buf[512];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };

  out += "{\n  \"bench\": \"fleet\",\n";
  add("  \"cells\": %zu,\n", r.cells.size());
  if (include_host) {
    add("  \"threads\": %u,\n  \"steals\": %llu,\n  \"host_ms\": %.1f,\n"
        "  \"host_txns_per_sec\": %.0f,\n",
        r.pool.threads, static_cast<unsigned long long>(r.pool.steals), r.host_ms,
        r.host_txns_per_sec());
  }
  add("  \"total_ops\": %llu,\n  \"total_bytes\": %llu,\n"
      "  \"total_cycles\": %llu,\n  \"matrix\": [\n",
      static_cast<unsigned long long>(r.total_ops()),
      static_cast<unsigned long long>(r.total_bytes()),
      static_cast<unsigned long long>(r.total_cycles()));
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const fleet_cell& c = cfg.cells[i];
    const cell_result& cr = r.cells[i];
    add("    {\"cell\": \"%s\", \"engine\": \"%s\", \"traffic\": \"%s\", "
        "\"auth\": \"%s\", \"drive\": \"%s\", \"seed\": %llu, \"accesses\": %zu, ",
        cr.label.c_str(), std::string(edu::engine_name(c.kind)).c_str(),
        std::string(traffic_name(c.load)).c_str(),
        std::string(engine::auth_mode_name(c.auth)).c_str(),
        std::string(drive_mode_name(c.drive)).c_str(),
        static_cast<unsigned long long>(c.seed), c.accesses);
    add("\"ops\": %llu, \"bytes\": %llu, \"cycles\": %llu, "
        "\"bytes_per_cycle\": %.6f, \"integrity_faults\": %llu, "
        "\"domain_faults\": %llu, \"firewall_denials\": %llu, "
        "\"fallbacks\": %llu, \"dram_fnv\": \"%016llx\"",
        static_cast<unsigned long long>(cr.ops),
        static_cast<unsigned long long>(cr.bytes),
        static_cast<unsigned long long>(cr.total_cycles), cr.bytes_per_cycle(),
        static_cast<unsigned long long>(cr.integrity_faults),
        static_cast<unsigned long long>(cr.domain_faults),
        static_cast<unsigned long long>(cr.firewall_denials),
        static_cast<unsigned long long>(cr.fallbacks),
        static_cast<unsigned long long>(cr.dram_fnv));
    // Lifetime-only fields, emitted only for lifetime cells so the
    // committed BENCH_fleet.json stays byte-identical.
    if (c.drive == drive_mode::lifetime)
      add(", \"fault\": \"%s\", \"updates_committed\": %llu, "
          "\"updates_rolled_back\": %llu, \"torn_images\": %llu, "
          "\"downgrade_breaches\": %llu",
          std::string(sim::fault_point_name(c.inject)).c_str(),
          static_cast<unsigned long long>(cr.updates_committed),
          static_cast<unsigned long long>(cr.updates_rolled_back),
          static_cast<unsigned long long>(cr.torn_images),
          static_cast<unsigned long long>(cr.downgrade_breaches));
    if (include_host) add(", \"host_ms\": %.1f", cr.host_ms);
    out += i + 1 == r.cells.size() ? "}\n" : "},\n";
  }
  out += "  ]\n}\n";
  return out;
}

} // namespace buscrypt::fleet
