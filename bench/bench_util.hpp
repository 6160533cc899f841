#pragma once
/// \file bench_util.hpp
/// Shared helpers for the per-figure/per-table benchmark binaries.

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "edu/soc.hpp"
#include "sim/workload.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace buscrypt::bench {

/// Unified `--seed N` handling for every tab*/fig* main. Scans argv for
/// `--seed N` (decimal/hex per strtoull base 0), removes the pair so the
/// bench's own parser never sees it, and returns N (or \p def when the
/// flag is absent). Benches derive every internal seed from the returned
/// value such that the default reproduces the committed BENCH_*.json
/// byte-identically.
inline u64 seed_arg(int& argc, char** argv, u64 def = 0) {
  u64 seed = def;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<u64>(std::strtoull(argv[++i], nullptr, 0));
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  argv[argc] = nullptr;
  return seed;
}

/// The two options of the fleet-driven benches (tab10–tab13) besides
/// `--seed`: `--threads N` sizes the fleet pool (0 = hardware concurrency)
/// and `--json FILE` names the output. Anything else prints the usage and
/// exits 2.
struct fleet_args {
  unsigned threads = 0;
  const char* json_path = nullptr;
};

inline fleet_args parse_fleet_args(int argc, char** argv, const char* json_path) {
  fleet_args a;
  a.json_path = json_path;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--threads") == 0) {
      a.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      a.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--threads N] [--json FILE]\n", argv[0]);
      std::exit(2);
    }
  }
  return a;
}

/// Cells of a pooled fleet run that differ from the serial reference run
/// of the same config, each named on stderr. Any is a shared-state bug.
template <class FleetResult>
std::size_t fleet_mismatches(const FleetResult& serial, const FleetResult& pooled) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < serial.cells.size(); ++i)
    if (!pooled.cells[i].sim_equal(serial.cells[i])) {
      ++n;
      std::fprintf(stderr, "MISMATCH %s: fleet run diverged from serial run\n",
                   serial.cells[i].label.c_str());
    }
  return n;
}

/// The structural claims a bench makes about its own results (a speedup
/// floor, a detection matrix, an accounting identity). A claim that does
/// not hold is printed to stderr; main writes its JSON anyway and returns
/// status(), so a broken claim exits 1 with the evidence on disk.
class claims {
 public:
  void check(bool holds, const std::string& claim) {
    if (holds) return;
    ok_ = false;
    std::fprintf(stderr, "CLAIM FAILED: %s\n", claim.c_str());
  }

  [[nodiscard]] int status() const { return ok_ ? 0 : 1; }

 private:
  bool ok_ = true;
};

/// Synthetic firmware image: word-aligned with the distribution real
/// instruction streams show — a heavily skewed opcode (high) half and
/// small, repetitive immediates (low half). The corpus every experiment
/// installs.
inline bytes firmware_image(std::size_t size, u64 seed) {
  rng r(seed);
  bytes img(size);
  static constexpr u16 opcodes[] = {0xE592, 0xE583, 0x4770, 0xB510,
                                    0x2000, 0xF000, 0x6800, 0x6001,
                                    0xE1A0, 0xE3A0, 0xEB00, 0xE59F};
  for (std::size_t off = 0; off + 4 <= size; off += 4) {
    // Zipf-ish opcode pick: low indices far more common.
    const u16 hi = opcodes[r.below(r.below(12) + 1)];
    u16 lo;
    if (r.chance(0.70)) lo = static_cast<u16>(r.below(256));       // small imm
    else if (r.chance(0.5)) lo = static_cast<u16>(r.below(4096));  // offsets
    else lo = static_cast<u16>(r.next_u32());                      // addresses
    store_le32(&img[off], (u32{hi} << 16) | lo);
  }
  return img;
}

/// The default SoC geometry used across experiments (embedded-class).
inline edu::soc_config default_soc() {
  edu::soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  return cfg;
}

/// Build a SoC with \p kind, install \p image at 0 (and a zeroed data
/// region at 1 MiB), run \p w, return the stats.
inline sim::run_stats run_engine(edu::engine_kind kind, const sim::workload& w,
                                 const bytes& image,
                                 const edu::soc_config& cfg = default_soc()) {
  edu::secure_soc soc(kind, cfg);
  soc.load_image(0, image);
  if (w.footprint > 0) soc.load_image(1 << 20, bytes(std::min<std::size_t>(w.footprint, 2u << 20), 0));
  return soc.run(w);
}

/// Print a section header for a reproduced figure/table.
inline void banner(const std::string& title, const std::string& paper_anchor) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces: %s)\n\n", paper_anchor.c_str());
}

/// Host wall-clock timer for the simulator-speed fields every BENCH_*.json
/// carries alongside its simulated bytes/cycle: "host_ms" (wall time) and
/// "host_ops_per_sec" (simulated port operations retired per host second).
/// Simulated results are deterministic; every machine-dependent field is
/// named host_*, and same_sim.py ignores exactly those.
class host_timer {
 public:
  host_timer() : t0_(std::chrono::steady_clock::now()) {}

  /// Milliseconds elapsed since construction.
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Simulated operations per host second (0 when the clock saw no time).
[[nodiscard]] inline double host_ops_per_sec(u64 ops, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(ops) * 1000.0 / ms;
}

} // namespace buscrypt::bench
