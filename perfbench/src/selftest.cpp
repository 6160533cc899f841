// perfbench_selftest — checks the benchmark's own machinery:
//  1. the probes (traced registry, timed ports) and the traced replays leave
//     every simulated field and the DRAM fingerprint of all three workloads
//     unchanged, at small sizes;
//  2. a deliberately corrupted result — one flipped DRAM byte, a torn
//     lifetime, a broken keyslot sum rule — is counted as a failed op.
// Exits 0 when every check passes, 1 otherwise.
//
//   python3 perfbench/run.py --selftest

#include "workloads.hpp"

#include "edu/engine_edu.hpp"
#include "probes.hpp"

#include <algorithm>
#include <cstdio>

namespace {

using namespace buscrypt;
using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

constexpr u64 k_seed = 7;

void storm_replay_matches() {
  const engine::backend_registry registry = traced_registry();
  const std::vector<engine::churn_config> cells = storm_cells(k_seed, 2'000, 1'500);
  bool all_equal = true;
  tracer t(0, clock::now(), 1'000);
  for (const engine::churn_config& c : cells) {
    const engine::churn_result want = engine::run_churn(c);
    engine::churn_result got;
    {
      const tracer_scope scope(&t);
      got = traced_churn(c, registry);
    }
    all_equal = all_equal && got.sim_equal(want);
  }
  expect(all_equal, "ctx_storm: traced replay == run_churn on all 16 cells");
  trace_summary sum;
  sum.add(t);
  expect(sum[span_kind::keyslot_acquire].calls == 16 * 1'500 &&
             sum[span_kind::backend_make_keyed].calls > 0,
         "ctx_storm: spans recorded at the keyslot and backend boundaries");

  std::vector<engine::churn_result> got;
  for (const engine::churn_config& c : cells) got.push_back(engine::run_churn(c));
  outcome clean;
  check_storm_round(cells, got, got, "clean", clean);
  std::vector<engine::churn_result> bad = got;
  ++bad[3].slots.hits; // breaks acquires == hits + cold + reprograms + denials
  outcome broken;
  check_storm_round(cells, got, bad, "corrupted", broken);
  expect(clean.failed == 0 && broken.failed == cells[3].ops && broken.attempted == clean.attempted,
         "ctx_storm: a broken sum rule fails that cell's ops");
}

void stream_replay_matches() {
  const sim::workload w = mixed_heavy(4'000, 64 * 1024, k_seed);
  const bytes image = stream_image(256 * 1024, k_seed);
  const stream_result plain = run_stream(w, image, k_seed, false);
  const stream_result sealed = run_stream(w, image, k_seed, true);

  const engine::backend_registry registry = traced_registry();
  tracer t(0, clock::now(), 1'000);
  stream_result traced;
  {
    const tracer_scope scope(&t);
    traced = traced_stream(w, image, k_seed, registry);
  }
  expect(traced.sim_equal(sealed) && traced.dram_fnv == sealed.dram_fnv,
         "sealed_stream: probes leave every simulated field and the DRAM fingerprint unchanged");
  trace_summary sum;
  sum.add(t);
  expect(sum[span_kind::engine_call].calls > 0 && sum[span_kind::sim_port].calls > 0 &&
             sum[span_kind::crypto_pad].calls > 0 && traced.counters.tag_bytes > 0 &&
             traced.counters.data_bytes > 0,
         "sealed_stream: spans at the engine, crypto and sim boundaries; tag bytes split out");

  double setup_s = 0.0, run_s = 0.0;
  const std::vector<stream_result> copies = run_stream_copies(w, image, k_seed, 3, setup_s, run_s);
  expect(copies.size() == 3 && copies[0].sim_equal(sealed) && copies[2].sim_equal(sealed) &&
             setup_s > 0.0 && run_s > 0.0,
         "sealed_stream: side-by-side copies reproduce the single run");

  outcome clean;
  check_stream_round(sealed, sealed, plain, "clean", clean);
  expect(clean.failed == 0 && clean.attempted == sealed.ts.ops,
         "sealed_stream: a clean run passes its checks");

  // One flipped ciphertext byte in DRAM: the MAC catches it on read-back.
  edu::secure_soc soc(edu::engine_kind::inline_keyslot, stream_soc(k_seed, true));
  soc.load_image(0, image);
  (void)soc.run_throughput(w, 16);
  soc.memory().raw()[4096 + 5] ^= 0x40;
  stream_result flipped = sealed;
  flipped.read_back = soc.read_back(0, flipped.read_back.size());
  flipped.counters.engine = static_cast<edu::engine_edu&>(soc.engine()).engine().stats();
  outcome broken;
  check_stream_round(flipped, sealed, plain, "flipped", broken);
  expect(broken.failed == sealed.ts.ops, "sealed_stream: one flipped DRAM byte fails the round");

  stream_result leaked = sealed;
  std::copy_n(plain.dram.begin() + 64, 32, leaked.dram.begin() + 64);
  outcome leak;
  check_stream_round(leaked, sealed, plain, "leaked", leak);
  expect(leak.failed == sealed.ts.ops, "sealed_stream: a plaintext line in DRAM fails the round");
}

void lifetime_replay_matches() {
  std::vector<fleet::fleet_cell> cells = lifetime_cells(k_seed, 1);
  const engine::backend_registry registry = traced_registry();
  std::vector<fleet::cell_result> want, got;
  tracer t(0, clock::now(), 1'000);
  for (const fleet::fleet_cell& c : cells) {
    want.push_back(fleet::run_cell(c));
    lifetime_probe probe;
    const tracer_scope scope(&t);
    got.push_back(traced_lifetime(c, registry, probe));
  }
  bool all_equal = true;
  for (std::size_t i = 0; i < cells.size(); ++i)
    all_equal = all_equal && got[i].sim_equal(want[i]);
  expect(all_equal, "update_lifetime: traced replay == run_cell on every fault x auth cell");
  trace_summary sum;
  sum.add(t);
  expect(sum[span_kind::update_apply].calls >= cells.size() &&
             sum[span_kind::crypto_rsa_generate].calls == cells.size() &&
             sum[span_kind::sim_port].calls > 0,
         "update_lifetime: spans at the update, crypto and sim boundaries");

  outcome clean;
  check_lifetime_round(want, want, "clean", clean);
  std::vector<fleet::cell_result> torn = want;
  torn[5].torn_images = 1;
  torn[5].updates_committed = 0;
  torn[5].updates_rolled_back = 0;
  outcome broken;
  check_lifetime_round(torn, want, "torn", broken);
  expect(clean.failed == 0 && broken.failed == 1 && broken.attempted == cells.size(),
         "update_lifetime: a torn lifetime is one failed op");
}

} // namespace

int main() {
  storm_replay_matches();
  stream_replay_matches();
  lifetime_replay_matches();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
