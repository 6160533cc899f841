// Authenticated memory for the keyslot engine: the mac / area / hash-tree
// schemes of engine::memory_authenticator — tamper detection (replay,
// relocation, spoof) across backends, zero false faults on clean runs,
// scalar-vs-batched equivalence with tag traffic riding the batches, AREA's
// zero-extra-beats property, per-master integrity-fault attribution, and
// auth_mode=none staying cycle-identical to the unauthenticated engine.

#include "attack/tamper.hpp"
#include "common/rng.hpp"
#include "edu/engine_edu.hpp"
#include "edu/soc.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/memory_authenticator.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

namespace buscrypt::engine {
namespace {

constexpr addr_t k_window = 64 * 1024;
constexpr addr_t k_tag_base = 6u << 20;

auth_config small_auth(auth_mode mode, addr_t window = k_window) {
  auth_config a;
  a.mode = mode;
  a.key = bytes(16, 0x5A);
  a.base = 0;
  a.limit = window;
  a.tag_base = k_tag_base;
  return a;
}

/// A bare engine over raw DRAM: one context over [0, 1 MiB), optionally
/// authenticated over [0, k_window).
struct rig {
  sim::dram chip{8u << 20};
  sim::external_memory ext{chip};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
  bus_encryption_engine::context_id ctx;

  explicit rig(const std::string& backend, auth_mode mode = auth_mode::none,
               std::size_t du = 32) {
    rng r(0xA17);
    // Smallest key length the backend accepts (trivium wants 10, DES 8, ...).
    const cipher_backend& b = backend_registry::builtin().at(backend);
    std::size_t key_len = 16;
    for (std::size_t len = 1; len <= 32; ++len)
      if (b.key_len_ok(len)) {
        key_len = len;
        break;
      }
    ctx = eng.create_context({backend, r.random_bytes(key_len), du});
    eng.map_region(0, 1u << 20, ctx);
    if (mode != auth_mode::none) (void)eng.attach_auth(ctx, small_auth(mode));
  }

  memory_authenticator& auth() { return *eng.auth_of(ctx); }
};

bytes pattern(std::size_t n, u8 seed) {
  bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(seed + i * 13);
  return out;
}

std::string case_name(std::string backend, auth_mode mode) {
  return backend + "/" + std::string(auth_mode_name(mode));
}

// --- attach validation ------------------------------------------------------

TEST(AuthAttach, AreaRequiresBlockDiffusion) {
  // CTR and stream pads XOR bit-for-bit: a flipped ciphertext bit flips one
  // plaintext bit and no nonce slice — AREA must refuse them.
  for (const char* backend : {"aes-ctr", "3des-ctr", "rc4-stream", "trivium-stream"}) {
    rig r(backend);
    EXPECT_THROW((void)r.eng.attach_auth(r.ctx, small_auth(auth_mode::area)),
                 std::invalid_argument)
        << backend;
  }
  // Diffusing block modes are in (3des's 8-byte granule needs a smaller
  // redundancy share — the nonce must leave data capacity per block).
  for (const char* backend : {"aes-ecb", "aes-cbc", "3des-cbc"}) {
    rig r(backend);
    auth_config a = small_auth(auth_mode::area);
    a.tag_bytes = 4;
    EXPECT_NO_THROW((void)r.eng.attach_auth(r.ctx, a)) << backend;
  }
  {
    rig r("3des-cbc");
    EXPECT_THROW((void)r.eng.attach_auth(r.ctx, small_auth(auth_mode::area)),
                 std::invalid_argument)
        << "8-byte redundancy must not consume the whole 8-byte DES block";
  }
}

TEST(AuthAttach, ValidatesGeometryAndLifecycle) {
  rig r("aes-ctr");
  auth_config bad = small_auth(auth_mode::mac);
  bad.mode = auth_mode::none;
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, bad), std::invalid_argument);

  bad = small_auth(auth_mode::mac);
  bad.key.clear();
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, bad), std::invalid_argument);

  bad = small_auth(auth_mode::mac);
  bad.base = 7; // not unit aligned
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, bad), std::invalid_argument);

  bad = small_auth(auth_mode::mac);
  bad.tag_base = k_window / 2; // tag region inside the window
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, bad), std::invalid_argument);

  bad = small_auth(auth_mode::hash_tree);
  bad.tree_arity = 1;
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, bad), std::invalid_argument);

  EXPECT_NO_THROW((void)r.eng.attach_auth(r.ctx, small_auth(auth_mode::mac)));
  EXPECT_THROW((void)r.eng.attach_auth(r.ctx, small_auth(auth_mode::mac)),
               std::invalid_argument)
      << "second attach must be rejected";
  EXPECT_THROW((void)r.eng.attach_auth(99, small_auth(auth_mode::mac)),
               std::out_of_range);
}

// --- tamper-detection matrix ------------------------------------------------
// replay, relocation (splice) and spoof against every scheme x the CTR and
// ECB keyslot backends (AREA only composes with the diffusing ECB mode —
// its CTR pairing is the rejection asserted above).

class TamperMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, auth_mode>> {};

TEST_P(TamperMatrix, DetectsReplayRelocationSpoof) {
  const auto& [backend, mode] = GetParam();
  rig r(backend, mode);
  const auto rep = attack::run_engine_tamper_suite(r.eng, r.chip, 0x1000, 0x2000);
  EXPECT_FALSE(rep.clean_faulted) << "false fault on a clean round trip";
  EXPECT_TRUE(rep.spoof_detected);
  EXPECT_TRUE(rep.splice_detected);
  EXPECT_TRUE(rep.replay_detected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TamperMatrix,
    ::testing::Values(std::tuple{"aes-ctr", auth_mode::mac},
                      std::tuple{"aes-ecb", auth_mode::mac},
                      std::tuple{"aes-ctr", auth_mode::hash_tree},
                      std::tuple{"aes-ecb", auth_mode::hash_tree},
                      std::tuple{"aes-ecb", auth_mode::area}),
    [](const ::testing::TestParamInfo<TamperMatrix::ParamType>& info) {
      std::string n = std::get<0>(info.param) + "_" +
                      std::string(auth_mode_name(std::get<1>(info.param)));
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(TamperMatrix, UnauthenticatedEngineCatchesNothing) {
  rig r("aes-ctr");
  const auto rep = attack::run_engine_tamper_suite(r.eng, r.chip, 0x1000, 0x2000);
  EXPECT_FALSE(rep.clean_faulted);
  EXPECT_FALSE(rep.spoof_detected);
  EXPECT_FALSE(rep.splice_detected);
  EXPECT_FALSE(rep.replay_detected);
}

// --- clean runs never fault -------------------------------------------------

class AuthCleanRun
    : public ::testing::TestWithParam<std::tuple<std::string, auth_mode>> {};

TEST_P(AuthCleanRun, FullSocWorkloadRoundTripsWithZeroFaults) {
  const auto& [backend, mode] = GetParam();
  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.keyslot_backend = backend;
  cfg.keyslot_auth = mode;
  cfg.keyslot_auth_limit = k_window;
  edu::secure_soc soc(edu::engine_kind::inline_keyslot, cfg);
  rng r(0x5EED);
  const bytes image = r.random_bytes(48 * 1024);
  soc.load_image(0, image);

  const sim::workload w = sim::make_data_rw(6'000, 32 * 1024, 0.5, 0.4, 8, 0x1A);
  (void)soc.run(w);
  auto& adapter = static_cast<edu::engine_edu&>(soc.engine());
  EXPECT_EQ(adapter.engine().stats().integrity_faults, 0u);
  if (mode != auth_mode::none) {
    EXPECT_EQ(adapter.auth()->stats().faults, 0u);
    EXPECT_GT(adapter.auth()->stats().verifies, 0u);
  }
  EXPECT_EQ(soc.read_back(0, image.size()), image)
      << "authenticated writes must remain readable";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AuthCleanRun,
    ::testing::Values(std::tuple{"aes-ctr", auth_mode::none},
                      std::tuple{"aes-ctr", auth_mode::mac},
                      std::tuple{"aes-ctr", auth_mode::hash_tree},
                      std::tuple{"aes-ecb", auth_mode::mac},
                      std::tuple{"aes-ecb", auth_mode::area},
                      std::tuple{"aes-ecb", auth_mode::hash_tree}),
    [](const ::testing::TestParamInfo<AuthCleanRun::ParamType>& info) {
      std::string n = std::get<0>(info.param) + "_" +
                      std::string(auth_mode_name(std::get<1>(info.param)));
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

// --- scalar vs batched equivalence under authentication ----------------------
// The batch path stages tag writes and tag fetches onto the same lower
// submissions; whatever the overlap, the bytes in DRAM — data AND tags —
// must match a scalar issue of the same stream, and nothing may fault.

class AuthBatchEquivalenceSweep : public ::testing::TestWithParam<
                                      std::tuple<std::string, auth_mode>> {};

TEST_P(AuthBatchEquivalenceSweep, BatchedMatchesScalarBytesAndNeverFaults) {
  const auto& [backend, mode] = GetParam();
  sim::workload w = sim::make_streaming(3'000, k_window, 3, 0xB47C);
  sim::workload j = sim::make_jumpy_code(3'000, k_window, 0.2, 0xB47D);
  w.accesses.insert(w.accesses.end(), j.accesses.begin(), j.accesses.end());

  auto run = [&](std::size_t batch) {
    edu::soc_config cfg;
    cfg.mem_timing.banks = 4;
    cfg.keyslot_backend = backend;
    cfg.keyslot_auth = mode;
    cfg.keyslot_auth_limit = k_window;
    auto soc = std::make_unique<edu::secure_soc>(edu::engine_kind::inline_keyslot, cfg);
    rng r(0x1337);
    soc->load_image(0, r.random_bytes(k_window));
    const auto st = soc->run_throughput(w, batch);
    auto& adapter = static_cast<edu::engine_edu&>(soc->engine());
    EXPECT_EQ(adapter.engine().stats().integrity_faults, 0u);
    return std::pair{st, bytes(soc->memory().raw().begin(), soc->memory().raw().end())};
  };

  const auto [scalar, scalar_mem] = run(1);
  const auto [batched, batched_mem] = run(16);
  EXPECT_EQ(scalar_mem, batched_mem)
      << "batched issue must leave identical data AND tag bytes in DRAM";
  EXPECT_LE(batched.total_cycles, scalar.total_cycles)
      << "riding tags on the batch must never cost more than scalar issue";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AuthBatchEquivalenceSweep,
    ::testing::Values(std::tuple{"aes-ctr", auth_mode::mac},
                      std::tuple{"aes-ecb", auth_mode::mac},
                      std::tuple{"aes-ecb", auth_mode::area},
                      std::tuple{"aes-ctr", auth_mode::hash_tree}),
    [](const ::testing::TestParamInfo<AuthBatchEquivalenceSweep::ParamType>& info) {
      std::string n = std::get<0>(info.param) + "_" +
                      std::string(auth_mode_name(std::get<1>(info.param)));
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

// --- auth_mode=none stays cycle-identical to the PR 3 engine ------------------

TEST(AuthNoneSweep, DefaultConfigIsCycleIdenticalAcrossEngines) {
  // The auth axis must be inert when unset: every engine's default
  // construction (keyslot_auth = none) costs exactly what an explicitly
  // none-configured SoC costs, workload for workload.
  const sim::workload w = sim::make_jumpy_code(2'000, 64 * 1024, 0.1, 0x99);
  for (const edu::engine_kind kind : edu::all_engines()) {
    edu::soc_config base;
    edu::soc_config explicit_none;
    explicit_none.keyslot_auth = auth_mode::none;
    explicit_none.keyslot_backend.clear();
    // Compressible content: the compress_otp engine must fit its groups.
    bytes image(64 * 1024);
    for (std::size_t i = 0; i < image.size(); ++i)
      image[i] = static_cast<u8>((i / 64) & 0x0F);

    edu::secure_soc a(kind, base);
    a.load_image(0, image);
    edu::secure_soc b(kind, explicit_none);
    b.load_image(0, image);
    const auto sa = a.run_throughput(w, 8);
    const auto sb = b.run_throughput(w, 8);
    EXPECT_EQ(sa.total_cycles, sb.total_cycles) << edu::engine_name(kind);
    EXPECT_EQ(sa.bytes, sb.bytes) << edu::engine_name(kind);
  }
}

TEST(AuthNoneSweep, AuthOnDisjointContextLeavesPlainTrafficUntouched) {
  // Attaching auth to a *different* context must not change a single cycle
  // of traffic through an unauthenticated one.
  rng r(0xD15);
  const bytes key2 = r.random_bytes(16);

  auto drive = [&](bool with_auth) {
    rig rg("aes-ctr");
    const auto ctx2 = rg.eng.create_context({"aes-ecb", key2, 32});
    rg.eng.map_region(2u << 20, 64 * 1024, ctx2);
    if (with_auth) {
      auth_config a = small_auth(auth_mode::mac);
      a.base = 2u << 20;
      a.limit = (2u << 20) + 64 * 1024;
      (void)rg.eng.attach_auth(ctx2, a);
    }
    const bytes img = pattern(32, 0x21);
    cycles t = 0;
    for (addr_t at = 0; at < 16 * 1024; at += 32)
      t += rg.eng.write(at, img);
    bytes buf(32);
    for (addr_t at = 0; at < 16 * 1024; at += 32)
      t += rg.eng.read(at, buf);
    return t;
  };
  EXPECT_EQ(drive(false), drive(true));
}

// --- per-master integrity-fault attribution ----------------------------------

TEST(AuthFaults, BatchedTamperIsChargedToTheIssuingMaster) {
  // mac's tag compare and AREA's nonce check inside the block cipher's
  // diffusion (hash-tree units take the scalar datapath).
  for (const auto& [backend, mode] :
       {std::pair{"aes-ctr", auth_mode::mac}, std::pair{"aes-ecb", auth_mode::area}}) {
    rig r(backend, mode);
    const bytes img = pattern(32, 0x42);
    (void)r.eng.write(0x1000, img);

    r.chip.raw()[0x1000 + 5] ^= 0x80; // spoof behind the engine's back
    r.auth().drop_caches();

    bytes buf(32);
    sim::mem_txn txn = sim::mem_txn::read_of(1, 0x1000, buf);
    txn.master = 3;
    r.eng.submit(std::span<sim::mem_txn>(&txn, 1));
    (void)r.eng.drain();

    const std::string name = case_name(backend, mode);
    EXPECT_EQ(r.eng.stats().batch_native, 1u) << name;
    EXPECT_EQ(r.eng.stats().integrity_faults, 1u) << name;
    EXPECT_EQ(r.eng.domain(3).integrity_faults, 1u) << name;
    EXPECT_EQ(r.eng.domain(sim::cpu_master).integrity_faults, 0u) << name;
    EXPECT_EQ(buf, bytes(32, bus_encryption_engine::fault_fill))
        << name << ": a tampered unit must surface the bus-error fill, never plaintext";
  }
}

TEST(AuthFaults, ScalarTamperFillsAndCounts) {
  for (const auto& [backend, mode] :
       {std::pair{"aes-ctr", auth_mode::mac}, std::pair{"aes-ctr", auth_mode::hash_tree},
        std::pair{"aes-ecb", auth_mode::area}}) {
    const std::string name = case_name(backend, mode);
    rig r(backend, mode);
    const bytes img = pattern(32, 0x42);
    (void)r.eng.write(0x2000, img);
    r.chip.raw()[0x2000] ^= 1;
    r.auth().drop_caches();
    bytes buf(32);
    (void)r.eng.read(0x2000, buf);
    EXPECT_EQ(r.eng.stats().integrity_faults, 1u) << name;
    EXPECT_EQ(r.eng.domain(sim::cpu_master).integrity_faults, 1u) << name;
    EXPECT_EQ(buf, bytes(32, bus_encryption_engine::fault_fill)) << name;
    // Repair: a fresh write re-seals the unit, the engine recovers.
    (void)r.eng.write(0x2000, img);
    (void)r.eng.read(0x2000, buf);
    EXPECT_EQ(buf, img) << name;
  }
}

TEST(AuthFaults, MixedBatchTagLineFetchDoesNotInstallStaleTags) {
  // One flush: a read whose tag-line fetch rides the batch, then a write
  // whose new tag packs into the SAME 64-byte tag line. The fetch is
  // ordered before the tag store, so the line it returns is stale for the
  // written unit — installing it verbatim would make the next read of
  // that unit false-fault against the bumped version.
  rig r("aes-ctr", auth_mode::mac);
  const bytes img_a = pattern(32, 0x01);
  const bytes img_b = pattern(32, 0x02);
  (void)r.eng.write(0x000, img_a); // tags of 0x000 and 0x020 share a tag line
  (void)r.eng.write(0x020, img_b);
  r.auth().drop_caches();

  bytes buf_a(32), new_b = pattern(32, 0x03), buf_b(32);
  sim::mem_txn txns[3] = {sim::mem_txn::read_of(1, 0x000, buf_a),
                          sim::mem_txn::write_of(2, 0x020, new_b),
                          sim::mem_txn::read_of(3, 0x020, buf_b)};
  r.eng.submit(txns);
  (void)r.eng.drain();
  EXPECT_EQ(buf_a, img_a);
  EXPECT_EQ(buf_b, new_b) << "in-flush read-after-write must forward the staged tag";

  bytes again(32);
  (void)r.eng.read(0x020, again); // hits whatever the flush left in the tag cache
  EXPECT_EQ(r.eng.stats().integrity_faults, 0u)
      << "a stale fetched tag line must not shadow the staged tag";
  EXPECT_EQ(again, new_b);
}

TEST(AuthFaults, AreaBatchReadBeforeWriteOfSameUnitUsesStagedState) {
  // One batch: read unit X, then write unit X. The read's data arrives
  // from before the write (functional order), so its unseal must use the
  // version and sideband snapshotted at staging — the write's bumped
  // version / new sideband belong to the new ciphertext only.
  rig r("aes-ecb", auth_mode::area);
  const bytes old_img = pattern(32, 0x44);
  (void)r.eng.write(0x1000, old_img);

  bytes buf(32), new_img = pattern(32, 0x55);
  sim::mem_txn txns[2] = {sim::mem_txn::read_of(1, 0x1000, buf),
                          sim::mem_txn::write_of(2, 0x1000, new_img)};
  r.eng.submit(txns);
  (void)r.eng.drain();

  EXPECT_EQ(r.eng.stats().integrity_faults, 0u)
      << "an untampered read staged before a write of the same unit must not fault";
  EXPECT_EQ(buf, old_img) << "the read precedes the write in functional order";
  bytes after(32);
  (void)r.eng.read(0x1000, after);
  EXPECT_EQ(after, new_img);
  EXPECT_EQ(r.eng.stats().integrity_faults, 0u);
}

TEST(AuthHashTree, ReplayedSiblingIsNeverLaunderedIntoTheRoot) {
  // Roll line B and its leaf node back to a stale-but-authentic pair, then
  // have the victim write B's tree sibling A. The update walk sees a path
  // that cannot meet the on-chip root and must REFUSE the rebuild — if it
  // proceeded, the stale sibling digest would be hashed into the new root
  // and the replayed line B would verify clean ever after.
  rig r("aes-ctr", auth_mode::hash_tree);
  const bytes img_a = pattern(32, 0x0A);
  (void)r.eng.write(0x1000, img_a);
  (void)r.eng.write(0x1020, pattern(32, 0x0B)); // stale state to roll back to

  const u64 leaf_b = 0x1020 / 32;
  bytes stale_ct(32), stale_leaf(r.auth().config().tag_bytes);
  r.chip.read_bytes(0x1020, stale_ct);
  r.chip.read_bytes(r.auth().node_addr(0, leaf_b), stale_leaf);

  (void)r.eng.write(0x1020, pattern(32, 0x0C)); // current value; root moves on

  r.chip.write_bytes(0x1020, stale_ct); // the attacker's rollback of B
  r.chip.write_bytes(r.auth().node_addr(0, leaf_b), stale_leaf);
  r.auth().drop_caches();

  const u64 before = r.eng.stats().integrity_faults;
  (void)r.eng.write(0x1000, pattern(32, 0x0D)); // victim writes the sibling
  EXPECT_GT(r.eng.stats().integrity_faults, before)
      << "the refused update must be visible as a write-path fault";

  bytes buf(32);
  (void)r.eng.read(0x1020, buf);
  EXPECT_EQ(buf, bytes(32, bus_encryption_engine::fault_fill))
      << "the replayed line must still read as tampered after the sibling write";
}

// --- tag cache / tree node cache ----------------------------------------------

TEST(AuthTagCache, HotLinesVerifyWithoutExtraBusTraffic) {
  rig r("aes-ctr", auth_mode::mac);
  const bytes img = pattern(32, 0x10);
  (void)r.eng.write(0x3000, img);
  bytes buf(32);
  (void)r.eng.read(0x3000, buf); // warm (store_tag kept the line cached? no: miss)
  const auto& st = r.auth().stats();
  const u64 misses_after_first = st.tag_misses;
  const u64 bus_reads_after_first = st.tag_bus_reads;
  for (int i = 0; i < 8; ++i) (void)r.eng.read(0x3000, buf);
  EXPECT_EQ(st.tag_misses, misses_after_first) << "hot line must hit the tag cache";
  EXPECT_EQ(st.tag_bus_reads, bus_reads_after_first);
  EXPECT_GE(st.tag_hits, 8u);
  EXPECT_EQ(buf, img);
}

TEST(AuthTagCache, TreeWalkTerminatesEarlyAtTrustedNodes) {
  rig r("aes-ctr", auth_mode::hash_tree);
  const bytes img = pattern(32, 0x31);
  (void)r.eng.write(0x4000, img);
  bytes buf(32);
  (void)r.eng.read(0x4000, buf);
  const u64 walked_first = r.auth().stats().nodes_walked;
  (void)r.eng.read(0x4000, buf);
  // Second walk stops at the cached leaf: exactly one level visited.
  EXPECT_EQ(r.auth().stats().nodes_walked, walked_first + 1);
  EXPECT_EQ(buf, img);
}

TEST(AuthTagCache, SurvivesPowerCycleViaOnChipState) {
  for (const auth_mode mode : {auth_mode::mac, auth_mode::area, auth_mode::hash_tree}) {
    rig r("aes-ecb", mode);
    const bytes img = pattern(32, 0x66);
    (void)r.eng.write(0x5000, img);
    r.auth().drop_caches(); // power cycle: caches are volatile, root/versions NVM
    bytes buf(32);
    (void)r.eng.read(0x5000, buf);
    EXPECT_EQ(r.eng.stats().integrity_faults, 0u) << auth_mode_name(mode);
    EXPECT_EQ(buf, img) << auth_mode_name(mode);
  }
}

// --- AREA specifics -----------------------------------------------------------

TEST(AuthArea, ZeroExtraBusBeatsVersusUnauthenticated) {
  auto beats_for = [&](auth_mode mode) {
    rig r("aes-ecb", mode);
    const bytes img = pattern(32, 0x55);
    const u64 start = r.ext.beats();
    bytes buf(32);
    for (addr_t at = 0; at < 8 * 1024; at += 32) (void)r.eng.write(at, img);
    for (addr_t at = 0; at < 8 * 1024; at += 32) (void)r.eng.read(at, buf);
    return r.ext.beats() - start;
  };
  const u64 plain = beats_for(auth_mode::none);
  EXPECT_EQ(beats_for(auth_mode::area), plain)
      << "AREA's redundancy rides the widened burst: zero extra beats";
  EXPECT_GT(beats_for(auth_mode::mac), plain) << "mac pays tag beats";
}

TEST(AuthArea, RedundancyExpandsStoredBytesNotTraffic) {
  rig r("aes-ecb", auth_mode::area);
  // 8-byte redundancy in 16-byte AES blocks: 32-byte units store 4 blocks.
  EXPECT_EQ(r.auth().area_stored_bytes(16), 64u);
  EXPECT_EQ(r.auth().tag_memory_bytes(), 0u) << "no tag region for AREA";
  const bytes img = pattern(32, 0x3C);
  (void)r.eng.write(0x1000, img);
  ASSERT_NE(r.auth().area_sideband(0x1000), nullptr);
  EXPECT_EQ(r.auth().area_sideband(0x1000)->size(), 32u);
}

// --- partial-unit writes (RMW) under auth -------------------------------------

TEST(AuthRmw, SubUnitWritesReVerifyAndReSeal) {
  for (const auth_mode mode : {auth_mode::mac, auth_mode::area, auth_mode::hash_tree}) {
    rig r("aes-ecb", mode);
    bytes base_img = pattern(64, 0x70);
    (void)r.eng.write(0x1000, base_img);
    const bytes patch = pattern(8, 0xEE);
    (void)r.eng.write(0x1000 + 28, patch); // straddles two units
    bytes expect = base_img;
    std::copy(patch.begin(), patch.end(), expect.begin() + 28);
    bytes buf(64);
    (void)r.eng.read(0x1000, buf);
    EXPECT_EQ(buf, expect) << auth_mode_name(mode);
    EXPECT_EQ(r.eng.stats().integrity_faults, 0u) << auth_mode_name(mode);
    EXPECT_GE(r.eng.stats().rmw_ops, 2u) << auth_mode_name(mode);
  }
}

TEST(AuthRmw, SubUnitWriteIntoTamperedUnit) {
  // A partial write whose RMW fetch fails verification merges the patch
  // into the bus-error fill, not into the attacker's bytes, and re-seals
  // that: the unit reads back as fill around the patch, and only the RMW
  // fetch faults.
  for (const auth_mode mode : {auth_mode::mac, auth_mode::area, auth_mode::hash_tree}) {
    rig r("aes-ecb", mode);
    (void)r.eng.write(0x3000, pattern(32, 0x31));
    r.chip.raw()[0x3000 + 3] ^= 0x10;
    r.auth().drop_caches();

    const bytes patch = pattern(4, 0xC0);
    (void)r.eng.write(0x3000 + 8, patch);
    bytes expect(32, bus_encryption_engine::fault_fill);
    std::copy(patch.begin(), patch.end(), expect.begin() + 8);
    bytes buf(32);
    (void)r.eng.read(0x3000, buf);
    EXPECT_EQ(buf, expect) << auth_mode_name(mode);
    EXPECT_EQ(r.eng.stats().integrity_faults, 1u) << auth_mode_name(mode);
    EXPECT_EQ(r.eng.stats().rmw_ops, 1u) << auth_mode_name(mode);
  }
}

// --- offline install path ------------------------------------------------------

TEST(AuthInstall, OfflineImageInstallKeepsSchemesConsistent) {
  for (const auth_mode mode : {auth_mode::mac, auth_mode::area, auth_mode::hash_tree}) {
    rig r("aes-ecb", mode);
    rng rr(9);
    const bytes image = rr.random_bytes(16 * 1024);
    r.eng.install(0, image);
    bytes back(image.size());
    r.eng.read_plain(0, back);
    EXPECT_EQ(back, image) << auth_mode_name(mode);
    // Timed reads of the installed image must be fault-free too.
    bytes buf(32);
    for (addr_t at = 0; at < 4 * 1024; at += 32) (void)r.eng.read(at, buf);
    EXPECT_EQ(r.eng.stats().integrity_faults, 0u) << auth_mode_name(mode);
  }
}

// --- hash-tree internals --------------------------------------------------------

TEST(AuthHashTree, StoredNodeTamperFaultsAgainstTheRoot) {
  rig r("aes-ctr", auth_mode::hash_tree);
  const bytes img = pattern(32, 0x88);
  (void)r.eng.write(0x1000, img);
  ASSERT_GT(r.auth().tree_levels(), 1u);
  // A Merkle walk consumes stored *siblings*, never its own stored path:
  // corrupt the leaf's sibling node and the recomputed path can no longer
  // meet the on-chip root — the untampered data line becomes unverifiable.
  const u64 leaf = 0x1000 / 32;
  r.chip.raw()[r.auth().node_addr(0, leaf ^ 1)] ^= 0x01;
  r.auth().drop_caches();
  bytes buf(32);
  (void)r.eng.read(0x1000, buf);
  EXPECT_EQ(r.eng.stats().integrity_faults, 1u);
  EXPECT_EQ(buf, bytes(32, bus_encryption_engine::fault_fill));
}

TEST(AuthHashTree, WiderArityShortensTheWalk) {
  auto depth = [&](unsigned arity) {
    rig r("aes-ctr");
    auth_config a = small_auth(auth_mode::hash_tree);
    a.tree_arity = arity;
    (void)r.eng.attach_auth(r.ctx, a);
    return r.auth().tree_levels();
  };
  EXPECT_GT(depth(2), depth(4));
  EXPECT_GT(depth(4), depth(8));
}

TEST(AuthHashTree, OnChipStateIsOneRootPlusCaches) {
  rig r("aes-ctr", auth_mode::hash_tree);
  EXPECT_EQ(r.auth().onchip_bytes(), r.auth().config().tag_bytes)
      << "cold tree: only the root lives on-chip";
  EXPECT_GT(r.auth().tag_memory_bytes(), (k_window / 32) * 8 - 1)
      << "stored nodes cover at least the leaves";
}

TEST(AuthSealGuard, SealDuringAnOpenBatchFlushWindowThrows) {
  // Regression: seal_from_memory() mid-flush would recompute tags from a
  // window whose staged tag writes are still in flight — the reseal must
  // be refused until batch_flush_done() retires the window.
  rig r("aes-ctr", auth_mode::mac);
  (void)r.eng.write(0, bytes(32, 0x11));

  (void)r.auth().batch_prepare_verify(0);
  EXPECT_TRUE(r.auth().batch_open());
  EXPECT_THROW(r.auth().seal_from_memory(), std::logic_error);

  r.auth().batch_flush_done();
  EXPECT_FALSE(r.auth().batch_open());
  EXPECT_NO_THROW(r.auth().seal_from_memory());

  // The write side opens the window too.
  (void)r.auth().batch_stage_update(0, bytes(32, 0x22), true);
  EXPECT_THROW(r.auth().seal_from_memory(), std::logic_error);
  r.auth().batch_flush_done();
  EXPECT_NO_THROW(r.auth().seal_from_memory());
}

TEST(AuthSealGuard, PowerCycleReleasesAWindowLeftOpenByACut) {
  // Regression: a power cut unwinding submit() mid-flush skips
  // batch_flush_done(), so the window flag stuck across the reboot and a
  // legitimate post-recovery reseal fail-stopped a healthy device.
  // drop_caches() models the power cycle and must clear the volatile
  // forwarding state with the rest of the caches.
  rig r("aes-ctr", auth_mode::mac);
  (void)r.eng.write(0, bytes(32, 0x11));
  (void)r.auth().batch_prepare_verify(0);
  EXPECT_TRUE(r.auth().batch_open());
  r.auth().drop_caches();
  EXPECT_FALSE(r.auth().batch_open());
  EXPECT_NO_THROW(r.auth().seal_from_memory());
}

} // namespace
} // namespace buscrypt::engine
