// Batch-native EDU datapaths (the Tab. 7 closing of the engine matrix):
// per-engine scalar-vs-batched equivalence under bank conflicts and
// unaligned detours, single-transaction degeneracy for the serial-decipher
// engines, scalar issue == windows of one for the engines whose scalar
// path is that window, write sources never mutated by any port,
// per-engine state regressions (AEGIS nonce snapshots, DMA page
// recycling, Gilmont prefetch and code-limit straddles, GI verified-LRU,
// integrity tag forwarding),
// throughput-gain assertions for the newly native engines, and the crypto
// hot-loop layer (bulk keystream, per-instance key expansion).

#include "crypto/aes.hpp"
#include "edu/gi_edu.hpp"
#include "edu/gilmont_edu.hpp"
#include "edu/soc.hpp"
#include "engine/cipher_backend.hpp"
#include "sim/mem_txn.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

namespace buscrypt {
namespace {

using namespace sim;
using edu::engine_kind;

edu::soc_config native_cfg(unsigned banks) {
  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 4u << 20;
  cfg.mem_timing.banks = banks;
  return cfg;
}

bytes patterned_image(std::size_t n) {
  bytes img(n);
  for (std::size_t i = 0; i < n; ++i) img[i] = static_cast<u8>(i * 131 + 17);
  return img;
}

std::string sanitized(engine_kind kind) {
  std::string n(edu::engine_name(kind));
  for (char& c : n)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
}

// --- bank-conflict equivalence sweep -----------------------------------------
// Every access lands in one DRAM bank (stride = row_size * banks), so the
// batched schedule has nothing to overlap on the memory side and the
// serial-decipher chains carry the window. Bytes must still match scalar.

workload same_bank_workload(const dram_timing& t) {
  const std::size_t stride = t.row_size * t.banks; // one bank, new row each hop
  workload w;
  w.name = "same-bank";
  const addr_t data_base = 1 << 20;
  for (std::size_t i = 0; i < 1200; ++i) {
    const addr_t a = data_base + (i * stride) % (128 * 1024);
    w.accesses.push_back({a, 8, i % 3 == 2 ? access_kind::store : access_kind::load});
    w.accesses.push_back({(i * stride) % (64 * 1024), 4, access_kind::fetch});
  }
  w.footprint = 128 * 1024;
  return w;
}

class BatchBankConflict : public ::testing::TestWithParam<engine_kind> {};

TEST_P(BatchBankConflict, SameBankBatchesMatchScalarBytes) {
  const edu::soc_config cfg = native_cfg(4);
  const workload w = same_bank_workload(cfg.mem_timing);
  const bytes image = patterned_image(64 * 1024);

  edu::secure_soc scalar_soc(GetParam(), cfg), batched_soc(GetParam(), cfg);
  for (edu::secure_soc* soc : {&scalar_soc, &batched_soc}) {
    soc->load_image(0, image);
    soc->load_image(1 << 20, bytes(128 * 1024, 0));
  }
  const throughput_stats s = scalar_soc.run_throughput(w, 1);
  const throughput_stats b = batched_soc.run_throughput(w, 8);
  EXPECT_EQ(s.ops, b.ops);
  scalar_soc.flush();
  batched_soc.flush();
  const auto ds = scalar_soc.memory().raw();
  const auto db = batched_soc.memory().raw();
  EXPECT_TRUE(std::equal(ds.begin(), ds.end(), db.begin()))
      << "bank-conflict batch diverged for " << edu::engine_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BatchBankConflict,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           return sanitized(info.param);
                         });

// --- unaligned-detour equivalence sweep --------------------------------------
// A batch mixing aligned transactions with sub-unit writes and odd-offset
// reads: the ineligible ones must detour through the scalar path without
// reordering, and the retired bytes must match pure scalar issue.

class BatchUnalignedDetour : public ::testing::TestWithParam<engine_kind> {};

TEST_P(BatchUnalignedDetour, MixedAlignmentBatchMatchesScalar) {
  const edu::soc_config cfg = native_cfg(4);
  const bytes image = patterned_image(64 * 1024);
  const addr_t data = 1 << 20;

  edu::secure_soc scalar_soc(GetParam(), cfg), batched_soc(GetParam(), cfg);
  for (edu::secure_soc* soc : {&scalar_soc, &batched_soc}) {
    soc->load_image(0, image);
    soc->load_image(data, bytes(64 * 1024, 0));
  }

  struct op {
    addr_t addr;
    std::size_t len;
    bool write;
  };
  // Aligned and unaligned, data and code, with read-after-write overlap.
  // Code-region ops are reads only (Gilmont's code is fetch-only, the
  // compression engine's code region is read-only by design).
  const op ops[] = {
      {data + 0, 32, true},    // aligned line write
      {data + 4, 8, true},     // sub-unit write: five-step RMW detour
      {data + 2, 12, false},   // odd-offset read across the fresh bytes
      {data + 0, 32, false},   // aligned read of the merged line
      {data + 64, 32, true},   // second line, aligned
      {data + 70, 3, false},   // tiny unaligned read
      {96, 32, false},         // aligned code read
      {100, 20, false},        // unaligned code read
  };

  // Scalar reference.
  bytes scalar_out, batched_out;
  for (const op& o : ops) {
    bytes buf(o.len);
    if (o.write) {
      fill_store_pattern(o.addr, buf);
      (void)scalar_soc.engine().write(o.addr, buf);
    } else {
      (void)scalar_soc.engine().read(o.addr, buf);
      scalar_out.insert(scalar_out.end(), buf.begin(), buf.end());
    }
  }
  // One batch through the native path.
  std::vector<bytes> lanes;
  lanes.reserve(std::size(ops));
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    lanes.emplace_back(ops[i].len);
    if (ops[i].write) {
      fill_store_pattern(ops[i].addr, lanes.back());
      batch.push_back(mem_txn::write_of(i, ops[i].addr, lanes.back()));
    } else {
      batch.push_back(mem_txn::read_of(i, ops[i].addr, lanes.back()));
    }
  }
  batched_soc.engine().submit(batch);
  (void)batched_soc.engine().drain();
  for (std::size_t i = 0; i < std::size(ops); ++i)
    if (!ops[i].write)
      batched_out.insert(batched_out.end(), lanes[i].begin(), lanes[i].end());

  EXPECT_EQ(batched_out, scalar_out)
      << "detour read bytes diverged for " << edu::engine_name(GetParam());
  // Stamps retire in order and stay within the drained window.
  for (std::size_t i = 1; i < batch.size(); ++i)
    EXPECT_LE(batch[i - 1].complete_cycle, batch[i].complete_cycle);

  scalar_soc.flush();
  batched_soc.flush();
  const auto ds = scalar_soc.memory().raw();
  const auto db = batched_soc.memory().raw();
  EXPECT_TRUE(std::equal(ds.begin(), ds.end(), db.begin()))
      << "detour DRAM bytes diverged for " << edu::engine_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BatchUnalignedDetour,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           return sanitized(info.param);
                         });

// --- single-transaction degeneracy -------------------------------------------
// A one-transaction batch has nothing to overlap: for every engine whose
// read path is serial-decipher (or whose overlap is already expressed by
// the scalar max), the batched cycles must equal the scalar cycles.

class BatchSingleTxnDegeneracy : public ::testing::TestWithParam<engine_kind> {};

TEST_P(BatchSingleTxnDegeneracy, SingleReadCostsScalarTime) {
  const edu::soc_config cfg = native_cfg(4);
  edu::secure_soc scalar_soc(GetParam(), cfg), batched_soc(GetParam(), cfg);
  const bytes image = patterned_image(16 * 1024);
  scalar_soc.load_image(0, image);
  batched_soc.load_image(0, image);

  // Same address in both: first touch of a fresh engine either way.
  bytes s_out(32), b_out(32);
  const cycles scalar = scalar_soc.engine().read(64, s_out);

  std::vector<mem_txn> one;
  one.push_back(mem_txn::read_of(0, 64, b_out));
  batched_soc.engine().submit(one);
  const cycles batched = batched_soc.engine().drain();

  EXPECT_EQ(b_out, s_out);
  EXPECT_EQ(one[0].complete_cycle, batched) << "single txn must stamp the makespan";
  EXPECT_EQ(batched, scalar)
      << "a one-transaction window must degenerate to scalar timing for "
      << edu::engine_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, BatchSingleTxnDegeneracy,
    // The keyslot engine's CTR pad and SecureDMA's page fill overlap even a
    // lone fetch (their scalar paths already charge the max), and the
    // compression/integrity engines re-shape per-window startup costs —
    // their single-txn behaviour is pinned by their own tests instead.
    ::testing::Values(engine_kind::plaintext, engine_kind::best_stp,
                      engine_kind::dallas_byte, engine_kind::dallas_des,
                      engine_kind::block_ecb_aes, engine_kind::block_cbc_aes,
                      engine_kind::xom_aes, engine_kind::aegis_cbc,
                      engine_kind::gilmont_3des, engine_kind::gi_3des_cbc,
                      engine_kind::stream_otp, engine_kind::stream_serial,
                      engine_kind::cacheside_otp),
    [](const ::testing::TestParamInfo<engine_kind>& info) {
      return sanitized(info.param);
    });

// The engines whose scalar read()/write() *is* a one-transaction window
// (edu::read/write submit one txn and drain it). For them a scalar op and
// a one-txn batch must agree on every simulated count; the rest keep their
// own scalar datapaths and agree on bytes only: the block family hides a
// lone write's encipher behind its bus transfer in a window (max(mem, enc)
// vs the scalar enc + mem), and SecureDMA, Compress+OTP and the keyslot
// engine shape single-transaction windows differently on purpose.
bool folded(engine_kind kind) {
  switch (kind) {
    case engine_kind::plaintext:
    case engine_kind::stream_otp:
    case engine_kind::stream_serial:
    case engine_kind::cacheside_otp:
    case engine_kind::gilmont_3des:
    case engine_kind::gi_3des_cbc: return true;
    default: return false;
  }
}

void expect_same_counts(const edu::edu_stats& s, const edu::edu_stats& b,
                        const std::string& where) {
  // batches/batched_txns count submit() calls, which only the window makes.
  EXPECT_EQ(s.reads, b.reads) << where;
  EXPECT_EQ(s.writes, b.writes) << where;
  EXPECT_EQ(s.cipher_blocks, b.cipher_blocks) << where;
  EXPECT_EQ(s.crypto_cycles, b.crypto_cycles) << where;
  EXPECT_EQ(s.rmw_ops, b.rmw_ops) << where;
}

class SingleTxnWindow : public ::testing::TestWithParam<engine_kind> {};

TEST_P(SingleTxnWindow, EveryOpShapeMatchesScalarIssue) {
  const engine_kind kind = GetParam();
  const edu::soc_config cfg = native_cfg(8);
  const addr_t data = 1 << 20; // Gilmont's code limit: data - 4 straddles it
  edu::secure_soc scalar_soc(kind, cfg), batched_soc(kind, cfg);
  for (edu::secure_soc* soc : {&scalar_soc, &batched_soc}) {
    soc->load_image(0, patterned_image(16 * 1024));
    soc->load_image(data - 4096, bytes(12 * 1024, 0));
  }

  struct op {
    addr_t addr;
    std::size_t len;
    bool write;
  };
  // Code-region ops are reads only (Compress+OTP's code is read-only).
  const op ops[] = {
      {data + 0, 32, true},     {data + 0, 32, false},   // aligned line
      {data + 4, 8, true},      {data + 2, 12, false},   // sub-line, odd offset
      {data + 70, 3, false},                             // tiny unaligned
      {data + 48, 32, true},    {data + 48, 32, false},  // two lines
      {data + 128, 64, true},   {data + 128, 64, false}, // aligned multi-line
      {data - 4, 8, true},      {data - 4, 8, false},    // straddles 1 MiB
      {data + 4094, 4, true},                            // straddles a row
      {96, 32, false},          {100, 20, false},        // code: aligned, odd
      {64, 64, false},          {200, 40, false},        // code: two lines
      {4080, 32, false},                                 // code: page straddle
  };

  bytes s_reads, b_reads;
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    const op& o = ops[i];
    bytes s_buf(o.len), b_buf(o.len);
    if (o.write) {
      fill_store_pattern(o.addr, s_buf);
      fill_store_pattern(o.addr, b_buf);
    }
    const cycles scalar = o.write ? scalar_soc.engine().write(o.addr, s_buf)
                                  : scalar_soc.engine().read(o.addr, s_buf);
    std::vector<mem_txn> one;
    one.push_back(o.write ? mem_txn::write_of(i, o.addr, b_buf)
                          : mem_txn::read_of(i, o.addr, b_buf));
    batched_soc.engine().submit(one);
    const cycles window = batched_soc.engine().drain();
    if (!o.write) {
      s_reads.insert(s_reads.end(), s_buf.begin(), s_buf.end());
      b_reads.insert(b_reads.end(), b_buf.begin(), b_buf.end());
    }
    if (!folded(kind)) continue;
    const std::string where = std::string(edu::engine_name(kind)) + " op " +
                              std::to_string(i);
    EXPECT_EQ(window, scalar) << where;
    expect_same_counts(scalar_soc.engine().stats(), batched_soc.engine().stats(), where);
  }
  EXPECT_EQ(b_reads, s_reads) << edu::engine_name(kind);
  scalar_soc.flush();
  batched_soc.flush();
  const auto ds = scalar_soc.memory().raw();
  const auto db = batched_soc.memory().raw();
  EXPECT_TRUE(std::equal(ds.begin(), ds.end(), db.begin()))
      << "one-txn windows left different DRAM for " << edu::engine_name(kind);
}

TEST_P(SingleTxnWindow, MixedStreamMatchesUnitBatches) {
  // tab7's traffic shape (branchy fetch plus a streaming store component),
  // 26k line ops over 8 banks: scalar issue vs batches of one.
  const engine_kind kind = GetParam();
  const edu::soc_config cfg = native_cfg(8);
  workload w = make_jumpy_code(20'000, 128 * 1024, 0.15, 0x7AB7);
  const workload s = make_streaming(6'000, 128 * 1024, 4, 0x7AB8);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  const auto ops = to_port_ops(w, cfg.l1.line_size);

  edu::secure_soc scalar_soc(kind, cfg), batched_soc(kind, cfg);
  for (edu::secure_soc* soc : {&scalar_soc, &batched_soc})
    soc->load_image(0, patterned_image(128 * 1024));
  const throughput_stats st = issue_scalar(scalar_soc.engine(), ops, cfg.l1.line_size);
  const throughput_stats bt =
      issue_batched(batched_soc.engine(), ops, cfg.l1.line_size, 1);
  EXPECT_EQ(st.ops, bt.ops);
  if (folded(kind)) {
    const std::string where(edu::engine_name(kind));
    EXPECT_EQ(bt.total_cycles, st.total_cycles) << where;
    expect_same_counts(scalar_soc.engine().stats(), batched_soc.engine().stats(), where);
  }
  scalar_soc.flush();
  batched_soc.flush();
  const auto ds = scalar_soc.memory().raw();
  const auto db = batched_soc.memory().raw();
  EXPECT_TRUE(std::equal(ds.begin(), ds.end(), db.begin()))
      << "unit batches left different DRAM for " << edu::engine_name(kind);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SingleTxnWindow,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           return sanitized(info.param);
                         });

// --- newly native engines actually gain --------------------------------------

double bpc_of(engine_kind kind, std::size_t batch_txns) {
  edu::secure_soc soc(kind, native_cfg(8));
  workload w = make_jumpy_code(10'000, 128 * 1024, 0.15, 0xBEEF);
  const workload s = make_streaming(3'000, 128 * 1024, 4, 0xBEF0);
  w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
  soc.load_image(0, patterned_image(128 * 1024));
  soc.load_image(1 << 20, bytes(128 * 1024, 0));
  return soc.run_throughput(w, batch_txns).bytes_per_cycle();
}

TEST(BatchNativeThroughput, BlockFamilyBatchedBeatsScalar) {
  for (const engine_kind kind :
       {engine_kind::best_stp, engine_kind::dallas_byte, engine_kind::dallas_des,
        engine_kind::block_ecb_aes, engine_kind::xom_aes, engine_kind::aegis_cbc}) {
    const double scalar = bpc_of(kind, 1);
    const double batched = bpc_of(kind, 16);
    EXPECT_GT(batched, scalar * 1.10)
        << edu::engine_name(kind) << " lost its pipelined batch gain";
  }
}

TEST(BatchNativeThroughput, SegmentAndPageEnginesBatchedBeatScalar) {
  for (const engine_kind kind : {engine_kind::gilmont_3des, engine_kind::gi_3des_cbc,
                                 engine_kind::compress_otp}) {
    const double scalar = bpc_of(kind, 1);
    const double batched = bpc_of(kind, 16);
    EXPECT_GT(batched, scalar * 1.05)
        << edu::engine_name(kind) << " lost its batch gain";
  }
  // Secure DMA's page writebacks are chained either way; the fill overlap
  // still has to show, and batching must never cost throughput.
  EXPECT_GE(bpc_of(engine_kind::secure_dma, 16),
            bpc_of(engine_kind::secure_dma, 1));
}

// --- per-engine state regressions --------------------------------------------

TEST(AegisBatch, InWindowWriteDoesNotBleedNonceIntoEarlierRead) {
  const edu::soc_config cfg = native_cfg(4);
  edu::secure_soc scalar_soc(engine_kind::aegis_cbc, cfg);
  edu::secure_soc batched_soc(engine_kind::aegis_cbc, cfg);
  const bytes image = patterned_image(4 * 1024);
  scalar_soc.load_image(0, image);
  batched_soc.load_image(0, image);

  // Scalar: read old, write new, read new.
  bytes s_r1(32), s_r2(32), w1(32);
  fill_store_pattern(0x40, w1);
  (void)scalar_soc.engine().read(0x40, s_r1);
  (void)scalar_soc.engine().write(0x40, w1);
  (void)scalar_soc.engine().read(0x40, s_r2);

  bytes b_r1(32), b_r2(32), w2(32);
  fill_store_pattern(0x40, w2);
  std::vector<mem_txn> batch;
  batch.push_back(mem_txn::read_of(0, 0x40, b_r1));
  batch.push_back(mem_txn::write_of(1, 0x40, w2));
  batch.push_back(mem_txn::read_of(2, 0x40, b_r2));
  batched_soc.engine().submit(batch);
  (void)batched_soc.engine().drain();

  EXPECT_EQ(b_r1, s_r1) << "pre-write read must decrypt under the OLD nonce";
  EXPECT_EQ(b_r2, s_r2) << "post-write read must decrypt under the NEW nonce";
  batched_soc.flush();
  scalar_soc.flush();
  EXPECT_TRUE(std::equal(scalar_soc.memory().raw().begin(),
                         scalar_soc.memory().raw().end(),
                         batched_soc.memory().raw().begin()));
}

TEST(DmaBatch, PageRecyclingInsideOneWindowStaysExact) {
  // 6 distinct pages through 4 buffers in one window: at least one victim
  // is a page filled earlier in the same window, forcing the mid-window
  // retire; bytes must match scalar issue, including dirty writebacks.
  const edu::soc_config cfg = native_cfg(4);
  edu::secure_soc scalar_soc(engine_kind::secure_dma, cfg);
  edu::secure_soc batched_soc(engine_kind::secure_dma, cfg);
  const bytes image = patterned_image(64 * 1024);
  scalar_soc.load_image(0, image);
  batched_soc.load_image(0, image);

  std::vector<addr_t> addrs;
  for (addr_t p = 0; p < 6; ++p) addrs.push_back(p * 4096 + 128);

  bytes s_reads, b_reads;
  for (std::size_t round = 0; round < 2; ++round) {
    for (const addr_t a : addrs) {
      bytes buf(32);
      if (round == 0) {
        fill_store_pattern(a, buf);
        (void)scalar_soc.engine().write(a, buf);
      } else {
        (void)scalar_soc.engine().read(a, buf);
        s_reads.insert(s_reads.end(), buf.begin(), buf.end());
      }
    }
  }
  std::vector<bytes> lanes;
  std::vector<mem_txn> batch;
  lanes.reserve(addrs.size() * 2);
  for (std::size_t round = 0; round < 2; ++round)
    for (const addr_t a : addrs) {
      lanes.emplace_back(32);
      if (round == 0) {
        fill_store_pattern(a, lanes.back());
        batch.push_back(mem_txn::write_of(lanes.size(), a, lanes.back()));
      } else {
        batch.push_back(mem_txn::read_of(lanes.size(), a, lanes.back()));
      }
    }
  batched_soc.engine().submit(batch);
  (void)batched_soc.engine().drain();
  for (std::size_t i = addrs.size(); i < lanes.size(); ++i)
    b_reads.insert(b_reads.end(), lanes[i].begin(), lanes[i].end());

  EXPECT_EQ(b_reads, s_reads);
  scalar_soc.flush();
  batched_soc.flush();
  EXPECT_TRUE(std::equal(scalar_soc.memory().raw().begin(),
                         scalar_soc.memory().raw().end(),
                         batched_soc.memory().raw().begin()));
}

TEST(GilmontBatch, PrefetcherStaysInTheLoopAcrossAWindow) {
  const edu::soc_config cfg = native_cfg(4);
  edu::secure_soc soc(engine_kind::gilmont_3des, cfg);
  edu::secure_soc scalar_soc(engine_kind::gilmont_3des, cfg);
  const bytes image = patterned_image(8 * 1024);
  soc.load_image(0, image);
  scalar_soc.load_image(0, image);

  // Sequential code lines: after the first miss every line is predicted.
  std::vector<bytes> lanes(8, bytes(32));
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < lanes.size(); ++i)
    batch.push_back(mem_txn::read_of(i, i * 32, lanes[i]));
  soc.engine().submit(batch);
  const cycles batched = soc.engine().drain();

  auto& gil = static_cast<edu::gilmont_edu&>(soc.engine());
  EXPECT_GT(gil.prefetch_hits(), 0u) << "sequential window must hit the predictor";

  cycles scalar = 0;
  bytes buf(32);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    scalar += scalar_soc.engine().read(i * 32, buf);
    EXPECT_EQ(buf, lanes[i]) << "line " << i;
  }
  EXPECT_LE(batched, scalar) << "batching must never cost the predictor its win";
}

TEST(GilmontBatch, WriteStraddlingCodeLimitEnciphersOnlyTheCodeBytes) {
  // 8 bytes at code_limit - 4: the low half is code, the high half is data
  // (clear form). Scalar and one-window issue must both round-trip and
  // leave the data bytes beyond the write untouched.
  const edu::soc_config cfg = native_cfg(4);
  const addr_t limit = edu::gilmont_edu_config{}.code_limit;
  bytes src(8);
  fill_store_pattern(limit - 4, src);

  for (const bool batched : {false, true}) {
    edu::secure_soc soc(engine_kind::gilmont_3des, cfg);
    soc.load_image(limit - 64, bytes(128, 0));
    bytes back(8);
    if (batched) {
      bytes lane = src;
      std::vector<mem_txn> win;
      win.push_back(mem_txn::write_of(0, limit - 4, lane));
      win.push_back(mem_txn::read_of(1, limit - 4, back));
      soc.engine().submit(win);
      (void)soc.engine().drain();
    } else {
      (void)soc.engine().write(limit - 4, src);
      (void)soc.engine().read(limit - 4, back);
    }
    const char* how = batched ? "batched" : "scalar";
    EXPECT_EQ(back, src) << how;
    const auto raw = soc.memory().raw();
    EXPECT_TRUE(std::equal(src.begin() + 4, src.end(), raw.begin() + limit))
        << how << ": data-region bytes must land in clear form";
    EXPECT_TRUE(std::all_of(raw.begin() + limit + 4, raw.begin() + limit + 32,
                            [](u8 b) { return b == 0; }))
        << how << ": untouched data bytes beyond the write changed";
  }
}

TEST(GilmontBatch, UnalignedCodeReadCountsOneReadPerLine) {
  // A code read that is not one aligned line is split into the lines it
  // covers. edu_stats::reads counts those lines, as a window's native line
  // reads do, and never the split request itself.
  struct op {
    addr_t addr;
    std::size_t len;
  };
  const op ops[] = {{100, 20}, {200, 40}, {48, 32}, {4080, 32}}; // 1 + 2 + 2 + 2
  constexpr u64 kLines = 7;

  for (const bool batched : {false, true}) {
    edu::secure_soc soc(engine_kind::gilmont_3des, native_cfg(4));
    soc.load_image(0, patterned_image(8 * 1024));
    std::vector<bytes> bufs;
    for (const op& o : ops) bufs.emplace_back(o.len);
    if (batched) {
      std::vector<mem_txn> win;
      for (std::size_t i = 0; i < std::size(ops); ++i)
        win.push_back(mem_txn::read_of(i, ops[i].addr, bufs[i]));
      soc.engine().submit(win);
      (void)soc.engine().drain();
    } else {
      for (std::size_t i = 0; i < std::size(ops); ++i)
        (void)soc.engine().read(ops[i].addr, bufs[i]);
    }
    EXPECT_EQ(soc.engine().stats().reads, kLines) << (batched ? "batched" : "scalar");
  }
}

class WriteSourceUntouched : public ::testing::TestWithParam<engine_kind> {};

TEST_P(WriteSourceUntouched, ScalarAndBatchedWritesLeaveTheSourceIntact) {
  // A scalar write's const source rides a one-txn window's mutable segment
  // on the folded engines; this pins the contract that makes that safe:
  // no port ever writes into a write's source bytes.
  const engine_kind kind = GetParam();
  const edu::soc_config cfg = native_cfg(4);
  const addr_t data = 1 << 20;
  struct op {
    addr_t addr;
    std::size_t len;
  };
  const op ops[] = {{data, 32},      {data + 4, 8},  {data + 48, 32},
                    {data + 128, 64}, {data - 4, 8}, {data + 4094, 4}};

  edu::secure_soc scalar_soc(kind, cfg), batched_soc(kind, cfg);
  std::vector<bytes> lanes;
  std::vector<mem_txn> batch;
  lanes.reserve(std::size(ops));
  for (edu::secure_soc* soc : {&scalar_soc, &batched_soc}) {
    soc->load_image(0, patterned_image(16 * 1024));
    soc->load_image(data - 4096, bytes(12 * 1024, 0));
  }
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    bytes src(ops[i].len);
    fill_store_pattern(ops[i].addr, src);
    const bytes before = src;
    (void)scalar_soc.engine().write(ops[i].addr, src);
    EXPECT_EQ(src, before) << "scalar write " << i;
    lanes.push_back(before);
    batch.push_back(mem_txn::write_of(i, ops[i].addr, lanes.back()));
  }
  batched_soc.engine().submit(batch);
  (void)batched_soc.engine().drain();
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    bytes want(ops[i].len);
    fill_store_pattern(ops[i].addr, want);
    EXPECT_EQ(lanes[i], want) << "batched write " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, WriteSourceUntouched,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           return sanitized(info.param);
                         });

TEST(GiBatch, BatchedReadsKeepVerifiedWindowAndTags) {
  const edu::soc_config cfg = native_cfg(4);
  edu::secure_soc scalar_soc(engine_kind::gi_3des_cbc, cfg);
  edu::secure_soc batched_soc(engine_kind::gi_3des_cbc, cfg);
  const bytes image = patterned_image(16 * 1024);
  scalar_soc.load_image(0, image);
  batched_soc.load_image(0, image);

  // Mixed window: reads across several 1 KiB segments plus a write (which
  // detours) and a read-back of the written range.
  struct op {
    addr_t addr;
    bool write;
  };
  const op ops[] = {{0, false},    {1024, false}, {64, false},  {2048, true},
                    {2048, false}, {3072, false}, {1024, false}};
  bytes s_reads, b_reads;
  for (const op& o : ops) {
    bytes buf(32);
    if (o.write) {
      fill_store_pattern(o.addr, buf);
      (void)scalar_soc.engine().write(o.addr, buf);
    } else {
      (void)scalar_soc.engine().read(o.addr, buf);
      s_reads.insert(s_reads.end(), buf.begin(), buf.end());
    }
  }
  std::vector<bytes> lanes;
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    lanes.emplace_back(32);
    if (ops[i].write) {
      fill_store_pattern(ops[i].addr, lanes.back());
      batch.push_back(mem_txn::write_of(i, ops[i].addr, lanes.back()));
    } else {
      batch.push_back(mem_txn::read_of(i, ops[i].addr, lanes.back()));
    }
  }
  batched_soc.engine().submit(batch);
  (void)batched_soc.engine().drain();
  for (std::size_t i = 0; i < std::size(ops); ++i)
    if (!ops[i].write) b_reads.insert(b_reads.end(), lanes[i].begin(), lanes[i].end());

  EXPECT_EQ(b_reads, s_reads);
  auto& gi_s = static_cast<edu::gi_edu&>(scalar_soc.engine());
  auto& gi_b = static_cast<edu::gi_edu&>(batched_soc.engine());
  EXPECT_EQ(gi_b.auth_failures(), 0u) << "clean batch must verify clean";
  EXPECT_EQ(gi_s.auth_failures(), 0u);
}

// --- the crypto hot-loop layer ------------------------------------------------

TEST(BulkKeystream, GeneratePadsMatchesPerUnitTransform) {
  const auto& reg = engine::backend_registry::builtin();
  for (const char* name : {"aes-ctr", "3des-ctr", "rc4-stream", "lfsr-stream",
                           "trivium-stream"}) {
    const engine::cipher_backend& be = reg.at(name);
    bytes key(16, 0x42);
    if (!be.key_len_ok(key.size())) key.resize(8);
    ASSERT_TRUE(be.key_len_ok(key.size())) << name;
    const auto kc = be.make_keyed(key);
    ASSERT_TRUE(kc->pad_precomputable()) << name;

    constexpr std::size_t unit = 32;
    constexpr u64 first_dun = 77;
    bytes bulk(4 * unit);
    kc->generate_pads(first_dun, unit, bulk);

    // Per-unit reference: pad == encrypt(zeros).
    const bytes zeros(unit, 0);
    for (std::size_t u = 0; u < 4; ++u) {
      bytes one(unit);
      kc->encrypt_unit(first_dun + u, zeros, one);
      EXPECT_TRUE(std::equal(one.begin(), one.end(), bulk.begin() + u * unit))
          << name << " unit " << u;
    }
    // And the pad really deciphers data the per-unit path enciphered.
    bytes data(unit);
    fill_store_pattern(0x1000, data);
    bytes ct(unit);
    kc->encrypt_unit(first_dun + 1, data, ct);
    for (std::size_t i = 0; i < unit; ++i) ct[i] ^= bulk[unit + i];
    EXPECT_EQ(ct, data) << name;
  }
}

TEST(BlockBackend, SameKeyMintsIdenticalTransforms) {
  // Every make_keyed() expands its own core: instances of one key must
  // still agree byte for byte, and another key must not decrypt.
  const bytes k1(16, 0xA1), k2(16, 0xB2);
  engine::block_backend be(
      "aes-ctr-test", engine::unit_mode::ctr, engine::backend_cost{11, 11, 16, false},
      std::vector<std::size_t>{16},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::aes>(key);
      });

  const auto a = be.make_keyed(k1);
  const auto b = be.make_keyed(k1);
  const auto c = be.make_keyed(k2);

  bytes x(32);
  fill_store_pattern(0, x);
  bytes ya(32), yb(32);
  a->encrypt_unit(5, x, ya);
  b->encrypt_unit(5, x, yb);
  EXPECT_EQ(ya, yb);
  bytes back(32);
  c->decrypt_unit(5, ya, back);
  EXPECT_NE(back, x) << "different key must not decrypt";
}

} // namespace
} // namespace buscrypt
