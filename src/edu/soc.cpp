#include "edu/soc.hpp"

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "edu/aegis_edu.hpp"
#include "edu/block_edu.hpp"
#include "edu/cacheside_edu.hpp"
#include "edu/compress_edu.hpp"
#include "edu/dallas_edu.hpp"
#include "edu/dma_edu.hpp"
#include "edu/engine_edu.hpp"
#include "edu/gi_edu.hpp"
#include "edu/gilmont_edu.hpp"
#include "edu/plain_edu.hpp"
#include "edu/stream_edu.hpp"
#include "edu/xom_edu.hpp"

#include <stdexcept>

namespace buscrypt::edu {

// The engine_edu adapter composes its display name from the same
// constants engine_name() uses, so the table and the adapter can't drift.
static_assert(engine_name(engine_kind::inline_keyslot) == keyslot_default_name);

secure_soc::secure_soc(engine_kind kind, const soc_config& cfg)
    : kind_(kind), cfg_(cfg), dram_(cfg.mem_size, cfg.mem_timing), ext_(dram_) {
  // Deterministic key material (the on-chip secret registers).
  rng key_rng(cfg.key_seed);
  aes_key_ = key_rng.random_bytes(16);
  des_key_ = key_rng.random_bytes(8);
  tdes_key_ = key_rng.random_bytes(24);
  byte_key_ = key_rng.random_bytes(8);
  mac_key_ = key_rng.random_bytes(16);
  best_key_ = key_rng.random_bytes(16);

  // Functional cores. prf_ always exists (several EDUs use an AES PRF).
  prf_ = std::make_unique<crypto::aes>(aes_key_);

  const bool edu_above_cache = (kind == engine_kind::cacheside_otp);

  if (edu_above_cache) {
    // Fig. 7b: cache below the EDU, plain external path.
    l1_ = std::make_unique<sim::cache>(cfg.l1, ext_);
    edu_ = std::make_unique<cacheside_edu>(*l1_, *prf_, cacheside_edu_config{});
    cpu_ = std::make_unique<sim::cpu>(*edu_, cfg.l1.hit_latency);
    return;
  }

  switch (kind) {
    case engine_kind::plaintext:
      edu_ = std::make_unique<plain_edu>(ext_);
      break;
    case engine_kind::best_stp:
      cipher_ = std::make_unique<crypto::best_cipher>(best_key_);
      edu_ = std::make_unique<block_edu>(
          ext_, *cipher_, block_edu_config{block_mode::ecb, best_combinational(), 32, 0});
      break;
    case engine_kind::dallas_byte:
      byte_cipher_ = std::make_unique<crypto::byte_bus_cipher>(byte_key_, 24);
      edu_ = std::make_unique<dallas_byte_edu>(ext_, *byte_cipher_);
      break;
    case engine_kind::dallas_des:
      cipher_ = std::make_unique<crypto::des>(des_key_);
      edu_ = std::make_unique<dallas_des_edu>(ext_, *cipher_);
      break;
    case engine_kind::block_ecb_aes:
      edu_ = std::make_unique<block_edu>(
          ext_, *prf_, block_edu_config{block_mode::ecb, aes_iterative(), 32, 0});
      break;
    case engine_kind::block_cbc_aes:
      edu_ = std::make_unique<block_edu>(
          ext_, *prf_,
          block_edu_config{block_mode::cbc_line, aes_iterative(), cfg.l1.line_size, 0});
      break;
    case engine_kind::xom_aes:
      edu_ = std::make_unique<xom_edu>(ext_, *prf_);
      break;
    case engine_kind::aegis_cbc: {
      aegis_edu_config acfg;
      acfg.line_bytes = cfg.l1.line_size;
      edu_ = std::make_unique<aegis_edu>(ext_, *prf_, acfg);
      break;
    }
    case engine_kind::gilmont_3des: {
      cipher_ = std::make_unique<crypto::triple_des>(tdes_key_);
      gilmont_edu_config gcfg;
      gcfg.line_bytes = cfg.l1.line_size;
      edu_ = std::make_unique<gilmont_edu>(ext_, *cipher_, gcfg);
      break;
    }
    case engine_kind::gi_3des_cbc:
      cipher_ = std::make_unique<crypto::triple_des>(tdes_key_);
      edu_ = std::make_unique<gi_edu>(ext_, *cipher_, mac_key_, gi_edu_config{});
      break;
    case engine_kind::stream_otp:
      edu_ = std::make_unique<stream_edu>(ext_, *prf_, stream_edu_config{});
      break;
    case engine_kind::stream_serial: {
      stream_edu_config scfg;
      scfg.parallel_keystream = false;
      edu_ = std::make_unique<stream_edu>(ext_, *prf_, scfg);
      break;
    }
    case engine_kind::secure_dma:
      edu_ = std::make_unique<dma_edu>(ext_, *prf_, dma_edu_config{});
      break;
    case engine_kind::compress_otp: {
      compress_edu_config ccfg;
      // Group granularity matches the cache line so one fill reads exactly
      // one compressed group (fewer bus bytes than the raw line).
      ccfg.group_bytes = cfg.l1.line_size;
      edu_ = std::make_unique<compress_edu>(ext_, *prf_, ccfg);
      break;
    }
    case engine_kind::inline_keyslot: {
      engine_edu_config kcfg;
      kcfg.data_unit_size = cfg.l1.line_size;
      kcfg.policy = cfg.keyslot_policy;
      if (cfg.keyslot_slots != 0) kcfg.num_slots = cfg.keyslot_slots;
      if (!cfg.keyslot_backend.empty()) kcfg.backend = cfg.keyslot_backend;
      if (cfg.keyslot_auth != engine::auth_mode::none) {
        kcfg.auth.mode = cfg.keyslot_auth;
        kcfg.auth.base = 0;
        kcfg.auth.limit = cfg.keyslot_auth_limit;
        kcfg.auth.tag_base = cfg.keyslot_auth_tag_base;
        rng auth_rng(cfg.key_seed ^ 0xA07411ULL);
        kcfg.auth.key = auth_rng.random_bytes(16);
      }
      // The device key must fit the configured backend: the default AES
      // key for AES-family backends (bit-identical to the PR 3 wiring),
      // a seed-derived key of the smallest accepted length otherwise.
      bytes dev_key = aes_key_;
      const auto& backend = engine::backend_registry::builtin().at(kcfg.backend);
      if (!backend.key_len_ok(dev_key.size())) {
        for (std::size_t len = 1; len <= 32; ++len)
          if (backend.key_len_ok(len)) {
            rng kr(cfg.key_seed ^ (0xBACC0DEULL + len));
            dev_key = kr.random_bytes(len);
            break;
          }
      }
      edu_ = std::make_unique<engine_edu>(ext_, dev_key, std::move(kcfg));
      break;
    }
    case engine_kind::cacheside_otp:
      throw std::logic_error("unreachable");
  }

  if (cfg.split_l1) {
    sim::cache_config half = cfg.l1;
    half.size = cfg.l1.size / 2;
    l1_ = std::make_unique<sim::cache>(half, *edu_);  // data side
    l1i_ = std::make_unique<sim::cache>(half, *edu_); // instruction side
    cpu_ = std::make_unique<sim::cpu>(*l1i_, *l1_, cfg.l1.hit_latency);
  } else {
    l1_ = std::make_unique<sim::cache>(cfg.l1, *edu_);
    cpu_ = std::make_unique<sim::cpu>(*l1_, cfg.l1.hit_latency);
  }
}

void secure_soc::load_image(addr_t base, std::span<const u8> plain) {
  edu_->install_image(base, plain);
  if (kind_ == engine_kind::cacheside_otp) {
    // The install path ran through the cache; push everything to DRAM so
    // the image is externally resident before execution.
    (void)l1_->flush();
  }
}

bytes secure_soc::read_back(addr_t base, std::size_t len) {
  flush();
  bytes out(len);
  if (kind_ == engine_kind::cacheside_otp) {
    (void)edu_->read(base, out);
    return out;
  }
  edu_->read_image(base, out);
  return out;
}

sim::run_stats secure_soc::run(const sim::workload& w) { return cpu_->run(w); }

void secure_soc::prepare_txn_stream() {
  if (l1_) (void)l1_->flush_and_invalidate();
  if (l1i_) (void)l1i_->flush_and_invalidate();
  if (kind_ == engine_kind::secure_dma) (void)static_cast<dma_edu&>(*edu_).flush();
}

topology_run_stats secure_soc::run_topology(std::span<const master_desc> masters,
                                            const sim::topology& topo,
                                            const grant_observer& observe) {
  prepare_txn_stream();

  // Per-master protection domains on the keyslot engine. Keys derive from
  // the SoC seed and the domain base — not the master id — so a solo
  // re-run of one descriptor encrypts its range identically. The guard
  // tears every bound domain down on all exit paths: a throw mid-setup or
  // mid-run must not leave regions owned by a dead run's master ids (the
  // CPU would be silently firewalled out of them afterwards).
  struct domain_guard {
    engine::bus_encryption_engine* eng = nullptr;
    std::vector<engine::bus_encryption_engine::context_id> ctxs;
    ~domain_guard() {
      if (eng != nullptr)
        for (const auto ctx : ctxs) eng->destroy_context(ctx);
    }
  } domains;
  if (kind_ == engine_kind::inline_keyslot) {
    auto& adapter = static_cast<engine_edu&>(*edu_);
    for (std::size_t i = 0; i < masters.size(); ++i) {
      const master_desc& d = masters[i];
      if (d.domain_len == 0) continue;
      domains.eng = &adapter.engine();
      rng key_rng(cfg_.key_seed ^ (0xD07A15ULL + d.domain_base));
      const auto ctx = domains.eng->create_context(
          {std::string(adapter.config().backend), key_rng.random_bytes(16),
           adapter.config().data_unit_size});
      domains.ctxs.push_back(ctx); // before bind: an alignment throw still tears down
      domains.eng->bind_domain(static_cast<sim::master_id>(i), d.domain_base,
                               d.domain_len, ctx);
    }
  }

  std::vector<sim::bus_master> bus_masters;
  bus_masters.reserve(masters.size());
  for (std::size_t i = 0; i < masters.size(); ++i) {
    const master_desc& d = masters[i];
    sim::bus_master_config bc;
    bc.id = static_cast<sim::master_id>(i);
    bc.name = d.name.empty() ? std::string(master_kind_name(d.role)) : d.name;
    bc.priority = d.priority;
    bc.chunk = d.chunk != 0 ? d.chunk
                            : (d.role == master_kind::dma ? 4 * cfg_.l1.line_size
                                                          : cfg_.l1.line_size);
    bus_masters.emplace_back(std::move(bc), d.work);
  }

  sim::interconnect ic(*edu_, topo);
  for (sim::bus_master& m : bus_masters) ic.add_master(m);
  // Scalar-path beats (adapted EDUs, detours) are attributed per granted
  // window; the interconnect restores cpu_master when the bus falls idle.
  ic.set_grant_hook([this, &ic, &observe](sim::master_id m) {
    ext_.set_master(m);
    if (observe) observe(ic, m);
  });

  // Attach the topology's firewall to the engine for the run's duration
  // (rule tables checked before span_for). Keyslot engine only, and only
  // when there is a table to enforce — a table-free topology must stay on
  // the untouched PR 3 datapath, cycle for cycle. The guard detaches on
  // every exit path: the firewall dies with this frame.
  struct fw_guard {
    engine::bus_encryption_engine* eng = nullptr;
    ~fw_guard() {
      if (eng != nullptr) eng->set_firewall(nullptr);
    }
  } fw;
  if (kind_ == engine_kind::inline_keyslot && ic.firewall().any_table()) {
    fw.eng = &static_cast<engine_edu&>(*edu_).engine();
    fw.eng->set_firewall(&ic.firewall());
  }

  topology_run_stats out;
  // The domain guard unwinds the run's mappings on return or throw; the
  // ciphertext the domains wrote stays in DRAM.
  out.noc = ic.run();
  out.firewall.reserve(masters.size());
  for (std::size_t i = 0; i < masters.size(); ++i)
    out.firewall.push_back(ic.firewall().stats(static_cast<sim::master_id>(i)));
  out.sentinel_denials = ic.firewall().sentinel_denials();
  if (kind_ == engine_kind::inline_keyslot) {
    const auto& eng = static_cast<engine_edu&>(*edu_).engine();
    out.domains.reserve(masters.size());
    for (std::size_t i = 0; i < masters.size(); ++i)
      out.domains.push_back(eng.domain(static_cast<sim::master_id>(i)));
  }
  return out;
}

sim::throughput_stats secure_soc::run_throughput(const sim::workload& w,
                                                 std::size_t batch_txns) {
  prepare_txn_stream();
  const auto ops = sim::to_port_ops(w, cfg_.l1.line_size);
  if (batch_txns <= 1) return sim::issue_scalar(*edu_, ops, cfg_.l1.line_size);
  return sim::issue_batched(*edu_, ops, cfg_.l1.line_size, batch_txns);
}

void secure_soc::flush() {
  if (l1_) (void)l1_->flush();
  if (l1i_) (void)l1i_->flush();
  if (kind_ == engine_kind::secure_dma)
    (void)static_cast<dma_edu&>(*edu_).flush();
}

} // namespace buscrypt::edu
