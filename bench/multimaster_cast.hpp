#pragma once
// The shared multi-master scenario of tab8 and tab12: the 4-master cast
// (CPU compute, two DMA movers, one peripheral poller), its SoC geometry
// and its arbitration constants. tab8 sweeps this cast over every engine
// on the flat bus; tab12 scales the same role pattern up the topology
// tree.

#include "bench_util.hpp"

#include <vector>

namespace buscrypt::bench {

inline constexpr unsigned kMmBanks = 8;
inline constexpr std::size_t kMmWindowTxns = 8;
inline constexpr u64 kMmStarvationLimit = 32;

inline constexpr addr_t kMmDma1Src = 2u << 20;
inline constexpr addr_t kMmDma1Dst = (2u << 20) + (1u << 19);
inline constexpr addr_t kMmDma2Src = 4u << 20;
inline constexpr addr_t kMmDma2Dst = (4u << 20) + (1u << 19);
inline constexpr addr_t kMmPeriphRegs = 3u << 20;
inline constexpr std::size_t kMmDmaBytes = 48 * 1024;

inline edu::soc_config multimaster_soc() {
  edu::soc_config cfg = default_soc();
  cfg.mem_timing.banks = kMmBanks;
  return cfg;
}

/// The full 4-master cast; a run with N masters takes the first N.
/// Order matters for the scaling story: the bandwidth-bound DMA engines
/// join before the latency-bound peripheral.
inline std::vector<edu::master_desc> multimaster_cast(bool keyslot_domains) {
  std::vector<edu::master_desc> m(4);
  m[0].role = edu::master_kind::cpu;
  m[0].name = "cpu";
  m[0].work = sim::make_data_rw(4000, 64 * 1024, 0.5, 0.4, 8, 0x7AB8);
  m[0].priority = 5;
  m[1].role = edu::master_kind::dma;
  m[1].name = "dma0";
  m[1].work = sim::make_dma_copy(kMmDmaBytes, kMmDma1Src, kMmDma1Dst, 128, 0x7AB9);
  m[1].priority = 1;
  m[2].role = edu::master_kind::dma;
  m[2].name = "dma1";
  m[2].work = sim::make_dma_copy(kMmDmaBytes, kMmDma2Src, kMmDma2Dst, 128, 0x7ABA);
  m[2].priority = 1;
  m[3].role = edu::master_kind::peripheral;
  m[3].name = "periph";
  m[3].work = sim::make_peripheral_poll(2000, kMmPeriphRegs, 8, 64, 16, 0x7ABB);
  m[3].priority = 9;
  if (keyslot_domains) {
    m[1].domain_base = kMmDma1Src;
    m[1].domain_len = 1u << 20;
    m[2].domain_base = kMmDma2Src;
    m[2].domain_len = 1u << 20;
  }
  return m;
}

} // namespace buscrypt::bench
