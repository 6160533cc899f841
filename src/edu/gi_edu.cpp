#include "edu/gi_edu.hpp"

#include "common/bitops.hpp"
#include "crypto/modes.hpp"
#include "edu/batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

gi_edu::gi_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
               std::span<const u8> mac_key, gi_edu_config cfg)
    : edu(lower), cipher_(&cipher), mac_key_(mac_key), cfg_(cfg) {
  if (cfg_.segment_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("gi_edu: segment must be a block multiple");
  if (cfg_.tag_bytes == 0 || cfg_.tag_bytes > 32)
    throw std::invalid_argument("gi_edu: tag_bytes must be 1..32");
}

void gi_edu::derive_iv(addr_t seg_base, std::span<u8> iv) const {
  bytes src(cipher_->block_size(), 0);
  store_be64(src.data(), cfg_.iv_tweak ^ seg_base);
  cipher_->encrypt_block(src, iv);
}

bytes gi_edu::compute_tag(addr_t seg_base, std::span<const u8> plain) const {
  // Keyed hash over (address || plaintext) so segments cannot be swapped.
  u8 head[8]{};
  store_be64(head, seg_base);
  return mac_key_.tag({head, plain}, cfg_.tag_bytes);
}

cycles gi_edu::hash_time(std::size_t nbytes) const noexcept {
  return cfg_.hash_startup +
         static_cast<cycles>(static_cast<double>(nbytes) * cfg_.hash_cycles_per_byte);
}

void gi_edu::touch_verified(addr_t seg_base) {
  auto it = std::find(verified_lru_.begin(), verified_lru_.end(), seg_base);
  if (it != verified_lru_.end()) verified_lru_.erase(it);
  verified_lru_.push_back(seg_base);
  if (verified_lru_.size() > cfg_.verified_cache_entries)
    verified_lru_.erase(verified_lru_.begin());
}

bool gi_edu::recently_verified(addr_t seg_base) const noexcept {
  return std::find(verified_lru_.begin(), verified_lru_.end(), seg_base) !=
         verified_lru_.end();
}

gi_edu::fetch_plan gi_edu::plan_fetch(addr_t seg_base) {
  const std::size_t nblocks = cfg_.core.blocks_for(cfg_.segment_bytes);
  fetch_plan plan{cfg_.core.time_parallel(nblocks),
                  cfg_.authenticate && !recently_verified(seg_base)};
  if (plan.verify) {
    plan.crypt += hash_time(cfg_.segment_bytes);
    touch_verified(seg_base);
  }
  stats_.cipher_blocks += nblocks + 1;
  stats_.crypto_cycles += plan.crypt;
  return plan;
}

void gi_edu::open_segment(addr_t seg_base, std::span<u8> buf, bool verify) {
  bytes iv(cipher_->block_size());
  derive_iv(seg_base, iv);
  crypto::cbc_decrypt(*cipher_, iv, buf, buf);
  if (!verify) return;
  const bytes tag = compute_tag(seg_base, buf);
  const auto it = tags_.find(seg_base);
  if (it == tags_.end() || !crypto::tag_equal(tag, it->second)) ++auth_failures_;
}

cycles gi_edu::store_segment(addr_t seg_base, std::span<const u8> plain) {
  bytes ct(plain.begin(), plain.end());
  bytes iv(cipher_->block_size());
  derive_iv(seg_base, iv);
  crypto::cbc_encrypt(*cipher_, iv, ct, ct);
  const std::size_t nblocks = cfg_.core.blocks_for(cfg_.segment_bytes);
  stats_.cipher_blocks += nblocks + 1;

  cycles spent = cfg_.core.time_chained(nblocks); // CBC encrypt is serial
  if (cfg_.authenticate) {
    tags_[seg_base] = compute_tag(seg_base, plain);
    spent += hash_time(cfg_.segment_bytes);
    touch_verified(seg_base);
  }
  stats_.crypto_cycles += spent;
  spent += lower_->write(seg_base, ct);
  return spent;
}

void gi_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  txn_batcher& b = open_window();
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    // Writes RMW whole segments (data-dependent ciphertext): detour.
    if (txn.is_write() || txn.segments.empty()) {
      b.detour_via(txn, [this](bool, addr_t addr, std::span<u8> data) {
        return write_segments(addr, data);
      });
      continue;
    }
    for (sim::txn_segment& seg : txn.segments) {
      ++stats_.reads; // one count per segment
      std::size_t done = 0;
      while (done < seg.data.size()) {
        const addr_t a = seg.addr + done;
        const addr_t base = a - a % cfg_.segment_bytes;
        const std::size_t off = static_cast<std::size_t>(a - base);
        const std::size_t n = std::min(cfg_.segment_bytes - off, seg.data.size() - done);

        bytes& buf = b.scratch(cfg_.segment_bytes);
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, base, buf);
        // The verified-LRU decision is state, not data: advance it in
        // submission order now so later ops in the window see it.
        const fetch_plan plan = plan_fetch(base);
        b.add_gated(li, txn_batcher::no_lower, plan.crypt,
                    [this, base, &buf, off, out = seg.data.subspan(done, n), plan] {
                      open_segment(base, buf, plan.verify);
                      std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(off),
                                  out.size(), out.begin());
                    });
        done += n;
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles gi_edu::write_segments(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  cycles total = 0;
  std::size_t done = 0;
  while (done < in.size()) {
    const addr_t a = addr + done;
    const addr_t base = a - a % cfg_.segment_bytes;
    const std::size_t off = static_cast<std::size_t>(a - base);
    const std::size_t n = std::min(cfg_.segment_bytes - off, in.size() - done);

    if (off == 0 && n == cfg_.segment_bytes) {
      // Full-segment write: no need to fetch the old contents.
      total += store_segment(base, in.subspan(done, n));
    } else {
      // Whole-segment read-modify-write: the CBC chain and the tag both
      // cover the full segment.
      ++stats_.rmw_ops;
      bytes plain(cfg_.segment_bytes);
      total += lower_->read(base, plain);
      const fetch_plan plan = plan_fetch(base);
      open_segment(base, plain, plan.verify);
      total += plan.crypt;
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(done), n,
                  plain.begin() + static_cast<std::ptrdiff_t>(off));
      total += store_segment(base, plain);
    }
    done += n;
  }
  return total;
}

} // namespace buscrypt::edu
