#include "edu/gilmont_edu.hpp"

#include "crypto/modes.hpp"
#include "edu/batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

gilmont_edu::gilmont_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                         gilmont_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg) {
  if (cfg_.line_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("gilmont_edu: line must be a block multiple");
  if (cfg_.code_limit % cfg_.line_bytes != 0)
    throw std::invalid_argument("gilmont_edu: code_limit must be line-aligned");
  pf_data_.resize(cfg_.line_bytes);
}

void gilmont_edu::crypt_line(std::span<u8> buf, bool encrypt) {
  if (!cfg_.encrypt) return; // prefetch-only baseline
  stats_.cipher_blocks += buf.size() / cipher_->block_size();
  if (encrypt)
    crypto::ecb_encrypt(*cipher_, buf, buf);
  else
    crypto::ecb_decrypt(*cipher_, buf, buf);
}

void gilmont_edu::prefetch(addr_t line_addr) {
  if (line_addr + cfg_.line_bytes > cfg_.code_limit) {
    pf_valid_ = false;
    return;
  }
  // The prefetch read + decrypt happen in the background; its cycles do
  // not appear on the critical path (bus contention is the price, noted in
  // DESIGN.md). Functional effect: the decrypted next line is staged.
  (void)lower_->read(line_addr, pf_data_);
  crypt_line(pf_data_, /*encrypt=*/false);
  pf_valid_ = true;
  pf_addr_ = line_addr;
}

void gilmont_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  txn_batcher& b = open_window();
  const std::size_t lb = cfg_.line_bytes;

  // Window view of the one-deep prefetch buffer. Each background fetch
  // executes as an uncharged zero-cycle retirement job: after the window's
  // demand traffic has drained (the prefetcher yields the bus to demand
  // fetches) but before any later hit's copy-out that depends on it. Its
  // cycles stay off the critical path, exactly as the detour's
  // fire-and-forget prefetch(); wpf_buf points at the staged fill until the
  // flush hook commits the last one into pf_data_.
  bool wpf_valid = pf_valid_;
  addr_t wpf_addr = pf_addr_;
  bytes* wpf_buf = nullptr; // null = pf_data_ holds settled data
  bool hooked = false;
  auto hook = [&] {
    if (hooked) return;
    hooked = true;
    b.at_flush_end([&] {
      if (wpf_buf != nullptr)
        std::copy(wpf_buf->begin(), wpf_buf->end(), pf_data_.begin());
      pf_valid_ = wpf_valid;
      pf_addr_ = wpf_addr;
      wpf_buf = nullptr;
      hooked = false;
    });
  };
  auto prefetch_native = [&](addr_t line_addr) {
    hook();
    if (line_addr + lb > cfg_.code_limit) {
      wpf_valid = false;
      return;
    }
    bytes& buf = b.scratch(lb);
    b.add_local(0, [this, &buf, line_addr] {
      (void)lower_->read(line_addr, buf);
      crypt_line(buf, /*encrypt=*/false);
    });
    wpf_valid = true;
    wpf_addr = line_addr;
    wpf_buf = &buf;
  };

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    // Native: pure data-region segments (either direction) and line-aligned
    // code-region reads. Everything else — code writes (they must
    // invalidate the prefetch buffer before any later fetch), unaligned
    // code reads, boundary straddles — detours in order.
    bool eligible = !txn.segments.empty();
    for (const sim::txn_segment& seg : txn.segments) {
      const bool data_region = seg.addr >= cfg_.code_limit;
      const bool code_read = !txn.is_write() && seg.addr % lb == 0 &&
                             seg.data.size() % lb == 0 && !seg.data.empty() &&
                             seg.addr + seg.data.size() <= cfg_.code_limit;
      if (!data_region && !code_read) {
        eligible = false;
        break;
      }
    }
    if (!eligible) {
      // The flush inside commits the window's prefetch state into
      // pf_data_; the detour may then move the predictor, so
      // resynchronise the window view afterwards.
      b.detour_via(txn, [this](bool write, addr_t addr, std::span<u8> data) {
        return serve_detour(write, addr, data);
      });
      wpf_valid = pf_valid_;
      wpf_addr = pf_addr_;
      wpf_buf = nullptr;
      continue;
    }
    for (sim::txn_segment& seg : txn.segments) {
      if (seg.addr >= cfg_.code_limit) { // clear-form data passthrough
        if (txn.is_write()) ++stats_.writes;
        else ++stats_.reads;
        (void)b.queue(txn.op, txn.master, seg.addr, seg.data);
        continue;
      }
      for (std::size_t off = 0; off < seg.data.size(); off += lb) {
        const addr_t a = seg.addr + off;
        std::span<u8> line = seg.data.subspan(off, lb);
        ++stats_.reads;
        if (cfg_.fetch_prediction && wpf_valid && wpf_addr == a) {
          // Predicted: the line is fetched (or in flight in this very
          // window) and deciphered by retirement. The copy-out runs at
          // retirement too — the destination span may double as an
          // earlier queued write's source (the cache's evict/fill pair
          // reuses one line buffer).
          ++prefetch_hits_;
          bytes* src = wpf_buf;
          if (src == nullptr) src = &b.scratch_copy(pf_data_);
          b.add_local(1,
                      [line, src] { std::copy(src->begin(), src->end(), line.begin()); });
          wpf_valid = false;
          prefetch_native(a + lb);
          continue;
        }
        ++prefetch_misses_;
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
        const cycles crypt =
            cfg_.encrypt ? cfg_.core.time_parallel(cfg_.core.blocks_for(lb)) : 0;
        stats_.crypto_cycles += crypt;
        b.add_gated(li, txn_batcher::no_lower, crypt,
                    [this, line] { crypt_line(line, /*encrypt=*/false); });
        if (cfg_.fetch_prediction) prefetch_native(a + lb);
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles gilmont_edu::serve_detour(bool write, addr_t addr, std::span<u8> data) {
  if (write) ++stats_.writes;
  else ++stats_.reads;
  // Data region: clear-form passthrough (the surveyed limitation).
  if (addr >= cfg_.code_limit)
    return write ? lower_->write(addr, data) : lower_->read(addr, data);

  // Cover the code bytes with whole lines. A write's bytes at or above
  // code_limit are data: they stay clear form, outside the cover.
  const std::size_t lb = cfg_.line_bytes;
  const std::size_t code_len =
      write ? std::min<std::size_t>(data.size(), cfg_.code_limit - addr) : data.size();
  const addr_t base = addr - addr % lb;
  const addr_t end = (addr + code_len + lb - 1) / lb * lb;
  const std::size_t span_len = static_cast<std::size_t>(end - base);
  const std::size_t head = static_cast<std::size_t>(addr - base);

  if (!write && (head != 0 || data.size() != lb)) {
    // Split to line-aligned requests.
    bytes buf(span_len);
    cycles total = 0;
    for (std::size_t off = 0; off < span_len; off += lb)
      total += serve_detour(false, base + off, std::span<u8>(buf).subspan(off, lb));
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(head), data.size(),
                data.begin());
    return total;
  }

  if (!write && cfg_.fetch_prediction && pf_valid_ && pf_addr_ == addr) {
    // Predicted correctly: the line is already fetched AND deciphered.
    ++prefetch_hits_;
    std::copy(pf_data_.begin(), pf_data_.end(), data.begin());
    pf_valid_ = false;
    prefetch(addr + lb);
    return 1;
  }

  const cycles crypt_cost =
      cfg_.encrypt ? cfg_.core.time_parallel(cfg_.core.blocks_for(span_len)) : 0;
  stats_.crypto_cycles += crypt_cost;
  if (!write) {
    ++prefetch_misses_;
    const cycles mem = lower_->read(addr, data);
    crypt_line(data, /*encrypt=*/false);
    if (cfg_.fetch_prediction) prefetch(addr + lb);
    return mem + crypt_cost;
  }

  // Static code is installed through the cipher; runtime code writes are
  // rare (self-modifying code) but handled: line-aligned encrypt, with the
  // five-step penalty for partial lines.
  // Invalidate the prefetch buffer if any written line overlaps it.
  if (pf_valid_ && base < pf_addr_ + lb && pf_addr_ < end) pf_valid_ = false;

  bytes buf(span_len);
  cycles total = 0;
  if (span_len != code_len) {
    ++stats_.rmw_ops;
    total += lower_->read(base, buf);
    crypt_line(buf, /*encrypt=*/false);
    total += crypt_cost;
  }
  std::copy_n(data.begin(), code_len, buf.begin() + static_cast<std::ptrdiff_t>(head));
  crypt_line(buf, /*encrypt=*/true);
  total += crypt_cost + lower_->write(base, buf);
  if (code_len < data.size())
    total += lower_->write(cfg_.code_limit, data.subspan(code_len));
  return total;
}

} // namespace buscrypt::edu
