#include "edu/integrity_edu.hpp"

#include "common/bitops.hpp"
#include "edu/batch.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace buscrypt::edu {

integrity_edu::integrity_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                             std::span<const u8> mac_key, integrity_edu_config cfg)
    : edu(lower), prf_(&prf), mac_key_(mac_key), cfg_(cfg) {
  if (cfg_.line_bytes == 0 || cfg_.line_bytes % prf.block_size() != 0)
    throw std::invalid_argument("integrity_edu: line must be a PRF-block multiple");
  if (cfg_.tag_bytes == 0 || cfg_.tag_bytes > 32)
    throw std::invalid_argument("integrity_edu: tag_bytes must be 1..32");
  if (cfg_.tag_base < cfg_.protected_limit)
    throw std::invalid_argument("integrity_edu: tag region overlaps protected range");
}

std::string_view integrity_edu::name() const noexcept {
  switch (cfg_.level) {
    case integrity_level::none: return "Integrity-off";
    case integrity_level::mac: return "Integrity-MAC";
    case integrity_level::mac_versioned: return "Integrity-MAC+ver";
  }
  return "?";
}

u64 integrity_edu::version_of(addr_t line_addr) const noexcept {
  const auto it = versions_.find(line_addr);
  return it == versions_.end() ? 0 : it->second;
}

void integrity_edu::pad_line(addr_t line_addr, u64 version, std::span<u8> buf) const {
  // Pad block i = E(tweak ^ block_index || version): seekable by address
  // AND fresh per version, so pad reuse across writes never happens when
  // versioning is on.
  const std::size_t bs = prf_->block_size();
  bytes block(bs, 0);
  bytes pad(bs);
  for (std::size_t off = 0; off < buf.size(); off += bs) {
    store_be64(block.data(), cfg_.tweak ^ ((line_addr + off) / bs));
    if (bs >= 16) store_be64(block.data() + 8, version);
    else block[0] ^= static_cast<u8>(version);
    prf_->encrypt_block(block, pad);
    const std::size_t n = std::min(bs, buf.size() - off);
    xor_bytes(buf.subspan(off, n), pad);
  }
}

bytes integrity_edu::line_tag(addr_t line_addr, u64 version,
                              std::span<const u8> ciphertext) const {
  u8 head[16]{};
  store_be64(head, line_addr); // binds the tag to its address (anti-splice)
  store_be64(head + 8, cfg_.level == integrity_level::mac_versioned ? version : 0);
  return mac_key_.tag({head, ciphertext}, cfg_.tag_bytes);
}

cycles integrity_edu::mac_time(std::size_t nbytes) const noexcept {
  return cfg_.mac_startup +
         static_cast<cycles>(static_cast<double>(nbytes) * cfg_.mac_cycles_per_byte);
}

cycles integrity_edu::fetch_tag(addr_t line_addr, std::span<u8> out) {
  const addr_t ta = tag_addr(line_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  const std::size_t off = static_cast<std::size_t>(ta - tag_line);

  auto it = tag_cache_.find(tag_line);
  cycles spent = 0;
  if (it == tag_cache_.end() || cfg_.tag_cache_entries == 0) {
    ++tag_misses_;
    bytes fill(k_tag_line);
    spent = lower_->read(tag_line, fill);
    if (cfg_.tag_cache_entries != 0) {
      if (tag_cache_fifo_.size() >= cfg_.tag_cache_entries) {
        tag_cache_.erase(tag_cache_fifo_.front());
        tag_cache_fifo_.erase(tag_cache_fifo_.begin());
      }
      it = tag_cache_.emplace(tag_line, std::move(fill)).first;
      tag_cache_fifo_.push_back(tag_line);
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = fill[off + i];
      return spent;
    }
  } else {
    ++tag_hits_;
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = it->second[off + i];
  return spent;
}

cycles integrity_edu::store_tag(addr_t line_addr, std::span<const u8> tag) {
  const addr_t ta = tag_addr(line_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  const auto it = tag_cache_.find(tag_line);
  if (it != tag_cache_.end()) {
    const std::size_t off = static_cast<std::size_t>(ta - tag_line);
    for (std::size_t i = 0; i < tag.size(); ++i) it->second[off + i] = tag[i];
  }
  return lower_->write(ta, tag); // write-through: the chip stays in sync
}

cycles integrity_edu::read_line(addr_t line_addr, std::span<u8> out) {
  const cycles mem = lower_->read(line_addr, out);
  cycles total = mem;

  if (cfg_.level != integrity_level::none) {
    // Fetch and verify the tag BEFORE releasing data to the cache. The
    // MAC unit streams over the beats as they arrive, so only its fill
    // latency plus any excess over the burst is exposed.
    bytes stored_tag(cfg_.tag_bytes);
    total += fetch_tag(line_addr, stored_tag);
    const bytes expect = line_tag(line_addr, version_of(line_addr), out);
    if (!crypto::tag_equal(expect, stored_tag)) ++tamper_events_;
    const cycles mac_t = mac_time(cfg_.line_bytes);
    const cycles exposed = cfg_.mac_startup + (mac_t > mem ? mac_t - mem : 0);
    total += exposed;
    stats_.crypto_cycles += exposed;
  }

  // Decrypt: pad generation overlapped with the fetch.
  const u64 version = version_of(line_addr);
  pad_line(line_addr, version, out);
  const std::size_t nblocks = cfg_.pad_core.blocks_for(cfg_.line_bytes);
  stats_.cipher_blocks += nblocks;
  const cycles pad_t = cfg_.pad_core.time_parallel(nblocks);
  if (pad_t > mem) {
    total += pad_t - mem;
    stats_.crypto_cycles += pad_t - mem;
  }
  total += 1; // XOR stage
  return total;
}

cycles integrity_edu::write_line(addr_t line_addr, std::span<const u8> in) {
  u64 version = version_of(line_addr);
  if (cfg_.level == integrity_level::mac_versioned) version = ++versions_[line_addr];

  bytes ct(in.begin(), in.end());
  pad_line(line_addr, version, ct);
  const std::size_t nblocks = cfg_.pad_core.blocks_for(cfg_.line_bytes);
  stats_.cipher_blocks += nblocks;

  cycles total = cfg_.pad_core.time_parallel(nblocks) + 1;
  stats_.crypto_cycles += total;
  total += lower_->write(line_addr, ct);

  if (cfg_.level != integrity_level::none) {
    const bytes tag = line_tag(line_addr, version, ct);
    total += mac_time(cfg_.line_bytes);
    stats_.crypto_cycles += mac_time(cfg_.line_bytes);
    total += store_tag(line_addr, tag);
  }
  return total;
}

void integrity_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  txn_batcher& b = open_window();
  const std::size_t lb = cfg_.line_bytes;
  const std::size_t nblocks = cfg_.pad_core.blocks_for(lb);
  const cycles pad_t = cfg_.pad_core.time_parallel(nblocks);
  const bool authed = cfg_.level != integrity_level::none;

  // Window tag plumbing: deduplicated tag-line fetches riding the same
  // lower window, plus the tags this window stages (forwarded to later
  // reads and applied to the on-chip cache at retirement).
  struct tag_fetch {
    addr_t line = 0;
    std::size_t li = 0;
    bytes* buf = nullptr;
  };
  std::vector<tag_fetch> fetches;
  std::unordered_map<addr_t, std::size_t> fetch_map; ///< tag line -> fetches idx
  std::unordered_map<addr_t, bytes> staged_tags;     ///< tag addr -> staged tag
  bool hooked = false;
  auto hook = [&] {
    if (hooked) return;
    hooked = true;
    b.at_flush_end([&] {
      // Install fetched tag lines (FIFO, as fetch_tag does) and lay the
      // window's staged tags on top — the state scalar issue leaves.
      if (cfg_.tag_cache_entries != 0) {
        for (const tag_fetch& tf : fetches) {
          if (tag_cache_.find(tf.line) != tag_cache_.end()) continue;
          if (tag_cache_fifo_.size() >= cfg_.tag_cache_entries) {
            tag_cache_.erase(tag_cache_fifo_.front());
            tag_cache_fifo_.erase(tag_cache_fifo_.begin());
          }
          tag_cache_.emplace(tf.line, *tf.buf);
          tag_cache_fifo_.push_back(tf.line);
        }
        for (const auto& [ta, tag] : staged_tags) {
          const addr_t line = ta - ta % k_tag_line;
          const auto it = tag_cache_.find(line);
          if (it == tag_cache_.end()) continue;
          const std::size_t off = static_cast<std::size_t>(ta - line);
          std::copy(tag.begin(), tag.end(),
                    it->second.begin() + static_cast<std::ptrdiff_t>(off));
        }
      }
      fetches.clear();
      fetch_map.clear();
      staged_tags.clear();
      hooked = false;
    });
  };

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    bool eligible = !txn.segments.empty();
    for (const sim::txn_segment& seg : txn.segments)
      if (seg.data.empty() || seg.addr % lb != 0 || seg.data.size() % lb != 0) {
        eligible = false;
        break;
      }
    if (!eligible) {
      b.detour_via(txn, scalar_unit(*this));
      continue;
    }
    for (sim::txn_segment& seg : txn.segments) {
      if (txn.is_write()) ++stats_.writes;
      else ++stats_.reads;
      for (std::size_t off = 0; off < seg.data.size(); off += lb) {
        const addr_t a = seg.addr + off;
        std::span<u8> line = seg.data.subspan(off, lb);
        stats_.cipher_blocks += nblocks;
        if (txn.is_write()) {
          u64 v = version_of(a);
          if (cfg_.level == integrity_level::mac_versioned) v = ++versions_[a];
          bytes& ct = b.scratch_copy(line);
          pad_line(a, v, ct);
          b.add_par(txn_batcher::no_lower, pad_t, 1);
          stats_.crypto_cycles += pad_t + 1;
          (void)b.queue(sim::txn_op::write, txn.master, a, ct);
          if (authed) {
            const bytes tag = line_tag(a, v, ct);
            const cycles mac_t = mac_time(lb);
            stats_.crypto_cycles += mac_t;
            b.add_pre(mac_t);
            const addr_t ta = tag_addr(a);
            // Write-through, exactly as store_tag: the cached copy (if
            // any) updates now; the DRAM store rides this window.
            const addr_t tline = ta - ta % k_tag_line;
            if (const auto it = tag_cache_.find(tline); it != tag_cache_.end()) {
              const std::size_t toff = static_cast<std::size_t>(ta - tline);
              std::copy(tag.begin(), tag.end(),
                        it->second.begin() + static_cast<std::ptrdiff_t>(toff));
            }
            staged_tags[ta] = tag;
            hook();
            bytes& tb = b.scratch_copy(tag);
            (void)b.queue_side(sim::txn_op::write, txn.master, ta, tb);
          }
          continue;
        }
        // Read: snapshot the version now (a later in-window write must not
        // bleed its bumped version into this line's pad or tag check).
        const u64 v = version_of(a);
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
        if (authed) {
          const addr_t ta = tag_addr(a);
          const addr_t tline = ta - ta % k_tag_line;
          const std::size_t toff = static_cast<std::size_t>(ta - tline);
          std::size_t tag_li = txn_batcher::no_lower;
          std::function<bytes()> stored;
          const auto fwd = staged_tags.find(ta);
          const auto cached = tag_cache_.find(tline);
          if (cfg_.tag_cache_entries != 0 && fwd != staged_tags.end()) {
            // In-flush forwarding: the tag a write staged moments ago.
            ++tag_hits_;
            stored = [tag = fwd->second] { return tag; };
          } else if (cfg_.tag_cache_entries != 0 && cached != tag_cache_.end()) {
            ++tag_hits_;
            const auto* line_bytes = &cached->second;
            bytes tag(line_bytes->begin() + static_cast<std::ptrdiff_t>(toff),
                      line_bytes->begin() +
                          static_cast<std::ptrdiff_t>(toff + cfg_.tag_bytes));
            stored = [tag = std::move(tag)] { return tag; };
          } else {
            ++tag_misses_;
            std::size_t idx;
            if (cfg_.tag_cache_entries == 0) {
              // Naive design: one tag fetch per access, nothing retained.
              bytes& fb = b.scratch(k_tag_line);
              idx = fetches.size();
              fetches.push_back({tline, b.queue_side(sim::txn_op::read, txn.master,
                                                     tline, fb),
                                 &fb});
            } else {
              const auto [it, inserted] = fetch_map.try_emplace(tline, fetches.size());
              if (inserted) {
                bytes& fb = b.scratch(k_tag_line);
                fetches.push_back({tline, b.queue_side(sim::txn_op::read, txn.master,
                                                       tline, fb),
                                   &fb});
              }
              idx = it->second;
            }
            hook();
            tag_li = fetches[idx].li;
            stored = [buf = fetches[idx].buf, toff, n = cfg_.tag_bytes] {
              return bytes(buf->begin() + static_cast<std::ptrdiff_t>(toff),
                           buf->begin() + static_cast<std::ptrdiff_t>(toff + n));
            };
          }
          // The serial MAC unit starts once data AND tag have arrived;
          // verification consumes the ciphertext before the pad pass.
          const cycles mac_t = mac_time(lb);
          stats_.crypto_cycles += mac_t;
          b.add_gated(li, tag_li, mac_t, [this, a, v, line, stored = std::move(stored)] {
            const bytes expect = line_tag(a, v, line);
            if (!crypto::tag_equal(expect, stored())) ++tamper_events_;
          });
        }
        stats_.crypto_cycles += 1; // the XOR stage
        b.add_par(li, pad_t, 1, [this, a, v, line] { pad_line(a, v, line); });
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles integrity_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  const std::size_t lb = cfg_.line_bytes;
  const addr_t base = addr - addr % lb;
  const addr_t end_addr = addr + out.size();
  const addr_t end = (end_addr % lb == 0) ? end_addr : end_addr + lb - end_addr % lb;

  bytes buf(static_cast<std::size_t>(end - base));
  cycles total = 0;
  for (addr_t a = base; a < end; a += lb)
    total += read_line(a, std::span<u8>(buf).subspan(static_cast<std::size_t>(a - base), lb));
  const std::size_t head = static_cast<std::size_t>(addr - base);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = buf[head + i];
  return total;
}

cycles integrity_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  const std::size_t lb = cfg_.line_bytes;
  const addr_t base = addr - addr % lb;
  const addr_t end_addr = addr + in.size();
  const addr_t end = (end_addr % lb == 0) ? end_addr : end_addr + lb - end_addr % lb;
  const std::size_t span_len = static_cast<std::size_t>(end - base);

  bytes buf(span_len);
  cycles total = 0;
  if (span_len != in.size()) {
    // The tag covers whole lines: sub-line stores read-modify-write.
    ++stats_.rmw_ops;
    total += read(base, buf);
  }
  const std::size_t head = static_cast<std::size_t>(addr - base);
  for (std::size_t i = 0; i < in.size(); ++i) buf[head + i] = in[i];
  for (addr_t a = base; a < end; a += lb)
    total += write_line(a, std::span<const u8>(buf).subspan(
                               static_cast<std::size_t>(a - base), lb));
  return total;
}

} // namespace buscrypt::edu
