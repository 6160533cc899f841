#include "edu/compress_edu.hpp"

#include "common/bitops.hpp"
#include "edu/batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

compress_edu::compress_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                           compress_edu_config cfg)
    : edu(lower), pad_(prf, cfg.tweak), cfg_(cfg), engine_(cfg.group_bytes) {}

bool compress_edu::in_code(addr_t addr, std::size_t len) const noexcept {
  return code_installed_ && addr >= code_base_ &&
         addr + len <= code_base_ + code_size_;
}

void compress_edu::install_code(addr_t base, std::span<const u8> code) {
  if (code_installed_) throw std::logic_error("compress_edu: code already installed");
  bytes padded(code.begin(), code.end());
  while (padded.size() % 4 != 0) padded.push_back(0);

  image_ = engine_.compress_image(padded);
  code_base_ = base;
  code_size_ = code.size();

  // Pack groups back-to-back in external memory starting at the code base.
  group_extent_.clear();
  addr_t phys = base;
  for (std::size_t g = 0; g < image_.group_bit_offsets.size(); ++g) {
    const std::size_t start_bit = image_.group_bit_offsets[g];
    const std::size_t end_bit = (g + 1 < image_.group_bit_offsets.size())
                                    ? image_.group_bit_offsets[g + 1]
                                    : image_.payload.size() * 8;
    const std::size_t start_byte = start_bit / 8;
    const std::size_t end_byte = (end_bit + 7) / 8;
    const std::size_t len = end_byte - start_byte;

    bytes chunk(image_.payload.begin() + static_cast<std::ptrdiff_t>(start_byte),
                image_.payload.begin() + static_cast<std::ptrdiff_t>(end_byte));
    if (cfg_.encrypt) {
      bytes pad(chunk.size());
      pad_.generate(phys, pad);
      xor_bytes(chunk, pad);
    }
    (void)lower_->write(phys, chunk);
    group_extent_.emplace_back(static_cast<u32>(phys - base), static_cast<u32>(len));
    phys += len;
  }
  if (phys > base + code_size_)
    throw std::logic_error("compress_edu: image expanded beyond its region");
  code_installed_ = true;
}

void compress_edu::install_image(addr_t base, std::span<const u8> plain) {
  if (!code_installed_) {
    install_code(base, plain);
    return;
  }
  // Subsequent regions are data: pad-encrypted, uncompressed.
  constexpr std::size_t chunk = 64;
  std::size_t off = 0;
  while (off < plain.size()) {
    const std::size_t n = std::min(chunk, plain.size() - off);
    (void)write(base + off, plain.subspan(off, n));
    off += n;
  }
}

void compress_edu::read_image(addr_t base, std::span<u8> plain_out) {
  std::size_t off = 0;
  while (off < plain_out.size()) {
    const std::size_t n = std::min<std::size_t>(32, plain_out.size() - off);
    (void)read(base + off, plain_out.subspan(off, n));
    off += n;
  }
}

cycles compress_edu::read_code(addr_t addr, std::span<u8> out) {
  cycles total = 0;
  std::size_t done = 0;
  while (done < out.size()) {
    const addr_t a = addr + done;
    const std::size_t g = static_cast<std::size_t>(a - code_base_) / image_.group_bytes;
    const std::size_t in_group = static_cast<std::size_t>(a - code_base_) % image_.group_bytes;
    const std::size_t n = std::min(image_.group_bytes - in_group, out.size() - done);

    const auto [phys_off, len] = group_extent_[g];
    const addr_t phys = code_base_ + phys_off;

    // Fetch the *compressed* group: fewer bus beats than a raw line.
    bytes chunk(len);
    const cycles mem = lower_->read(phys, chunk);
    cycles spent = mem;
    if (cfg_.encrypt) {
      bytes pad(chunk.size());
      pad_.generate(phys, pad);
      stats_.cipher_blocks += pad_.blocks_covering(phys, chunk.size());
      xor_bytes(chunk, pad);
      const cycles pad_t =
          cfg_.pad_core.time_parallel(pad_.blocks_covering(phys, chunk.size()));
      spent = std::max(mem, pad_t) + cfg_.xor_cycles;
    }
    // The decompressor streams: it consumes beats as they arrive (CodePack
    // style), so only its drain beyond the transfer is exposed.
    const cycles mem_and_pad = spent;

    // Stream the decrypted chunk straight into the decompressor, exactly
    // as the hardware fill path would.
    const std::size_t group_base = g * image_.group_bytes;
    const std::size_t group_len =
        std::min(image_.group_bytes, image_.original_size - group_base);
    const bytes group_plain = engine_.decompress_chunk(
        chunk, image_.group_bit_offsets[g] % 8, group_len, image_);
    spent = std::max(mem_and_pad, cfg_.decomp.latency_for(group_plain.size())) +
            cfg_.decomp.startup;
    stats_.crypto_cycles += spent - mem;

    for (std::size_t i = 0; i < n; ++i) out[done + i] = group_plain[in_group + i];
    total += spent;
    done += n;
  }
  return total;
}

cycles compress_edu::pad_io(addr_t addr, std::span<u8> buf, bool is_write,
                            std::span<const u8> wdata) {
  const std::size_t len = is_write ? wdata.size() : buf.size();
  const cycles pad_t = cfg_.encrypt
                           ? cfg_.pad_core.time_parallel(pad_.blocks_covering(addr, len))
                           : 0;
  cycles mem;
  if (is_write) {
    bytes ct(wdata.begin(), wdata.end());
    if (cfg_.encrypt) {
      bytes pad(ct.size());
      pad_.generate(addr, pad);
      stats_.cipher_blocks += pad_.blocks_covering(addr, ct.size());
      xor_bytes(ct, pad);
    }
    mem = lower_->write(addr, ct);
  } else {
    mem = lower_->read(addr, buf);
    if (cfg_.encrypt) {
      bytes pad(buf.size());
      pad_.generate(addr, pad);
      stats_.cipher_blocks += pad_.blocks_covering(addr, buf.size());
      xor_bytes(buf, pad);
    }
  }
  const cycles total = cfg_.encrypt ? std::max(mem, pad_t) + cfg_.xor_cycles : mem;
  stats_.crypto_cycles += total - mem;
  return total;
}

void compress_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  txn_batcher& b = open_window();
  // The decompressor keeps its group state hot across one window: only the
  // first group in each window pays the fill latency.
  u64 warm_window = static_cast<u64>(-1);

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    bool eligible = !txn.segments.empty();
    for (const sim::txn_segment& seg : txn.segments) {
      const bool code = in_code(seg.addr, seg.data.size());
      const bool code_overlap =
          code_installed_ && seg.addr < code_base_ + code_size_ &&
          seg.addr + seg.data.size() > code_base_;
      // Native: pure data segments, and whole-in-code reads. Straddles and
      // code writes (read-only region: the scalar path's error applies)
      // detour in order.
      if ((code_overlap && !code) || (code && txn.is_write())) {
        eligible = false;
        break;
      }
    }
    if (!eligible) {
      b.detour_via(txn, scalar_unit(*this));
      continue;
    }
    for (sim::txn_segment& seg : txn.segments) {
      if (txn.is_write()) ++stats_.writes;
      else ++stats_.reads;
      if (!in_code(seg.addr, seg.data.size())) {
        // Data region: the pad-overlap path.
        const cycles pad_t =
            cfg_.encrypt ? cfg_.pad_core.time_parallel(
                               pad_.blocks_covering(seg.addr, seg.data.size()))
                         : 0;
        if (txn.is_write()) {
          bytes& ct = b.scratch_copy(seg.data);
          if (cfg_.encrypt) {
            bytes pad(ct.size());
            pad_.generate(seg.addr, pad);
            stats_.cipher_blocks += pad_.blocks_covering(seg.addr, ct.size());
            xor_bytes(ct, pad);
            b.add_par(txn_batcher::no_lower, pad_t, cfg_.xor_cycles);
            stats_.crypto_cycles += cfg_.xor_cycles;
          }
          (void)b.queue(sim::txn_op::write, txn.master, seg.addr, ct);
        } else {
          const std::size_t li =
              b.queue(sim::txn_op::read, txn.master, seg.addr, seg.data);
          if (cfg_.encrypt) {
            stats_.cipher_blocks += pad_.blocks_covering(seg.addr, seg.data.size());
            stats_.crypto_cycles += cfg_.xor_cycles;
            b.add_par(li, pad_t, cfg_.xor_cycles,
                      [this, addr = seg.addr, data = seg.data] {
                        bytes pad(data.size());
                        pad_.generate(addr, pad);
                        xor_bytes(data, pad);
                      });
          }
        }
        continue;
      }
      // Code region read: group-by-group compressed fetches.
      std::size_t done = 0;
      while (done < seg.data.size()) {
        const addr_t a = seg.addr + done;
        const std::size_t g =
            static_cast<std::size_t>(a - code_base_) / image_.group_bytes;
        const std::size_t in_group =
            static_cast<std::size_t>(a - code_base_) % image_.group_bytes;
        const std::size_t n =
            std::min(image_.group_bytes - in_group, seg.data.size() - done);
        const auto [phys_off, len] = group_extent_[g];
        const addr_t phys = code_base_ + phys_off;

        bytes& chunk = b.scratch(len);
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, phys, chunk);
        if (cfg_.encrypt) {
          const cycles pad_t =
              cfg_.pad_core.time_parallel(pad_.blocks_covering(phys, len));
          stats_.cipher_blocks += pad_.blocks_covering(phys, len);
          stats_.crypto_cycles += cfg_.xor_cycles;
          b.add_par(li, pad_t, cfg_.xor_cycles, [this, phys, &chunk] {
            bytes pad(chunk.size());
            pad_.generate(phys, pad);
            xor_bytes(chunk, pad);
          });
        }
        const std::size_t group_base = g * image_.group_bytes;
        const std::size_t group_len =
            std::min(image_.group_bytes, image_.original_size - group_base);
        const bool first_in_window = warm_window != b.flush_seq();
        warm_window = b.flush_seq();
        const cycles decomp = cfg_.decomp.latency_for(group_len) +
                              (first_in_window ? cfg_.decomp.startup : 0);
        stats_.crypto_cycles += decomp;
        b.add_gated(li, txn_batcher::no_lower, decomp,
                    [this, g, &chunk, group_len, in_group,
                     out = seg.data.subspan(done, n)] {
                      const bytes plain = engine_.decompress_chunk(
                          chunk, image_.group_bit_offsets[g] % 8, group_len, image_);
                      std::copy_n(plain.begin() + static_cast<std::ptrdiff_t>(in_group),
                                  out.size(), out.begin());
                    });
        done += n;
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles compress_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  if (in_code(addr, out.size())) return read_code(addr, out);
  return pad_io(addr, out, /*is_write=*/false, {});
}

cycles compress_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  if (in_code(addr, in.size()))
    throw std::logic_error("compress_edu: code region is read-only");
  return pad_io(addr, {}, /*is_write=*/true, in);
}

} // namespace buscrypt::edu
