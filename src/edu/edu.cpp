#include "edu/edu.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

cycles edu::one_txn(sim::txn_op op, addr_t addr, std::span<u8> data) {
  // drain() would hand this call the open window's cycles too.
  if (pending_txn_cycles_ != 0)
    throw std::logic_error("edu: scalar access while a submit() window is undrained");
  scalar_txn_.op = op;
  scalar_txn_.segments.assign(1, {addr, data});
  submit(std::span<sim::mem_txn>(&scalar_txn_, 1));
  return drain();
}

void edu::install_image(addr_t base, std::span<const u8> plain) {
  const std::size_t chunk = preferred_chunk();
  std::size_t off = 0;
  while (off < plain.size()) {
    const std::size_t n = std::min(chunk, plain.size() - off);
    (void)write(base + off, plain.subspan(off, n));
    off += n;
  }
}

void edu::read_image(addr_t base, std::span<u8> plain_out) {
  const std::size_t chunk = preferred_chunk();
  std::size_t off = 0;
  while (off < plain_out.size()) {
    const std::size_t n = std::min(chunk, plain_out.size() - off);
    (void)read(base + off, plain_out.subspan(off, n));
    off += n;
  }
}

} // namespace buscrypt::edu
