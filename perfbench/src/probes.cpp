#include "probes.hpp"

#include <memory>

namespace perfbench {

namespace {

using buscrypt::u8;
using namespace buscrypt::engine;

class traced_keyed final : public keyed_cipher {
 public:
  explicit traced_keyed(std::unique_ptr<keyed_cipher> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::size_t granule() const noexcept override { return inner_->granule(); }

  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    scoped_span s(span_kind::crypto_transform);
    s.add_bytes(in.size());
    inner_->encrypt_unit(dun, in, out);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    scoped_span s(span_kind::crypto_transform);
    s.add_bytes(in.size());
    inner_->decrypt_unit(dun, in, out);
  }
  void encrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    scoped_span s(span_kind::crypto_transform);
    s.add_bytes(in.size());
    inner_->encrypt_units(first_dun, unit_len, in, out);
  }
  void decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    scoped_span s(span_kind::crypto_transform);
    s.add_bytes(in.size());
    inner_->decrypt_units(first_dun, unit_len, in, out);
  }

  [[nodiscard]] buscrypt::cycles unit_cost(std::size_t nbytes,
                                           bool encrypt) const noexcept override {
    return inner_->unit_cost(nbytes, encrypt);
  }
  [[nodiscard]] bool pad_precomputable() const noexcept override {
    return inner_->pad_precomputable();
  }
  void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) override {
    scoped_span s(span_kind::crypto_pad);
    s.add_bytes(out.size());
    inner_->generate_pads(first_dun, unit_len, out);
  }

 private:
  std::unique_ptr<keyed_cipher> inner_;
};

class traced_backend final : public cipher_backend {
 public:
  explicit traced_backend(const cipher_backend& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool key_len_ok(std::size_t len) const noexcept override {
    return inner_->key_len_ok(len);
  }
  [[nodiscard]] std::unique_ptr<keyed_cipher> make_keyed(std::span<const u8> key) const override {
    scoped_span s(span_kind::backend_make_keyed);
    return std::make_unique<traced_keyed>(inner_->make_keyed(key));
  }
  [[nodiscard]] std::size_t max_data_unit_size() const noexcept override {
    return inner_->max_data_unit_size();
  }
  [[nodiscard]] backend_cost cost() const noexcept override { return inner_->cost(); }

 private:
  const cipher_backend* inner_;
};

} // namespace

backend_registry traced_registry() {
  const backend_registry& builtin = backend_registry::builtin();
  backend_registry reg;
  for (const std::string_view name : builtin.names())
    reg.add(std::make_unique<traced_backend>(builtin.at(name)));
  return reg;
}

buscrypt::cycles timed_port::read(buscrypt::addr_t addr, std::span<u8> out) {
  scoped_span s(kind_);
  s.add_bytes(out.size());
  count(addr, out.size());
  return lower_->read(addr, out);
}

buscrypt::cycles timed_port::write(buscrypt::addr_t addr, std::span<const u8> in) {
  scoped_span s(kind_);
  s.add_bytes(in.size());
  count(addr, in.size());
  return lower_->write(addr, in);
}

void timed_port::submit(std::span<buscrypt::sim::mem_txn> batch) {
  scoped_span s(kind_);
  for (const buscrypt::sim::mem_txn& txn : batch)
    for (const buscrypt::sim::txn_segment& seg : txn.segments) {
      s.add_bytes(seg.data.size());
      count(seg.addr, seg.data.size());
    }
  lower_->submit(batch);
}

buscrypt::cycles timed_port::drain() {
  scoped_span s(kind_);
  return lower_->drain();
}

} // namespace perfbench
