#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

thread_local tracer* t_active = nullptr;

struct kind_info {
  std::string_view name;
  layer owner;
};

constexpr std::array<kind_info, k_span_kinds> k_kinds = {{
    {"fleet.cell", layer::fleet},
    {"update.provision", layer::update},
    {"update.make_package", layer::update},
    {"update.apply", layer::update},
    {"update.power_cycle", layer::update},
    {"update.recover", layer::update},
    {"update.audit", layer::update},
    {"engine.call", layer::engine},
    {"engine.keyslot.acquire", layer::keyslot},
    {"engine.backend.make_keyed", layer::backend},
    {"crypto.transform", layer::crypto},
    {"crypto.pad", layer::crypto},
    {"crypto.rsa_generate", layer::crypto},
    {"sim.port", layer::sim},
}};

constexpr std::array<std::string_view, k_layers> k_layer_names = {
    "fleet", "update", "engine", "engine.keyslot", "engine.backend", "crypto", "sim"};

} // namespace

std::string_view layer_name(layer l) noexcept {
  return k_layer_names[static_cast<std::size_t>(l)];
}

std::string_view span_name(span_kind k) noexcept {
  return k_kinds[static_cast<std::size_t>(k)].name;
}

layer layer_of(span_kind k) noexcept { return k_kinds[static_cast<std::size_t>(k)].owner; }

tracer::tracer(u32 request, clock::time_point epoch, std::size_t keep)
    : request_(request), epoch_(epoch), keep_(keep) {
  stack_.reserve(16);
}

void tracer::begin(span_kind k) {
  const u32 parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back({k, next_id_++, parent, now_ns(), 0});
}

void tracer::end(u64 bytes) {
  const std::int64_t end = now_ns();
  const open_span s = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - s.start_ns;
  span_totals& tot = totals_[static_cast<std::size_t>(s.kind)];
  ++tot.calls;
  tot.bytes += bytes;
  tot.total_ms += static_cast<double>(dur) * 1e-6;
  tot.self_ms += static_cast<double>(dur - s.child_ns) * 1e-6;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (spans_.size() < keep_)
    spans_.push_back({s.id, s.parent, request_, s.kind, s.start_ns, end});
  else
    ++dropped_;
}

tracer* active_tracer() noexcept { return t_active; }

tracer_scope::tracer_scope(tracer* t) noexcept : prev_(t_active) { t_active = t; }

tracer_scope::~tracer_scope() { t_active = prev_; }

void trace_summary::add(const tracer& t) {
  for (std::size_t k = 0; k < k_span_kinds; ++k) {
    const span_totals& s = t.totals()[k];
    span_totals& d = kinds[k];
    d.calls += s.calls;
    d.bytes += s.bytes;
    d.total_ms += s.total_ms;
    d.self_ms += s.self_ms;
    layer_self_ms[static_cast<std::size_t>(layer_of(static_cast<span_kind>(k)))] += s.self_ms;
    spans += s.calls;
  }
}

void trace_summary::scale(double f) {
  for (span_totals& d : kinds) {
    d.calls = static_cast<u64>(static_cast<double>(d.calls) * f + 0.5);
    d.bytes = static_cast<u64>(static_cast<double>(d.bytes) * f + 0.5);
    d.total_ms *= f;
    d.self_ms *= f;
  }
  for (double& s : layer_self_ms) s *= f;
  spans = static_cast<u64>(static_cast<double>(spans) * f + 0.5);
}

layer trace_summary::top_layer() const noexcept {
  const auto it = std::max_element(layer_self_ms.begin(), layer_self_ms.end());
  return static_cast<layer>(it - layer_self_ms.begin());
}

bool write_trace(const std::string& path, const std::vector<tracer>& tracers,
                 const std::string& meta_json) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                          &std::fclose);
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f.get());
  bool first = true;
  for (const tracer& t : tracers) {
    for (const span_record& s : t.spans()) {
      const std::string_view name = span_name(s.kind);
      const std::string_view cat = layer_name(layer_of(s.kind));
      std::fprintf(f.get(),
                   "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",\n", static_cast<int>(name.size()), name.data(),
                   static_cast<int>(cat.size()), cat.data(), s.request,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent);
      first = false;
    }
  }
  std::fprintf(f.get(), "\n],\"otherData\":%s}\n", meta_json.c_str());
  return std::ferror(f.get()) == 0;
}

} // namespace perfbench
