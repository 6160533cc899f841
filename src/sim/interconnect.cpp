#include "sim/interconnect.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::sim {

bool parse_arb_policy(std::string_view name, arb_policy& out) noexcept {
  for (const arb_policy p : all_arb_policies)
    if (name == arb_policy_name(p)) {
      out = p;
      return true;
    }
  return false;
}

// --- topology ---------------------------------------------------------------

cluster_id topology::add_cluster(cluster_config cfg) {
  if (cfg.arb.window_txns == 0)
    throw std::invalid_argument("topology: cluster window_txns must be >= 1");
  if (cfg.name.empty()) cfg.name = "cluster" + std::to_string(clusters_.size());
  clusters_.push_back(std::move(cfg));
  return static_cast<cluster_id>(clusters_.size() - 1);
}

void topology::add_master(cluster_id c, master_id m, qos_class cls) {
  const auto ci = static_cast<std::size_t>(c);
  if (ci >= clusters_.size())
    throw std::invalid_argument("topology: unknown cluster id");
  if (m == any_master)
    throw std::invalid_argument("topology: master id is the reserved "
                                "any_master sentinel");
  for (const slot& s : slots_)
    if (s.id == m) throw std::invalid_argument("topology: duplicate master id");
  slots_.push_back({m, ci, cls});
}

void topology::set_qos(cluster_id c, qos_class cls) {
  const auto ci = static_cast<std::size_t>(c);
  if (ci >= clusters_.size())
    throw std::invalid_argument("topology: unknown cluster id");
  clusters_[ci].qos = cls;
}

void topology::set_qos(master_id m, qos_class cls) {
  for (slot& s : slots_)
    if (s.id == m) {
      s.cls = cls;
      return;
    }
  throw std::invalid_argument("topology: set_qos on an undeclared master");
}

void topology::set_qos_params(qos_class cls, qos_params p) {
  if (p.weight == 0)
    throw std::invalid_argument("topology: qos weight must be >= 1");
  params_[static_cast<std::size_t>(cls)] = p;
}

void topology::add_firewall_rule(master_id m, firewall_rule r) {
  if (m == any_master)
    throw std::invalid_argument("topology: firewall rule for the reserved "
                                "any_master sentinel");
  if (r.len == 0) throw std::invalid_argument("topology: firewall rule len must be >= 1");
  for (auto& [id, table] : tables_)
    if (id == m) {
      table.push_back(r);
      return;
    }
  tables_.emplace_back(m, std::vector<firewall_rule>{r});
}

const topology::slot* topology::slot_of(master_id m) const noexcept {
  for (const slot& s : slots_)
    if (s.id == m) return &s;
  return nullptr;
}

bool topology::qos_enabled() const noexcept {
  for (const cluster_config& c : clusters_)
    if (c.qos != qos_class::none) return true;
  for (const slot& s : slots_)
    if (s.cls != qos_class::none) return true;
  return false;
}

// --- arb_node ---------------------------------------------------------------

arb_node::arb_node(arbiter_config cfg, bool qos, const std::array<qos_params, 4>& params)
    : cfg_(cfg), qos_(qos), params_(params) {
  for (std::size_t c = 0; c < 4; ++c)
    credit_[c] = static_cast<long long>(params_[c].weight);
}

int arb_node::pick_policy(std::span<const child> kids, int cls) {
  const std::size_t n = kids.size();
  if (n == 0) return -1;
  const auto in_cls = [&](std::size_t i) {
    return cls < 0 || static_cast<int>(kids[i].cls) == cls;
  };

  if (cfg_.policy == arb_policy::round_robin) {
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = (rr_next_ + step) % n;
      if (kids[i].pending && in_cls(i)) {
        rr_next_ = (i + 1) % n;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // fixed_priority. Aging first: the longest-waiting child past the
  // starvation limit pre-empts priority (ties toward registration order).
  int starved = -1;
  if (cfg_.starvation_limit > 0) {
    u64 longest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 streak = kids[i].wait_streak;
      if (kids[i].pending && in_cls(i) && streak >= cfg_.starvation_limit &&
          streak > longest) {
        longest = streak;
        starved = static_cast<int>(i);
      }
    }
  }
  if (starved >= 0) return starved;

  int best = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!kids[i].pending || !in_cls(i)) continue;
    if (best < 0 ||
        kids[i].priority > kids[static_cast<std::size_t>(best)].priority)
      best = static_cast<int>(i);
  }
  return best;
}

int arb_node::pick(std::span<const child> kids) {
  if (!qos_) return pick_policy(kids, -1);

  bool pend[4] = {};
  bool any = false;
  for (const child& k : kids)
    if (k.pending) {
      pend[static_cast<std::size_t>(k.cls)] = true;
      any = true;
    }
  if (!any) return -1;

  // Class aging pre-empts the credit choice: a class whose pending work
  // has waited past its limit is served first, longest streak winning.
  int chosen = -1;
  u64 longest = 0;
  for (std::size_t c = 0; c < 4; ++c)
    if (pend[c] && params_[c].aging_limit > 0 &&
        class_streak_[c] >= params_[c].aging_limit && class_streak_[c] >= longest &&
        (chosen < 0 || class_streak_[c] > longest)) {
      longest = class_streak_[c];
      chosen = static_cast<int>(c);
    }
  if (chosen >= 0) {
    ++class_preempts_[static_cast<std::size_t>(chosen)];
  } else {
    // Weighted round-robin by reserved share: pick the pending class with
    // the most credit, recharging every class when the pending ones are
    // all spent (so an idle class cannot hoard unbounded credit).
    bool has_credit = false;
    for (std::size_t c = 0; c < 4; ++c)
      if (pend[c] && credit_[c] > 0) has_credit = true;
    if (!has_credit)
      for (std::size_t c = 0; c < 4; ++c)
        credit_[c] = static_cast<long long>(params_[c].weight);
    for (std::size_t c = 0; c < 4; ++c)
      if (pend[c] && (chosen < 0 || credit_[c] > credit_[static_cast<std::size_t>(chosen)]))
        chosen = static_cast<int>(c);
  }

  const auto cc = static_cast<std::size_t>(chosen);
  --credit_[cc];
  ++class_grants_[cc];
  class_streak_[cc] = 0;
  for (std::size_t c = 0; c < 4; ++c)
    if (c != cc && pend[c]) {
      ++class_streak_[c];
      class_max_streak_[c] = std::max(class_max_streak_[c], class_streak_[c]);
    }
  return pick_policy(kids, chosen);
}

u64 arb_node::class_grants(qos_class c) const noexcept {
  return class_grants_[static_cast<std::size_t>(c)];
}
u64 arb_node::class_preempts(qos_class c) const noexcept {
  return class_preempts_[static_cast<std::size_t>(c)];
}
u64 arb_node::class_max_streak(qos_class c) const noexcept {
  return class_max_streak_[static_cast<std::size_t>(c)];
}

// --- interconnect -----------------------------------------------------------

interconnect::interconnect(memory_port& port, topology topo)
    : port_(&port), topo_(std::move(topo)) {
  if (topo_.root().window_txns == 0)
    throw std::invalid_argument("interconnect: window_txns must be >= 1");
  if (topo_.clusters().empty()) {
    // Implicit flat cluster inheriting the root knobs: the flat bus.
    cluster_config flat;
    flat.name = "bus";
    flat.arb = topo_.root();
    (void)topo_.add_cluster(std::move(flat));
  }
  for (const auto& [m, table] : topo_.firewall_tables()) fw_.program(m, table);
}

void interconnect::add_master(bus_master& m) {
  const master_id id = m.config().id;
  if (id == any_master)
    throw std::invalid_argument("interconnect: master id is the reserved "
                                "any_master sentinel");
  for (const bound& b : masters_)
    if (b.m->config().id == id)
      throw std::invalid_argument("interconnect: duplicate master id");
  bound b;
  b.m = &m;
  if (const topology::slot* s = topo_.slot_of(id)) {
    b.cluster = s->cluster;
    b.cls = s->cls;
  }
  masters_.push_back(b);
}

void interconnect::set_grant_hook(std::function<void(master_id)> hook) {
  grant_hook_ = std::move(hook);
}

void interconnect::reprogram_firewall(master_id m, std::vector<firewall_rule> rules) {
  fw_.stage(m, std::move(rules));
  staged_at_.push_back(clock_);
}

interconnect_stats interconnect::run() {
  const std::vector<cluster_config>& clusters = topo_.clusters();
  const bool qos = topo_.qos_enabled();

  interconnect_stats st;
  st.clusters.resize(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c)
    st.clusters[c].name = clusters[c].name;

  // Cluster membership, in master bind order (ties inside a cluster break
  // toward earlier registration, as the flat arbiter's did).
  std::vector<std::vector<std::size_t>> members(clusters.size());
  for (std::size_t i = 0; i < masters_.size(); ++i)
    members[masters_[i].cluster].push_back(i);

  arb_node root(topo_.root(), qos, topo_.params());
  std::vector<arb_node> nodes;
  nodes.reserve(clusters.size());
  for (const cluster_config& c : clusters) nodes.emplace_back(c.arb, qos, topo_.params());

  std::vector<u64> cluster_streak(clusters.size(), 0);
  std::vector<arb_node::child> ckids(clusters.size());
  std::vector<arb_node::child> mkids;
  std::vector<mem_txn> window;

  // Restore the default attribution once the bus falls idle — on every
  // exit path: if a window submission throws, downstream beat tagging
  // must not stay stuck on the last granted master.
  struct hook_restore {
    const std::function<void(master_id)>* hook;
    ~hook_restore() {
      if (*hook) (*hook)(cpu_master);
    }
  } restore{&grant_hook_};

  // Apply firewall tables staged since the last boundary. Called between
  // windows only: a granted window is checked under exactly one table.
  const auto commit_staged = [&] {
    if (!fw_.has_staged()) return;
    (void)fw_.commit();
    for (const cycles at : staged_at_) {
      const cycles lat = clock_ - at;
      ++st.firewall_reprograms;
      st.reconfig_latency_sum += lat;
      st.reconfig_latency_max = std::max(st.reconfig_latency_max, lat);
    }
    staged_at_.clear();
  };

  clock_ = 0;
  for (;;) {
    commit_staged();

    for (std::size_t c = 0; c < clusters.size(); ++c) {
      bool pending = false;
      for (const std::size_t i : members[c])
        if (masters_[i].m->pending()) {
          pending = true;
          break;
        }
      ckids[c] = {pending, clusters[c].priority, cluster_streak[c], clusters[c].qos};
    }
    const int ci = root.pick(ckids);
    if (ci < 0) break;
    const auto cu = static_cast<std::size_t>(ci);

    mkids.clear();
    for (const std::size_t i : members[cu]) {
      const bound& b = masters_[i];
      mkids.push_back({b.m->pending(), b.m->config().priority, b.m->wait_streak(), b.cls});
    }
    const int mi = nodes[cu].pick(mkids);
    if (mi < 0) break; // unreachable: the cluster was picked as pending
    bus_master& granted = *masters_[members[cu][static_cast<std::size_t>(mi)]].m;

    if (grant_hook_) grant_hook_(granted.config().id);
    const std::size_t n = granted.stage(clusters[cu].arb.window_txns, window);
    port_->submit(window);
    const cycles makespan = port_->drain();
    granted.retire(window, clock_, makespan);
    clock_ += makespan;

    ++st.bus.rounds;
    st.bus.txns += n;
    ++st.clusters[cu].grants;
    st.clusters[cu].txns += n;
    for (const bound& other : masters_)
      if (other.m != &granted && other.m->pending()) other.m->note_wait();
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (c == cu) {
        cluster_streak[c] = 0;
      } else if (ckids[c].pending) {
        ++cluster_streak[c];
        st.clusters[c].max_wait_streak =
            std::max(st.clusters[c].max_wait_streak, cluster_streak[c]);
      }
    }
  }
  commit_staged(); // a table staged in the last window still lands

  st.bus.total_cycles = clock_;
  st.bus.masters.reserve(masters_.size());
  for (const bound& b : masters_) {
    st.bus.bytes += b.m->stats().bytes;
    st.bus.masters.push_back(b.m->stats());
    st.clusters[b.cluster].bytes += b.m->stats().bytes;
  }

  if (qos) {
    for (const qos_class c : all_qos_classes) {
      qos_class_stats qs;
      qs.cls = c;
      qs.grants = root.class_grants(c);
      qs.preempts = root.class_preempts(c);
      qs.max_streak = root.class_max_streak(c);
      for (const arb_node& nd : nodes) {
        qs.grants += nd.class_grants(c);
        qs.preempts += nd.class_preempts(c);
        qs.max_streak = std::max(qs.max_streak, nd.class_max_streak(c));
      }
      st.qos.push_back(qs);
    }
  }
  return st;
}

} // namespace buscrypt::sim
