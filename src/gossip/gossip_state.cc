#include "gossip/gossip_state.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace dgt {

namespace {

// Whether (y, g, c) can start a push-sum run: every channel finite and
// the gossip weight non-negative.
bool ValidStart(double y, double g, double c) {
  return std::isfinite(y) && std::isfinite(g) && std::isfinite(c) && g >= 0.0;
}

}  // namespace

Status ValidateScalarInputs(uint32_t num_nodes, const std::vector<double>& y0,
                            const std::vector<double>& g0,
                            const std::vector<double>& c0) {
  if (y0.size() != num_nodes || g0.size() != num_nodes) {
    return Status::InvalidArgument("y0/g0 must have num_nodes entries");
  }
  if (!c0.empty() && c0.size() != num_nodes) {
    return Status::InvalidArgument("c0 must be empty or num_nodes entries");
  }
  for (uint32_t i = 0; i < num_nodes; ++i) {
    if (!ValidStart(y0[i], g0[i], c0.empty() ? 0.0 : c0[i])) {
      return Status::InvalidArgument(
          "node " + std::to_string(i) +
          ": values must be finite and gossip weights >= 0");
    }
  }
  return Status::OK();
}

Status ValidateSparseRows(uint32_t num_nodes,
                          const std::vector<SparseVectorRow>& rows,
                          bool use_count) {
  if (rows.size() != num_nodes) {
    return Status::InvalidArgument("initial state must have num_nodes rows");
  }
  for (uint32_t i = 0; i < num_nodes; ++i) {
    const SparseVectorRow& row = rows[i];
    auto bad = [i](const char* what) {
      return Status::InvalidArgument("row " + std::to_string(i) + ": " + what);
    };
    if (row.y.size() != row.cols.size() || row.g.size() != row.cols.size()) {
      return bad("y and g must parallel cols");
    }
    if (row.c.size() != (use_count ? row.cols.size() : 0)) {
      return bad("count channel must parallel cols iff use_count");
    }
    for (size_t k = 0; k < row.cols.size(); ++k) {
      if (row.cols[k] >= num_nodes) return bad("column out of range");
      if (k > 0 && row.cols[k] <= row.cols[k - 1]) {
        return bad("columns must be strictly increasing");
      }
      if (!ValidStart(row.y[k], row.g[k], use_count ? row.c[k] : 0.0)) {
        return bad("values must be finite and gossip weights >= 0");
      }
    }
  }
  return Status::OK();
}

// --- Asynchronous interface --------------------------------------------

VectorGossipPolicy::Share VectorGossipPolicy::Split(Value& v, uint32_t k) {
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  auto sent = std::make_shared<const Value>(v);
  for (std::vector<double>* channel : {&v.y, &v.g, &v.c}) {
    for (double& x : *channel) x = 0.0 + x * inv;
  }
  return Share{std::move(sent), inv};
}

void VectorGossipPolicy::Absorb(Value& v, const Share& s) {
  const Value& row = *s.row;
  for (size_t j = 0; j < v.y.size(); ++j) {
    v.y[j] = (0.0 + v.y[j]) + row.y[j] * s.scale;
    v.g[j] = (0.0 + v.g[j]) + row.g[j] * s.scale;
  }
  for (size_t j = 0; j < v.c.size(); ++j) {
    v.c[j] = (0.0 + v.c[j]) + row.c[j] * s.scale;
  }
}

bool VectorGossipPolicy::HasWeight(const Value& v) {
  return std::any_of(v.g.begin(), v.g.end(), [](double g) { return g != 0.0; });
}

VectorGossipPolicy::Snapshot VectorGossipPolicy::TakeSnapshot(
    const Value& v) {
  Snapshot snap;
  snap.reserve(v.y.size() + v.c.size());
  for (size_t j = 0; j < v.y.size(); ++j) {
    snap.push_back(GossipRatio(v.y[j], v.g[j]));
    if (!v.c.empty()) snap.push_back(GossipRatio(v.c[j], v.g[j]));
  }
  return snap;
}

double VectorGossipPolicy::Distance(const Snapshot& a, const Snapshot& b) {
  double l1 = 0.0;
  for (size_t k = 0; k < a.size(); ++k) l1 += std::fabs(b[k] - a[k]);
  return l1;
}

std::vector<VectorGossipPolicy::Value> VectorGossipPolicy::FromSparse(
    std::vector<SparseVectorRow> rows, bool use_count) {
  const size_t n = rows.size();
  std::vector<Value> out(n);
  for (size_t i = 0; i < n; ++i) {
    Value& v = out[i];
    v.y.assign(n, 0.0);
    v.g.assign(n, 0.0);
    v.c.assign(use_count ? n : 0, 0.0);
    for (size_t k = 0; k < rows[i].cols.size(); ++k) {
      const uint32_t j = rows[i].cols[k];
      v.y[j] = rows[i].y[k];
      v.g[j] = rows[i].g[k];
      if (use_count) v.c[j] = rows[i].c[k];
    }
    rows[i] = SparseVectorRow();
  }
  return out;
}

// --- Synchronous interface ---------------------------------------------

VectorGossipPolicy::VectorGossipPolicy(
    const std::vector<SparseVectorRow>& init, bool use_count)
    : use_count_(use_count),
      refs_(init.size()),
      replay_refs_(init.size(), 0),
      row_nnz_(init.size(), 0),
      merged_nnz_(init.size(), 0) {
  for (size_t i = 0; i < init.size(); ++i) {
    row_nnz_[i] = init[i].cols.size();
    total_nnz_ += row_nnz_[i];
  }
  peak_nnz_ = total_nnz_;
}

void VectorGossipPolicy::BeginStep(const StepPlan& plan,
                                   const std::vector<uint8_t>& stopped) {
  std::fill(replay_refs_.begin(), replay_refs_.end(), 0);
  for (size_t i = 0; i < stopped.size(); ++i) {
    if (stopped[i]) continue;
    for (const PlanEntry& e : plan.inbox[i]) ++replay_refs_[e.sender];
  }
  for (size_t i = 0; i < stopped.size(); ++i) {
    refs_[i].store(replay_refs_[i], std::memory_order_relaxed);
  }
}

MergeOutcome VectorGossipPolicy::Merge(NodeId i, const StepPlan& plan,
                                       std::vector<Value>& state, Value& out,
                                       Scratch& inbox, double limit) {
  // Locals, so the hot loop does not reload members through `this`.
  const bool use_count = use_count_;
  const size_t n = state.size();
  inbox.clear();
  for (const PlanEntry& e : plan.inbox[i]) {
    const double inv =
        1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
    inbox.emplace_back(&state[e.sender], static_cast<double>(e.shares) * inv);
  }
  {
    MutexLock lock(pool_mu_);
    if (!pool_.empty()) {
      out = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  // A pooled row already holds N columns; a new one is sized here.
  out.y.resize(n);
  out.g.resize(n);
  out.c.resize(use_count ? n : 0);
  // Node i's kept share puts its own row in its inbox, so no other merge
  // releases that row before this one ends.
  const Value& old = state[i];

  MergeOutcome m;
  uint64_t nnz = 0;
  for (size_t j = 0; j < n; ++j) {
    double ay = 0.0, ag = 0.0, ac = 0.0;
    for (const auto& [src, scale] : inbox) {
      ay += src->y[j] * scale;
      ag += src->g[j] * scale;
      if (use_count) ac += src->c[j] * scale;
    }
    // eq. (7) terms (ratio term, then count term) while the change is at
    // most `limit`. Every term is >= 0 or NaN, so once the partial sum
    // passes the limit or turns NaN, the full sum would fail the test too.
    if (m.change <= limit) {
      m.change +=
          std::fabs(GossipRatio(ay, ag) - GossipRatio(old.y[j], old.g[j]));
      if (use_count) {
        m.change +=
            std::fabs(GossipRatio(ac, ag) - GossipRatio(old.c[j], old.g[j]));
      }
    }
    if (use_count) out.c[j] = ac;
    if (ag != 0.0) m.has_weight = true;
    if (ay != 0.0 || ag != 0.0 || ac != 0.0) ++nnz;
    out.y[j] = ay;
    out.g[j] = ag;
  }
  merged_nnz_[i] = nnz;

  // Return previous-step rows whose last consumer was this merge to the
  // pool (acq_rel: the release must observe every consumer's reads).
  for (const PlanEntry& e : plan.inbox[i]) {
    if (refs_[e.sender].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(pool_mu_);
      pool_.push_back(std::move(state[e.sender]));
    }
  }
  return m;
}

void VectorGossipPolicy::EndStep(const StepPlan& plan,
                                 const std::vector<uint8_t>& stopped) {
  // A threaded merge's instantaneous footprint can transiently exceed
  // this replay by the rows still queued for release; the eager releases
  // in Merge keep that slack to the in-flight shard set.
  for (size_t i = 0; i < stopped.size(); ++i) {
    if (stopped[i]) continue;
    total_nnz_ += merged_nnz_[i];
    peak_nnz_ = std::max(peak_nnz_, total_nnz_);
    for (const PlanEntry& e : plan.inbox[i]) {
      if (--replay_refs_[e.sender] == 0) {
        total_nnz_ -= row_nnz_[e.sender];
        row_nnz_[e.sender] = merged_nnz_[e.sender];  // phase C installs it
      }
    }
  }
}

}  // namespace dgt
