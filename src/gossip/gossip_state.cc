#include "gossip/gossip_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace dgt {

namespace {

constexpr uint32_t kNoColumn = std::numeric_limits<uint32_t>::max();

// Whether (y, g, c) can start a push-sum run: every channel finite and
// the gossip weight non-negative.
bool ValidStart(double y, double g, double c) {
  return std::isfinite(y) && std::isfinite(g) && std::isfinite(c) && g >= 0.0;
}

// v + scale * row as a 2-way sorted-column merge (entries that cancel to
// exact zero on every channel are dropped, keeping rows minimal).
SparseVectorRow MergeScaled(const SparseVectorRow& v,
                            const SparseVectorRow& row, double scale) {
  const bool use_count = !v.c.empty() || !row.c.empty();
  SparseVectorRow out;
  out.cols.reserve(v.cols.size() + row.cols.size());
  out.y.reserve(v.cols.size() + row.cols.size());
  out.g.reserve(v.cols.size() + row.cols.size());
  if (use_count) out.c.reserve(v.cols.size() + row.cols.size());
  size_t ia = 0, ib = 0;
  while (ia < v.cols.size() || ib < row.cols.size()) {
    uint32_t ca = ia < v.cols.size() ? v.cols[ia] : UINT32_MAX;
    uint32_t cb = ib < row.cols.size() ? row.cols[ib] : UINT32_MAX;
    uint32_t j = ca < cb ? ca : cb;
    double ay = 0.0, ag = 0.0, ac = 0.0;
    if (ca == j) {
      ay += v.y[ia];
      ag += v.g[ia];
      if (!v.c.empty()) ac += v.c[ia];
      ++ia;
    }
    if (cb == j) {
      ay += row.y[ib] * scale;
      ag += row.g[ib] * scale;
      if (!row.c.empty()) ac += row.c[ib] * scale;
      ++ib;
    }
    if (ay != 0.0 || ag != 0.0 || ac != 0.0) {
      out.cols.push_back(j);
      out.y.push_back(ay);
      out.g.push_back(ag);
      if (use_count) out.c.push_back(ac);
    }
  }
  return out;
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

SparseVectorGossipPolicy::Share SparseVectorGossipPolicy::Split(Value& v,
                                                                uint32_t k) {
  const double inv = 1.0 / (static_cast<double>(k) + 1.0);
  auto snap = std::make_shared<const SparseVectorRow>(std::move(v));
  // The kept share: the same immutable snapshot scaled down, materialised
  // as the node's new resident row.
  v = MergeScaled(SparseVectorRow(), *snap, inv);
  return Share{std::move(snap), inv};
}

void SparseVectorGossipPolicy::Absorb(Value& v, const Share& s) {
  v = MergeScaled(v, *s.row, s.scale);
}

bool SparseVectorGossipPolicy::HasWeight(const Value& v) {
  for (double g : v.g) {
    if (g != 0.0) return true;
  }
  return false;
}

SparseVectorGossipPolicy::Snapshot SparseVectorGossipPolicy::TakeSnapshot(
    const Value& v) {
  Snapshot snap;
  snap.cols = v.cols;
  snap.r.resize(v.cols.size());
  for (size_t j = 0; j < v.cols.size(); ++j) {
    snap.r[j] = v.g[j] != 0.0 ? v.y[j] / v.g[j] : kRatioSentinel;
  }
  if (!v.c.empty()) {
    snap.rc.resize(v.cols.size());
    for (size_t j = 0; j < v.cols.size(); ++j) {
      snap.rc[j] = v.g[j] != 0.0 ? v.c[j] / v.g[j] : kRatioSentinel;
    }
  }
  return snap;
}

double SparseVectorGossipPolicy::Distance(const Snapshot& a,
                                          const Snapshot& b) {
  // Two-pointer union walk; a column present on one side only means the
  // other side sat at the sentinel when its snapshot was taken.
  constexpr double sentinel = kRatioSentinel;
  const bool use_count = !a.rc.empty() || !b.rc.empty();
  double l1 = 0.0;
  size_t ia = 0, ib = 0;
  while (ia < a.cols.size() || ib < b.cols.size()) {
    uint32_t ca = ia < a.cols.size() ? a.cols[ia] : UINT32_MAX;
    uint32_t cb = ib < b.cols.size() ? b.cols[ib] : UINT32_MAX;
    double ra = sentinel, rb = sentinel;
    double rca = sentinel, rcb = sentinel;
    if (ca <= cb) {
      ra = a.r[ia];
      if (!a.rc.empty()) rca = a.rc[ia];
    }
    if (cb <= ca) {
      rb = b.r[ib];
      if (!b.rc.empty()) rcb = b.rc[ib];
    }
    l1 += std::fabs(rb - ra);
    if (use_count) l1 += std::fabs(rcb - rca);
    if (ca <= cb) ++ia;
    if (cb <= ca) ++ib;
  }
  return l1;
}

// --- Synchronous interface ---------------------------------------------

SparseVectorGossipPolicy::SparseVectorGossipPolicy(
    const std::vector<SparseVectorRow>& init, bool use_count)
    : use_count_(use_count),
      refs_(init.size()),
      replay_refs_(init.size(), 0),
      prev_nnz_(init.size(), 0),
      merged_nnz_(init.size(), 0) {
  for (const SparseVectorRow& row : init) total_nnz_ += row.nnz();
  peak_nnz_ = total_nnz_;
}

void SparseVectorGossipPolicy::BeginStep(const StepPlan& plan,
                                         const std::vector<uint8_t>& stopped,
                                         const std::vector<Value>& state) {
  const size_t n = state.size();
  for (size_t i = 0; i < n; ++i) {
    prev_nnz_[i] = state[i].nnz();
    replay_refs_[i] = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (stopped[i]) continue;
    for (const PlanEntry& e : plan.inbox[i]) ++replay_refs_[e.sender];
  }
  for (size_t i = 0; i < n; ++i) {
    refs_[i].store(replay_refs_[i], std::memory_order_relaxed);
  }
}

MergeOutcome SparseVectorGossipPolicy::Merge(NodeId i, const StepPlan& plan,
                                             std::vector<Value>& state,
                                             Value& out, Scratch& scratch) {
  assert(!plan.inbox[i].empty());
  // Locals, so the hot loop does not reload members through `this`.
  const bool use_count = use_count_;
  constexpr double sentinel = kRatioSentinel;
  const size_t n = state.size();
  std::vector<MergeCursor>& cursors = scratch.cursors;
  cursors.clear();
  size_t inbox_nnz = 0;
  bool all_full = true;
  for (const PlanEntry& e : plan.inbox[i]) {
    const double inv =
        1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
    const double scale = static_cast<double>(e.shares) * inv;
    const SparseVectorRow& src = state[e.sender];
    cursors.push_back({&src, 0, scale, e.sender == i});
    inbox_nnz += src.nnz();
    all_full = all_full && src.nnz() == n;
  }
  const MergeCursor* self = nullptr;
  for (const MergeCursor& cur : cursors) {
    if (cur.is_self) self = &cur;
  }
  // The merged row has at most one entry per column of the union.
  const size_t capacity = std::min(n, inbox_nnz);
  out.cols.reserve(capacity);
  out.y.reserve(capacity);
  out.g.reserve(capacity);
  if (use_count) out.c.reserve(capacity);

  double l1_change = 0.0;
  bool has_weight = false;
  // Finishes merged column j from its summed channels and the node's old
  // entry there (`in_old` false: the node held none). eq. (7) terms: ratio
  // term, then count term. Columns outside the merged set contribute
  // exact zeros (sentinel minus sentinel), so skipping them leaves the L1
  // sum bit-identical to a dense walk. The previous ratio comes from the
  // kept share's source row — the node's own old state.
  auto finish_column = [&](uint32_t j, double ay, double ag, double ac,
                           bool in_old, double old_y, double old_g,
                           double old_c) {
    double r = ag != 0.0 ? ay / ag : sentinel;
    double prev = (in_old && old_g != 0.0) ? old_y / old_g : sentinel;
    l1_change += std::fabs(r - prev);
    if (use_count) {
      double rc = ag != 0.0 ? ac / ag : sentinel;
      double prev_c = (in_old && old_g != 0.0) ? old_c / old_g : sentinel;
      l1_change += std::fabs(rc - prev_c);
    }
    if (ag != 0.0) has_weight = true;
    if (ay != 0.0 || ag != 0.0 || ac != 0.0) {
      out.cols.push_back(j);
      out.y.push_back(ay);
      out.g.push_back(ag);
      if (use_count) out.c.push_back(ac);
    }
  };

  if (all_full) {
    // Every inbox row holds columns 0..n-1, so column j sits at index j of
    // every row: walk by index, adding contributions in cursor order.
    for (uint32_t j = 0; j < n; ++j) {
      double ay = 0.0, ag = 0.0, ac = 0.0;
      for (const MergeCursor& cur : cursors) {
        ay += cur.src->y[j] * cur.scale;
        ag += cur.src->g[j] * cur.scale;
        if (use_count) ac += cur.src->c[j] * cur.scale;
      }
      if (self != nullptr) {
        finish_column(j, ay, ag, ac, true, self->src->y[j], self->src->g[j],
                      use_count ? self->src->c[j] : 0.0);
      } else {
        finish_column(j, ay, ag, ac, false, 0.0, 0.0, 0.0);
      }
    }
  } else {
    // k-way sorted-column walk: each step takes the smallest column under
    // any cursor.
    while (true) {
      uint32_t jmin = kNoColumn;
      for (const MergeCursor& cur : cursors) {
        if (cur.pos < cur.src->cols.size()) {
          jmin = std::min(jmin, cur.src->cols[cur.pos]);
        }
      }
      if (jmin == kNoColumn) break;
      double ay = 0.0, ag = 0.0, ac = 0.0;
      double old_y = 0.0, old_g = 0.0, old_c = 0.0;
      bool in_old = false;
      for (MergeCursor& cur : cursors) {
        if (cur.pos < cur.src->cols.size() &&
            cur.src->cols[cur.pos] == jmin) {
          ay += cur.src->y[cur.pos] * cur.scale;
          ag += cur.src->g[cur.pos] * cur.scale;
          if (use_count) ac += cur.src->c[cur.pos] * cur.scale;
          if (cur.is_self) {
            in_old = true;
            old_y = cur.src->y[cur.pos];
            old_g = cur.src->g[cur.pos];
            if (use_count) old_c = cur.src->c[cur.pos];
          }
          ++cur.pos;
        }
      }
      finish_column(jmin, ay, ag, ac, in_old, old_y, old_g, old_c);
    }
  }
  merged_nnz_[i] = out.nnz();

  // Release previous-step rows whose last consumer was this merge
  // (acq_rel: the release must observe every consumer's reads).
  for (const PlanEntry& e : plan.inbox[i]) {
    if (refs_[e.sender].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      state[e.sender] = SparseVectorRow();
    }
  }
  return {l1_change, has_weight};
}

void SparseVectorGossipPolicy::EndStep(const StepPlan& plan,
                                       const std::vector<uint8_t>& stopped) {
  // A threaded merge's instantaneous footprint can transiently exceed
  // this replay by the rows still queued for release; the eager releases
  // in Merge keep that slack to the in-flight shard set.
  for (size_t i = 0; i < stopped.size(); ++i) {
    if (stopped[i]) continue;
    total_nnz_ += merged_nnz_[i];
    peak_nnz_ = std::max(peak_nnz_, total_nnz_);
    for (const PlanEntry& e : plan.inbox[i]) {
      if (--replay_refs_[e.sender] == 0) total_nnz_ -= prev_nnz_[e.sender];
    }
  }
}

}  // namespace dgt
