#include "core/selnet_partitioned.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/pwl.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace selnet::core {

SelNetPartitioned::SelNetPartitioned(const PartitionedConfig& cfg)
    : cfg_(cfg),
      rng_(0x9a11e7ull ^ (cfg.base.input_dim * 0x9e3779b9ull)),
      ae_(cfg.base.input_dim, cfg.base.ae_hidden, cfg.base.latent_dim, &rng_) {
  SEL_CHECK_GT(cfg.base.input_dim, 0u);
  SEL_CHECK_GT(cfg.base.tmax, 0.0f);
}

void SelNetPartitioned::BuildStructure(const eval::TrainContext& ctx) {
  tensor::Matrix dense = ctx.db->DenseView();
  part_ = idx::BuildPartitioning(dense, ctx.db->metric(), cfg_.partition);
  // DenseView row i corresponds to the i-th live id.
  std::vector<size_t> live = ctx.db->LiveIds();
  cluster_ids_.assign(part_.num_clusters(), {});
  for (size_t c = 0; c < part_.num_clusters(); ++c) {
    for (size_t row : part_.cluster_members[c]) {
      cluster_ids_[c].push_back(live[row]);
    }
  }
  HeadsConfig hc;
  hc.input_dim = cfg_.base.input_dim + cfg_.base.latent_dim;
  hc.num_control = cfg_.base.num_control;
  hc.tau_hidden = cfg_.base.tau_hidden;
  hc.p_hidden = cfg_.base.p_hidden;
  hc.embed_h = cfg_.base.embed_h;
  hc.tmax = cfg_.base.tmax;
  hc.query_dependent_tau = cfg_.base.query_dependent_tau;
  hc.softmax_tau = cfg_.base.softmax_tau;
  heads_.clear();
  for (size_t c = 0; c < part_.num_clusters(); ++c) {
    heads_.emplace_back(hc, &rng_);
  }
  structure_built_ = true;
  util::LogDebug("SelNet: %zu regions merged into %zu clusters",
                 part_.regions.size(), part_.num_clusters());
}

void SelNetPartitioned::ComputeLocalLabels(const eval::TrainContext& ctx) {
  const auto& wl = *ctx.workload;
  size_t k = heads_.size();
  local_y_.assign(k, std::vector<float>(wl.train.size(), 0.0f));
  mask_.assign(k, std::vector<float>(wl.train.size(), 0.0f));
  // Group train samples by query to reuse per-query distance lists.
  std::vector<std::vector<size_t>> by_query(wl.queries.rows());
  for (size_t i = 0; i < wl.train.size(); ++i) {
    by_query[wl.train[i].query_id].push_back(i);
  }
  const data::Database& db = *ctx.db;
  util::ParallelFor(0, by_query.size(), [&](size_t q) {
    if (by_query[q].empty()) return;
    const float* query = wl.queries.row(q);
    for (size_t c = 0; c < k; ++c) {
      std::vector<float> dists;
      dists.reserve(cluster_ids_[c].size());
      for (size_t id : cluster_ids_[c]) {
        if (!db.alive(id)) continue;
        dists.push_back(data::Distance(query, db.vector(id), db.dim(),
                                       db.metric()));
      }
      std::sort(dists.begin(), dists.end());
      for (size_t i : by_query[q]) {
        auto ub = std::upper_bound(dists.begin(), dists.end(), wl.train[i].t);
        local_y_[c][i] = static_cast<float>(ub - dists.begin());
      }
    }
    for (size_t i : by_query[q]) {
      std::vector<uint8_t> fc = part_.Intersects(query, wl.train[i].t);
      for (size_t c = 0; c < k; ++c) mask_[c][i] = fc[c] ? 1.0f : 0.0f;
    }
  }, /*grain=*/4);
}

SelNetPartitioned::LocalBatch SelNetPartitioned::MakeBatch(
    const eval::TrainContext& ctx, const std::vector<size_t>& idx) const {
  const auto& wl = *ctx.workload;
  LocalBatch b;
  b.base = data::MaterializeBatch(wl.queries, wl.train, idx);
  size_t k = heads_.size();
  b.local_y.reserve(k);
  b.mask.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    tensor::Matrix ly(idx.size(), 1), m(idx.size(), 1);
    for (size_t i = 0; i < idx.size(); ++i) {
      ly(i, 0) = local_y_[c][idx[i]];
      m(i, 0) = mask_[c][idx[i]];
    }
    b.local_y.push_back(std::move(ly));
    b.mask.push_back(std::move(m));
  }
  return b;
}

double SelNetPartitioned::TrainBatch(const LocalBatch& batch, bool joint,
                                     nn::Optimizer* opt) {
  ag::Var x = ag::Constant(batch.base.x);
  ag::Var t = ag::Constant(batch.base.t);
  ag::Var input = ag::ConcatCols(x, ae_.Encode(x));
  size_t k = heads_.size();

  ag::Var local_sum;  // sum of local losses
  ag::Var global_yhat;
  for (size_t c = 0; c < k; ++c) {
    ControlHeads::Out heads = heads_[c].Forward(input);
    ag::Var yhat = ag::PiecewiseLinearGather(heads.tau, heads.p, t);
    ag::Var ly = ag::Constant(batch.local_y[c]);
    ag::Var local_loss =
        ag::HuberLogLoss(yhat, ly, cfg_.base.huber_delta, cfg_.base.log_eps);
    local_sum = local_sum ? ag::Add(local_sum, local_loss) : local_loss;
    if (joint) {
      ag::Var masked = ag::MulColBroadcast(yhat, ag::Constant(batch.mask[c]));
      global_yhat = global_yhat ? ag::Add(global_yhat, masked) : masked;
    }
  }

  ag::Var total;
  if (joint) {
    ag::Var y = ag::Constant(batch.base.y);
    ag::Var global_loss =
        ag::HuberLogLoss(global_yhat, y, cfg_.base.huber_delta, cfg_.base.log_eps);
    total = ag::Add(global_loss, ag::Scale(local_sum, cfg_.beta));
  } else {
    total = local_sum;
  }
  total = ag::Add(total, ag::Scale(ae_.ReconstructionLoss(x), cfg_.base.lambda_ae));

  opt->ZeroGrad();
  ag::Backward(total);
  opt->ClipGrad(5.0f);
  opt->Step();
  // Weights moved; every local head's folded tail is stale.
  for (auto& h : heads_) h.InvalidateInferenceCache();
  return total->value(0, 0);
}

double SelNetPartitioned::RunEpoch(const eval::TrainContext& ctx, bool joint,
                                   nn::Optimizer* opt, std::vector<size_t>* order,
                                   util::Rng* rng) {
  rng->Shuffle(order);
  double total = 0.0;
  size_t batches = 0;
  for (size_t begin = 0; begin < order->size(); begin += cfg_.base.batch_size) {
    size_t end = std::min(begin + cfg_.base.batch_size, order->size());
    std::vector<size_t> idx(order->begin() + begin, order->begin() + end);
    total += TrainBatch(MakeBatch(ctx, idx), joint, opt);
    ++batches;
  }
  return total / std::max<size_t>(1, batches);
}

void SelNetPartitioned::Fit(const eval::TrainContext& ctx) {
  SEL_CHECK(ctx.db != nullptr && ctx.workload != nullptr);
  db_ = ctx.db;
  const auto& wl = *ctx.workload;
  SEL_CHECK(!wl.train.empty());

  if (!structure_built_) BuildStructure(ctx);
  ComputeLocalLabels(ctx);

  if (!ae_pretrained_) {
    tensor::Matrix dense = ctx.db->DenseView();
    if (dense.rows() > cfg_.base.ae_pretrain_rows) {
      std::vector<size_t> picks =
          rng_.SampleWithoutReplacement(dense.rows(), cfg_.base.ae_pretrain_rows);
      tensor::Matrix sub(picks.size(), dense.cols());
      for (size_t i = 0; i < picks.size(); ++i) {
        std::copy(dense.row(picks[i]), dense.row(picks[i]) + dense.cols(),
                  sub.row(i));
      }
      dense = std::move(sub);
    }
    ae_.Pretrain(dense, cfg_.base.ae_pretrain_epochs, 128, 1e-3f, &rng_);
    ae_pretrained_ = true;
  }

  nn::Adam opt(Params(), cfg_.base.lr);
  std::vector<size_t> order(wl.train.size());
  std::iota(order.begin(), order.end(), size_t{0});

  size_t pretrain_epochs = static_cast<size_t>(
      std::llround(cfg_.pretrain_frac * static_cast<double>(ctx.epochs)));
  double best_mae = std::numeric_limits<double>::max();
  std::vector<tensor::Matrix> best;
  for (size_t epoch = 0; epoch < ctx.epochs; ++epoch) {
    bool joint = epoch >= pretrain_epochs;
    double loss = RunEpoch(ctx, joint, &opt, &order, &rng_);
    if (joint) {
      double mae = ValidationMae(ctx);
      if (mae < best_mae) {
        best_mae = mae;
        best = nn::SnapshotParams(Params());
      }
      util::LogDebug("SelNet epoch %zu joint loss %.5f val-mae %.2f", epoch,
                     loss, mae);
    }
  }
  if (!best.empty()) {
    nn::RestoreParams(Params(), best);
    // Folds were built from last-epoch weights.
    for (auto& h : heads_) h.InvalidateInferenceCache();
  }
}

size_t SelNetPartitioned::IncrementalFit(const eval::TrainContext& ctx,
                                         size_t patience, size_t max_epochs) {
  SEL_CHECK(structure_built_);
  db_ = ctx.db;
  ComputeLocalLabels(ctx);
  nn::Adam opt(Params(), cfg_.base.lr * 0.5f);
  std::vector<size_t> order(ctx.workload->train.size());
  std::iota(order.begin(), order.end(), size_t{0});
  double best_mae = ValidationMae(ctx);
  std::vector<tensor::Matrix> best = nn::SnapshotParams(Params());
  size_t bad = 0, epochs = 0;
  while (bad < patience && epochs < max_epochs) {
    RunEpoch(ctx, /*joint=*/true, &opt, &order, &rng_);
    ++epochs;
    double mae = ValidationMae(ctx);
    if (mae < best_mae - 1e-9) {
      best_mae = mae;
      best = nn::SnapshotParams(Params());
      bad = 0;
    } else {
      ++bad;
    }
  }
  nn::RestoreParams(Params(), best);
  // Folds were built from last-epoch weights.
  for (auto& h : heads_) h.InvalidateInferenceCache();
  return epochs;
}

std::unique_ptr<SelNetPartitioned> SelNetPartitioned::Clone() const {
  auto clone = std::make_unique<SelNetPartitioned>(cfg_);
  clone->part_ = part_;
  clone->cluster_ids_ = cluster_ids_;
  clone->db_ = db_;
  clone->structure_built_ = structure_built_;
  clone->ae_pretrained_ = ae_pretrained_;
  clone->local_y_ = local_y_;
  clone->mask_ = mask_;
  // Fresh heads (fresh autograd leaves), shaped without init draws: every
  // value is copied below and the rng stream is the source's.
  clone->heads_.reserve(heads_.size());
  for (const auto& h : heads_) clone->heads_.emplace_back(h.config(), nullptr);
  std::vector<ag::Var> src = Params();
  std::vector<ag::Var> dst = clone->Params();
  SEL_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
  clone->rng_ = rng_;
  clone->InvalidateInferenceCache();
  return clone;
}

void SelNetPartitioned::AssignNewObject(size_t id, const float* vec) {
  SEL_CHECK(structure_built_);
  size_t cluster = part_.AssignObject(vec);
  cluster_ids_[cluster].push_back(id);
}

tensor::Matrix SelNetPartitioned::Predict(const tensor::Matrix& x,
                                          const tensor::Matrix& t) {
  SEL_CHECK(structure_built_);
  SEL_CHECK_EQ(x.rows(), t.rows());
  tensor::Matrix out(x.rows(), 1);
  constexpr size_t kChunk = 1024;
  size_t k = heads_.size();
  for (size_t begin = 0; begin < x.rows(); begin += kChunk) {
    size_t end = std::min(begin + kChunk, x.rows());
    size_t b = end - begin;
    ag::Var xb = ag::Constant(x.RowSlice(begin, end));
    ag::Var tb = ag::Constant(t.RowSlice(begin, end));
    ag::Var input = ag::ConcatCols(xb, ae_.Encode(xb));
    // fc indicators for the chunk.
    std::vector<tensor::Matrix> masks(k, tensor::Matrix(b, 1));
    for (size_t r = 0; r < b; ++r) {
      std::vector<uint8_t> fc = part_.Intersects(x.row(begin + r), t(begin + r, 0));
      for (size_t c = 0; c < k; ++c) masks[c](r, 0) = fc[c] ? 1.0f : 0.0f;
    }
    ag::Var global;
    for (size_t c = 0; c < k; ++c) {
      ControlHeads::Out heads = heads_[c].ForwardInference(input);
      ag::Var yhat = ag::PiecewiseLinearGather(heads.tau, heads.p, tb);
      ag::Var masked = ag::MulColBroadcast(yhat, ag::Constant(masks[c]));
      global = global ? ag::Add(global, masked) : masked;
    }
    for (size_t r = 0; r < b; ++r) out(begin + r, 0) = global->value(r, 0);
  }
  return out;
}

std::vector<float> SelNetPartitioned::SweepEstimate(const float* x,
                                                    const float* ts,
                                                    size_t count) {
  SEL_CHECK(structure_built_);
  size_t k = heads_.size();
  tensor::Matrix xm(1, cfg_.base.input_dim);
  std::copy(x, x + cfg_.base.input_dim, xm.row(0));
  ag::Var xb = ag::Constant(std::move(xm));
  ag::Var input = ag::ConcatCols(xb, ae_.Encode(xb));
  // One control-point evaluation per cluster, reused for every threshold.
  std::vector<PiecewiseLinear> curves;
  curves.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    ControlHeads::Out heads = heads_[c].ForwardInference(input);
    size_t knots = heads.tau->cols();
    curves.emplace_back(
        std::vector<float>(heads.tau->value.row(0),
                           heads.tau->value.row(0) + knots),
        std::vector<float>(heads.p->value.row(0),
                           heads.p->value.row(0) + knots));
  }
  std::vector<float> out(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint8_t> fc = part_.Intersects(x, ts[i]);
    // Mirror Predict's masked accumulation: cluster order, float adds, and
    // exact zeros for inactive clusters (knot values are non-negative, so
    // Predict's 0 * yhat is +0.0f too).
    float acc = 0.0f;
    for (size_t c = 0; c < k; ++c) acc += fc[c] ? curves[c](ts[i]) : 0.0f;
    out[i] = acc;
  }
  return out;
}

double SelNetPartitioned::ValidationMae(const eval::TrainContext& ctx) {
  const auto& wl = *ctx.workload;
  if (wl.valid.empty()) return 0.0;
  data::Batch batch = data::MaterializeAll(wl.queries, wl.valid);
  tensor::Matrix yhat = Predict(batch.x, batch.t);
  double total = 0.0;
  for (size_t i = 0; i < wl.valid.size(); ++i) {
    total += std::fabs(static_cast<double>(yhat(i, 0)) - batch.y(i, 0));
  }
  return total / static_cast<double>(wl.valid.size());
}

std::vector<ag::Var> SelNetPartitioned::Params() const {
  std::vector<ag::Var> out = ae_.Params();
  for (const auto& h : heads_) {
    for (const auto& p : h.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace selnet::core
