/// \file make_artifact.cc
/// \brief One-off trainer for the benchmark's stored model artifact.
///
/// Trains SelNet-ct on the face-like corpus of the paper's Table 3 setting
/// (20000 x 128, cosine distance) with fixed seeds, then writes
///   <out_dir>/face_cos.selm   core::SaveModel bytes
///   <out_dir>/MANIFEST        corpus spec, training settings, checksum
///
///   make_artifact <out_dir>
///
/// The benchmark never trains: it loads this file. Rerun the generator when
/// the model format changes. Training labels come from data::GenerateWorkload
/// and training runs batched GEMMs, both of which go through
/// util::ParallelFor from this (non-pool) thread, so the generator is exposed
/// to the ParallelFor use-after-scope defect and may abort; rerun it if so.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "artifact.h"
#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "data/database.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "eval/estimator.h"
#include "util/env.h"

using namespace selnet;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_artifact <out_dir>\n");
    return 2;
  }
  const std::string out_dir = argv[1];

  servebench::Manifest m;
  util::ScaleConfig scale;
  scale.n = 20000;
  scale.dim = 128;
  m.corpus = data::SpecFor(data::Corpus::kFaceLike, scale);
  m.train_queries = 400;
  m.train_w = 16;
  m.max_sel_fraction = 0.01;
  m.workload_seed = 23;
  m.epochs = 30;
  m.train_seed = 1;

  auto t0 = std::chrono::steady_clock::now();
  data::Database db(data::GenerateMixture(m.corpus), data::Metric::kCosine);
  data::WorkloadSpec wspec;
  wspec.num_queries = m.train_queries;
  wspec.w = m.train_w;
  wspec.max_sel_fraction = m.max_sel_fraction;
  wspec.seed = m.workload_seed;
  data::Workload wl = data::GenerateWorkload(db, wspec);

  core::SelNetConfig cfg;
  cfg.input_dim = db.dim();
  cfg.tmax = wl.tmax;
  eval::TrainContext ctx;
  ctx.db = &db;
  ctx.workload = &wl;
  ctx.epochs = m.epochs;
  ctx.seed = m.train_seed;
  core::SelNetCt model(cfg);
  model.Fit(ctx);
  double train_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  auto bytes = core::SaveModelBytes(model);
  if (!bytes.ok()) {
    std::fprintf(stderr, "SaveModelBytes: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }
  const std::string& model_bytes = bytes.ValueOrDie();
  m.model_bytes = model_bytes.size();
  m.fnv1a64 = servebench::Fnv1a64(model_bytes);

  const std::string model_path = out_dir + "/face_cos.selm";
  const std::string manifest_path = out_dir + "/MANIFEST";
  std::FILE* f = std::fopen(model_path.c_str(), "wb");
  if (!f || std::fwrite(model_bytes.data(), 1, model_bytes.size(), f) !=
                model_bytes.size()) {
    std::fprintf(stderr, "cannot write %s\n", model_path.c_str());
    return 1;
  }
  std::fclose(f);
  std::string manifest = servebench::FormatManifest(m);
  f = std::fopen(manifest_path.c_str(), "w");
  if (!f || std::fputs(manifest.c_str(), f) < 0) {
    std::fprintf(stderr, "cannot write %s\n", manifest_path.c_str());
    return 1;
  }
  std::fclose(f);
  std::printf("trained in %.1f s, tmax=%.6f, %zu bytes\n%s", train_s,
              wl.tmax, m.model_bytes, manifest.c_str());
  return 0;
}
