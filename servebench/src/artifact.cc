#include "artifact.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace servebench {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return bool(in) || in.eof();
}

std::string FormatManifest(const Manifest& m) {
  const auto& c = m.corpus;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "corpus=face\n"
      "n=%zu\ndim=%zu\nnum_clusters=%zu\nzipf_s=%.17g\n"
      "cluster_std_min=%.9g\ncluster_std_max=%.9g\ncenter_std=%.9g\n"
      "anisotropy=%.9g\nnormalize=%d\ncorpus_seed=%" PRIu64 "\n"
      "metric=%s\n"
      "train_queries=%zu\ntrain_w=%zu\nmax_sel_fraction=%.17g\n"
      "workload_seed=%" PRIu64 "\nepochs=%zu\ntrain_seed=%" PRIu64 "\n"
      "model_bytes=%zu\nfnv1a64=%016" PRIx64 "\n",
      c.n, c.dim, c.num_clusters, c.zipf_s, c.cluster_std_min,
      c.cluster_std_max, c.center_std, c.anisotropy, c.normalize ? 1 : 0,
      c.seed, m.metric.c_str(), m.train_queries, m.train_w,
      m.max_sel_fraction, m.workload_seed, m.epochs, m.train_seed,
      m.model_bytes, m.fnv1a64);
  return buf;
}

bool ParseManifest(const std::string& text, Manifest* m, std::string* err) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.find('=');
    if (line.empty() || line[0] == '#' || eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto val = [&](const char* key) -> const std::string& {
    auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(std::string("missing key '") + key + "'");
    }
    return it->second;
  };
  try {
    auto& c = m->corpus;
    c.n = std::stoull(val("n"));
    c.dim = std::stoull(val("dim"));
    c.num_clusters = std::stoull(val("num_clusters"));
    c.zipf_s = std::stod(val("zipf_s"));
    c.cluster_std_min = std::stof(val("cluster_std_min"));
    c.cluster_std_max = std::stof(val("cluster_std_max"));
    c.center_std = std::stof(val("center_std"));
    c.anisotropy = std::stof(val("anisotropy"));
    c.normalize = val("normalize") == "1";
    c.seed = std::stoull(val("corpus_seed"));
    m->metric = val("metric");
    m->train_queries = std::stoull(val("train_queries"));
    m->train_w = std::stoull(val("train_w"));
    m->max_sel_fraction = std::stod(val("max_sel_fraction"));
    m->workload_seed = std::stoull(val("workload_seed"));
    m->epochs = std::stoull(val("epochs"));
    m->train_seed = std::stoull(val("train_seed"));
    m->model_bytes = std::stoull(val("model_bytes"));
    m->fnv1a64 = std::stoull(val("fnv1a64"), nullptr, 16);
  } catch (const std::exception& e) {
    *err = std::string("manifest: ") + e.what();
    return false;
  }
  if (m->metric != "cos") {
    *err = "manifest: only metric=cos is supported, got '" + m->metric + "'";
    return false;
  }
  return true;
}

}  // namespace servebench
