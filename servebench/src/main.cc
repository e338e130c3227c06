/// \file main.cc
/// \brief servebench: runs one serving workload against the stored model
/// artifact and prints every metric, then one JSON result line.
///
///   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              --artifact-dir <dir> [--commit <id>]
///
/// The last stdout line is {"correct", "attempted", "failed", "metrics"}
/// with every metric the run measured; run.py selects the ones
/// BENCHMARK.json lists for the traced or untraced run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "artifact.h"
#include "data/synthetic.h"
#include "oracle.h"
#include "tensor/kernel_dispatch.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed "
               "<n> --seconds <1..60> --trace <0|1> --artifact-dir <dir> "
               "[--commit <id>]\nworkloads:",
               msg);
  for (const auto& w : servebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Hypervisor-stolen and total CPU ticks so far, from /proc/stat (Linux).
bool CpuTicks(double* steal, double* total) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return false;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  *total = 0;
  for (unsigned long long x : v) *total += double(x);
  *steal = double(v[7]);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--artifact-dir") {
      opt.artifact_dir = val;
    } else if (key == "--commit") {
      opt.commit = val;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!servebench::IsWorkload(opt.workload)) return Usage("unknown workload");
  if (opt.seconds < 1 || opt.seconds > 60) return Usage("bad --seconds");
  if (opt.artifact_dir.empty()) return Usage("--artifact-dir is required");

  servebench::Manifest manifest;
  std::string text, err;
  const std::string manifest_path = opt.artifact_dir + "/MANIFEST";
  if (!servebench::ReadFile(manifest_path, &text)) {
    std::fprintf(stderr, "servebench: cannot read %s\n",
                 manifest_path.c_str());
    return 1;
  }
  if (!servebench::ParseManifest(text, &manifest, &err)) {
    std::fprintf(stderr, "servebench: %s\n", err.c_str());
    return 1;
  }

  std::printf(
      "# meta workload=%s seed=%llu seconds=%d trace=%d cores=%u kernel=%s "
      "compiler=\"%s\" build=%s commit=%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      selnet::tensor::ActiveKernel().name, __VERSION__, SERVEBENCH_BUILD_TYPE,
      opt.commit.c_str());
  std::fflush(stdout);

  servebench::ExactOracle oracle(
      selnet::data::GenerateMixture(manifest.corpus));
  servebench::RunInputs in;
  in.opt = &opt;
  in.manifest = &manifest;
  in.model_path = opt.artifact_dir + "/face_cos.selm";
  in.oracle = &oracle;
  double steal0 = 0, total0 = 0, steal1 = 0, total1 = 0;
  const bool ticks = CpuTicks(&steal0, &total0);
  servebench::RunResult r = servebench::RunWorkload(in);
  if (ticks && CpuTicks(&steal1, &total1) && total1 > total0) {
    r.meta += " host_steal_share=" +
              std::to_string((steal1 - steal0) / (total1 - total0));
  }

  for (auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.violations.push_back("metric " + name + " is not finite");
      m.value = 0;
    }
  }
  for (const auto& v : r.violations) {
    std::fprintf(stderr, "servebench: VIOLATION: %s\n", v.c_str());
  }
  if (r.metrics.empty()) {
    std::fprintf(stderr, "servebench: run produced no metrics\n");
    return 1;
  }
  std::printf("%-34s %16s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-34s %16.6f %-6s %10llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("# meta-end%s\n", r.meta.c_str());

  std::string json = "{\"correct\": ";
  json += r.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, r.attempted));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : r.metrics) {
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + JsonEscape(name) + "\": {\"value\": " +
            num + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
