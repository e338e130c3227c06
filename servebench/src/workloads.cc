#include "workloads.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <thread>

#include "alloc_hook.h"
#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "serve/client_channel.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/trace.h"
#include "serve/wire_binary.h"
#include "tensor/pack_cache.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

namespace serve = selnet::serve;
using selnet::tensor::Matrix;
using Submission = serve::SelNetServer::Submission;

constexpr size_t kMaxK = 16;
/// Thresholds are drawn in [kTLo, kTHi] x tmax (the model's PWL domain).
constexpr float kTLo = 0.05f;
constexpr float kTHi = 0.6f;
/// Set-up is repeated this many times; setup_s is the median.
constexpr size_t kSetupReps = 11;
/// In traced runs one request in this many carries a RequestTrace.
constexpr uint64_t kTraceEvery = 16;
/// Pause between repeated set-ups. The host's speed drifts over tens of
/// milliseconds; spreading the samples lets their median average over it.
constexpr auto kSamplePause = std::chrono::milliseconds(50);
/// The writer publishes the stored artifact this often during the window.
constexpr auto kPublishPeriod = std::chrono::milliseconds(250);
/// Route the writer republishes in workloads that do not read what it
/// publishes: no request is sent to it.
const char* const kSpareRoute = "publish-spare";
/// Audit requests whose answers feed served_mape.
constexpr uint64_t kAuditCount = 4096;
/// Upper bound on served answers compared against the reference Predict.
constexpr size_t kDiffChecks = 1500;
/// Log slots reserved for the republish writer's cold-answer probes.
constexpr uint64_t kWriterSlots = 4096;
/// Traced runs fail when child spans leave more than this share of the
/// request spans unexplained.
constexpr double kUnaccountedTolerance = 0.25;
/// Throughput, p50 and CPU per request are medians over windows this long.
constexpr int64_t kWindowNs = 500000000;
/// How long the run waits for outstanding answers before calling them lost.
constexpr double kDrainTimeoutS = 10.0;

// ------------------------------------------------------------ workloads ---

struct Def {
  std::string name;
  bool wire = false;        ///< 2-shard router behind NetFrontend + channels.
  size_t routes = 1;        ///< Routes the model is published under.
  bool curve_cache = false;
  size_t pool = 0;          ///< Query vectors drawn from the seed.
  bool fresh = false;       ///< Cycle the pool in order instead of Zipf.
  double zipf_s = 1.0;
  size_t k = 1;             ///< Thresholds per request.
  size_t grid = 0;          ///< Threshold levels; 0 = continuous draws.
  size_t audit_every = 16;  ///< Every n-th request is a uniform audit draw.
  double open_rate = 0.0;   ///< Requests/s of the open-loop phase.
  double open_share = 0.0;  ///< Share of --seconds run open loop.
  size_t callers = 1;       ///< Closed-loop generator threads.
  size_t window = 32;       ///< Requests each caller keeps in flight.
  /// The writer republishes the served route and times the first answer
  /// after each publish; otherwise it republishes kSpareRoute, unread.
  bool publish_served = false;
};

const std::vector<Def>& Defs() {
  static const std::vector<Def> defs = [] {
    std::vector<Def> v(3);
    Def& w = v[0];
    w.name = "wire-point-fresh";
    w.wire = true;
    w.routes = 8;
    w.pool = 16384;
    w.fresh = true;
    w.audit_every = 8;
    w.open_rate = 8000;
    w.open_share = 0.4;
    w.callers = 1;
    w.window = 64;

    Def& s = v[1];
    s.name = "inproc-sweep-hot";
    s.curve_cache = true;
    s.pool = 8192;  // Twice the curve cache's 4096 entries.
    s.k = 16;
    s.grid = 64;
    s.callers = 2;
    s.window = 16;

    Def& r = v[2];
    r.name = "republish-reads";
    r.pool = 8192;
    r.zipf_s = 0.8;
    r.grid = 8;
    r.open_rate = 10000;
    r.open_share = 1.0;
    r.callers = 1;
    r.window = 32;
    r.publish_served = true;
    return v;
  }();
  return defs;
}

const Def* FindDef(const std::string& name) {
  for (const Def& d : Defs()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

/// The request stream: request i is a pure function of (seed, i).
class Stream {
 public:
  Stream(const Def& def, uint64_t seed, Matrix pool, float tmax)
      : def_(def),
        seed_(seed),
        pool_(std::move(pool)),
        zipf_(pool_.rows(), def.zipf_s),
        lo_(kTLo * tmax),
        hi_(kTHi * tmax) {}

  size_t dim() const { return pool_.cols(); }
  size_t k() const { return def_.k; }
  uint64_t audit_limit() const { return def_.audit_every * kAuditCount; }

  const float* X(uint64_t i) const {
    const size_t n = pool_.rows();
    size_t entry;
    if (def_.fresh) {
      entry = i % n;
    } else if (i % def_.audit_every == 0) {
      entry = std::min(n - 1, size_t(Unit(seed_, i, 0) * n));
    } else {
      entry = zipf_.Rank(Unit(seed_, i, 0));
    }
    return pool_.row(entry);
  }

  /// Fills k() thresholds, sorted ascending.
  void Thresholds(uint64_t i, float* t) const {
    const size_t k = def_.k;
    if (def_.grid == 0) {
      for (size_t j = 0; j < k; ++j) {
        t[j] = lo_ + (hi_ - lo_) * float(Unit(seed_, i, 1 + j));
      }
      std::sort(t, t + k);
      return;
    }
    // Floyd's sample of k distinct levels out of `grid`.
    size_t levels[kMaxK];
    size_t m = 0;
    for (size_t j = def_.grid - k; j < def_.grid; ++j, ++m) {
      size_t r = std::min(j, size_t(Unit(seed_, i, 1 + m) * (j + 1)));
      levels[m] = std::find(levels, levels + m, r) != levels + m ? j : r;
    }
    std::sort(levels, levels + k);
    for (size_t j = 0; j < k; ++j) {
      t[j] = lo_ + (hi_ - lo_) * (float(levels[j]) + 0.5f) / float(def_.grid);
    }
  }

  size_t Route(uint64_t i) const {
    if (def_.routes <= 1) return 0;
    return std::min(def_.routes - 1, size_t(Unit(seed_, i, 40) * def_.routes));
  }

  /// Exponential inter-arrival gap (in units of 1/rate) before request i.
  double Gap(uint64_t i) const { return -std::log1p(-Unit(seed_, i, 50)); }

 private:
  const Def& def_;
  uint64_t seed_;
  Matrix pool_;
  Zipf zipf_;
  float lo_, hi_;
};

// ------------------------------------------------------------------ log ---

/// Zero-filled array from calloc: pages are only touched when a request
/// writes its slot, so the log's size does not show up in peak RSS.
template <typename T>
class ZeroArray {
 public:
  explicit ZeroArray(size_t n)
      : p_(static_cast<T*>(std::calloc(n ? n : 1, sizeof(T)))), n_(n) {
    if (!p_) throw std::bad_alloc();
  }
  ~ZeroArray() { std::free(p_); }
  ZeroArray(const ZeroArray&) = delete;
  ZeroArray& operator=(const ZeroArray&) = delete;
  T& operator[](size_t i) { return p_[i]; }
  const T& operator[](size_t i) const { return p_[i]; }

  /// Bytes of this array's pages that are resident (mincore).
  size_t ResidentBytes() const {
    const uintptr_t page = uintptr_t(sysconf(_SC_PAGESIZE));
    const uintptr_t lo = uintptr_t(p_) & ~(page - 1);
    const uintptr_t hi = (uintptr_t(p_ + n_) + page - 1) & ~(page - 1);
    std::vector<unsigned char> in((hi - lo) / page);
    if (mincore(reinterpret_cast<void*>(lo), hi - lo, in.data()) != 0) return 0;
    size_t pages = 0;
    for (unsigned char c : in) pages += c & 1;
    return pages * page;
  }

 private:
  T* p_;
  size_t n_;
};

/// Everything recorded per request, indexed by stream index.
struct Log {
  Log(size_t cap, size_t k)
      : cap(cap),
        k(k),
        due_ns(cap),
        sent_ns(cap),
        done_ns(cap),
        est(cap * k),
        version(cap),
        completions(cap),
        ok(cap),
        span_ms(cap / kTraceEvery + 1),
        child_ms(cap / kTraceEvery + 1),
        traces(cap / kTraceEvery + 1) {}

  const size_t cap, k;
  ZeroArray<int64_t> due_ns, sent_ns, done_ns;
  ZeroArray<float> est;
  ZeroArray<uint64_t> version;
  ZeroArray<uint8_t> completions;  ///< Touched with __atomic builtins.
  ZeroArray<uint8_t> ok;
  ZeroArray<float> span_ms, child_ms;  ///< Traced requests only.
  std::vector<std::shared_ptr<serve::RequestTrace>> traces;

  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> duplicates{0};
  std::atomic<uint64_t> nonmonotone{0};
  std::mutex error_mu;
  std::string first_error;

  size_t ResidentBytes() const {
    return due_ns.ResidentBytes() + sent_ns.ResidentBytes() +
           done_ns.ResidentBytes() + est.ResidentBytes() +
           version.ResidentBytes() + completions.ResidentBytes() +
           ok.ResidentBytes() + span_ms.ResidentBytes() +
           child_ms.ResidentBytes();
  }

  uint8_t Completions(uint64_t i) const {
    return __atomic_load_n(&completions[i], __ATOMIC_ACQUIRE);
  }
};

/// A closed-loop caller's in-flight window.
struct Caller {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int64_t> inflight{0};

  void Release() {
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    { std::lock_guard<std::mutex> lock(mu); }
    cv.notify_one();
  }
  void WaitBelow(int64_t window) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(1),
                [&] { return inflight.load() < window; });
  }
};

/// Where completions go: the log, plus the caller whose window they free.
struct Sink {
  Log* log = nullptr;
  Caller* caller = nullptr;
  bool wire = false;  ///< Child span of a traced request: the remote hop.
};

void Complete(const Sink& sink, uint64_t i, serve::EstimateResponse&& r,
              std::exception_ptr error) {
  Log& log = *sink.log;
  const int64_t now = NowNs();
  if (__atomic_fetch_add(&log.completions[i], 1, __ATOMIC_ACQ_REL) != 0) {
    log.duplicates.fetch_add(1);
    return;
  }
  log.done_ns[i] = now;
  bool good = !error && r.estimates.size() == log.k;
  if (!good) {
    log.errors.fetch_add(1);
    std::string what = "wrong estimate count";
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
        what = "unknown exception";
      }
    }
    std::lock_guard<std::mutex> lock(log.error_mu);
    if (log.first_error.empty()) log.first_error = what;
  } else {
    float* out = &log.est[i * log.k];
    std::copy(r.estimates.begin(), r.estimates.end(), out);
    log.version[i] = r.version;
    for (size_t j = 1; j < log.k; ++j) {
      if (out[j] < out[j - 1]) {
        log.nonmonotone.fetch_add(1);
        good = false;
        break;
      }
    }
  }
  log.ok[i] = good;
  if (i % kTraceEvery == 0 && log.traces[i / kTraceEvery]) {
    serve::SpanRecord span = log.traces[i / kTraceEvery]->Finish("", i);
    const auto& st = span.stage_ms;
    using serve::Stage;
    double child =
        sink.wire ? st[size_t(Stage::kRemoteWire)]
                  : st[size_t(Stage::kRoute)] + st[size_t(Stage::kCache)] +
                        st[size_t(Stage::kQueue)] +
                        st[size_t(Stage::kPredict)];
    log.span_ms[i / kTraceEvery] = float((now - log.sent_ns[i]) / 1e6);
    log.child_ms[i / kTraceEvery] = float(child);
  }
  if (sink.caller) sink.caller->Release();
  log.completed.fetch_add(1, std::memory_order_release);
}

/// Builds the submission for stream index i (its completion goes to `sink`).
Submission MakeSubmission(const Stream& stream, Log* log, const Sink* sink,
                          const std::vector<std::string>& routes, uint64_t i,
                          bool traced) {
  Submission s;
  const float* x = stream.X(i);
  float t[kMaxK];
  stream.Thresholds(i, t);
  s.req.model = routes[stream.Route(i)];
  s.req.x.assign(x, x + stream.dim());
  s.req.thresholds.assign(t, t + stream.k());
  s.req.tag = i;
  if (traced && i % kTraceEvery == 0) {
    s.req.trace = std::make_shared<serve::RequestTrace>();
    log->traces[i / kTraceEvery] = s.req.trace;
  }
  s.done = [sink, i](serve::EstimateResponse&& r, std::exception_ptr e) {
    Complete(*sink, i, std::move(r), e);
  };
  return s;
}

// ---------------------------------------------------------------- stack ---

/// One serving stack. Members are destroyed in reverse order: channels,
/// then the frontend, then the servers.
struct Stack {
  std::unique_ptr<serve::ShardedRegistry> reg;
  std::unique_ptr<serve::SelNetServer> server;
  std::unique_ptr<serve::NetFrontend> fe;
  std::vector<std::unique_ptr<serve::ClientChannel>> channels;
  std::vector<std::string> routes;

  selnet::util::Result<uint64_t> Publish(const std::string& route,
                                         const std::string& bytes) {
    return server ? server->PublishFromBytes(route, bytes, "artifact")
                  : reg->PublishFromBytes(route, bytes, "artifact");
  }

  /// One SubmitWith per request: in-process callers are independent. With a
  /// log, each request's send time is stamped as its own call starts.
  void SendInproc(std::vector<Submission> batch, Log* log = nullptr) {
    for (Submission& s : batch) {
      if (log) log->sent_ns[s.req.tag] = NowNs();
      if (server) {
        server->SubmitWith(std::move(s.req), std::move(s.done));
      } else {
        reg->SubmitWith(std::move(s.req), std::move(s.done));
      }
    }
  }

  /// Spreads a batch over the channels by tag.
  void SendWire(std::vector<Submission> batch) {
    if (channels.size() == 1) {
      channels[0]->CallMany(std::move(batch));
      return;
    }
    std::vector<std::vector<Submission>> parts(channels.size());
    for (Submission& s : batch) {
      parts[s.req.tag % channels.size()].push_back(std::move(s));
    }
    for (size_t c = 0; c < channels.size(); ++c) {
      if (!parts[c].empty()) channels[c]->CallMany(std::move(parts[c]));
    }
  }

  selnet::util::Status AttachFrontend(size_t num_channels) {
    serve::FrontendConfig fc;
    fc.num_loops = 1;
    fe = server ? std::make_unique<serve::NetFrontend>(fc, server.get())
                : std::make_unique<serve::NetFrontend>(fc, reg.get());
    if (!fe->status().ok()) return fe->status();
    for (size_t c = 0; c < num_channels; ++c) {
      serve::ClientChannelConfig cc;
      cc.port = fe->port();
      channels.push_back(std::make_unique<serve::ClientChannel>(cc));
      selnet::util::Status st = channels.back()->Connect();
      if (!st.ok()) return st;
    }
    return selnet::util::Status::OK();
  }

  serve::StatsSnapshot Snapshot() const {
    return server ? server->stats().Snapshot() : reg->AggregateSnapshot();
  }
  std::vector<uint64_t> ShardRequests() const {
    if (server) return {server->stats().Snapshot().requests};
    std::vector<uint64_t> out;
    for (const auto& s : reg->ShardSnapshots()) out.push_back(s.requests);
    return out;
  }
  uint64_t Evictions() {
    if (server) return server->cache().evictions();
    uint64_t total = 0;
    for (size_t i = 0; i < reg->num_shards(); ++i) {
      total += reg->shard(i).cache().evictions();
    }
    return total;
  }
  uint64_t Stalls() const {
    return fe ? fe->Stats().backpressure_stalls : 0;
  }
};

std::unique_ptr<Stack> BuildStack(const Def& def, size_t dim) {
  auto st = std::make_unique<Stack>();
  serve::ServerConfig sc;
  sc.dim = dim;
  sc.enable_cache = true;
  sc.enable_curve_cache = def.curve_cache;
  if (def.wire) {
    serve::ShardedConfig shc;
    shc.server = sc;
    shc.num_shards = 2;
    st->reg = std::make_unique<serve::ShardedRegistry>(shc);
    for (size_t r = 0; r < def.routes; ++r) {
      st->routes.push_back("m" + std::to_string(r));
    }
  } else {
    st->server = std::make_unique<serve::SelNetServer>(sc);
    st->routes = {sc.model_name};
  }
  return st;
}

// -------------------------------------------------------------- drivers ---

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

using SendFn = std::function<void(std::vector<Submission>)>;

/// Samples process CPU time at every kWindowNs boundary from `start_ns`, so
/// CPU per request can be taken window by window.
class CpuSampler {
 public:
  explicit CpuSampler(int64_t start_ns)
      : thread_([this, start_ns] { Loop(start_ns); }) {}
  ~CpuSampler() { Stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Stops sampling; returns the CPU seconds used in each whole window.
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    std::vector<double> out;
    for (size_t w = 1; w < at_.size(); ++w) out.push_back(at_[w] - at_[w - 1]);
    return out;
  }

 private:
  void Loop(int64_t start_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    for (int64_t w = 0;; ++w) {
      const auto due = Clock::time_point(
          std::chrono::nanoseconds(start_ns + w * kWindowNs));
      if (cv_.wait_until(lock, due, [this] { return stop_; })) return;
      at_.push_back(CpuSeconds());
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> at_;
  std::thread thread_;  ///< Started last.
};

/// Open loop: Poisson arrivals at `rate`, each request sent when due
/// whatever the backlog; latency is later timed from the due time.
struct OpenPhase {
  uint64_t first = 0, count = 0;
  int64_t start_ns = 0, end_ns = 0;
  std::vector<double> window_cpu_s;  ///< Process CPU per kWindowNs window.
  std::vector<double> late_ms;
};

OpenPhase DriveOpen(const Stream& stream, Log* log, const Sink* sink,
                    const std::vector<std::string>& routes,
                    std::atomic<uint64_t>* next, double seconds, double rate,
                    bool traced, const SendFn& send) {
  OpenPhase ph;
  ph.count = uint64_t(std::llround(rate * seconds));
  ph.first = next->fetch_add(ph.count);
  std::vector<int64_t> due(ph.count);
  ph.start_ns = NowNs() + 1000000;
  double offset_s = 0.0;
  for (uint64_t j = 0; j < ph.count; ++j) {
    offset_s += stream.Gap(ph.first + j) / rate;
    due[j] = ph.start_ns + int64_t(offset_s * 1e9);
  }
  ph.late_ms.reserve(ph.count);
  CpuSampler cpu(ph.start_ns);
  uint64_t j = 0;
  while (j < ph.count) {
    int64_t now = NowNs();
    if (now < due[j]) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due[j] - now));
      continue;
    }
    std::vector<Submission> batch;
    while (j < ph.count && due[j] <= now && batch.size() < 64) {
      uint64_t i = ph.first + j;
      batch.push_back(MakeSubmission(stream, log, sink, routes, i, traced));
      log->due_ns[i] = due[j];
      ph.late_ms.push_back((now - due[j]) / 1e6);
      ++j;
    }
    const int64_t sent = NowNs();
    for (const Submission& s : batch) log->sent_ns[s.req.tag] = sent;
    send(std::move(batch));
  }
  ph.end_ns = std::max(NowNs(), due.empty() ? ph.start_ns : due.back());
  ph.window_cpu_s = cpu.Stop();
  return ph;
}

/// Closed loop: `callers` threads each keep `window` requests in flight.
struct ClosedPhase {
  int64_t start_ns = 0, end_ns = 0;
  uint64_t first = 0, end_index = 0;
  std::vector<double> window_cpu_s;  ///< Process CPU per kWindowNs window.
  bool log_full = false;  ///< Stopped early: the request log ran out.
};

ClosedPhase DriveClosed(const Stream& stream, Log* log, bool wire_sink,
                        const std::vector<std::string>& routes,
                        std::atomic<uint64_t>* next, uint64_t limit,
                        double seconds, size_t callers, size_t window,
                        bool traced, const SendFn& send) {
  ClosedPhase ph;
  ph.first = next->load();
  std::vector<std::unique_ptr<Caller>> state;
  std::vector<Sink> sinks(callers);
  for (size_t c = 0; c < callers; ++c) {
    state.push_back(std::make_unique<Caller>());
    sinks[c] = Sink{log, state.back().get(), wire_sink};
  }
  std::atomic<bool> log_full{false};
  ph.start_ns = NowNs();
  CpuSampler cpu(ph.start_ns);
  const int64_t end = ph.start_ns + int64_t(seconds * 1e9);
  auto run = [&](size_t c) {
    Caller& me = *state[c];
    while (NowNs() < end) {
      me.WaitBelow(int64_t(window));
      int64_t free = int64_t(window) - me.inflight.load();
      if (free <= 0) continue;
      uint64_t i0 = next->fetch_add(uint64_t(free));
      if (i0 + uint64_t(free) > limit) {
        log_full = true;
        if (i0 >= limit) break;
        free = int64_t(limit - i0);  // Send the last slots, then stop.
      }
      std::vector<Submission> batch;
      for (int64_t n = 0; n < free; ++n) {
        batch.push_back(MakeSubmission(stream, log, &sinks[c], routes,
                                       i0 + n, traced));
      }
      me.inflight.fetch_add(free);
      const int64_t sent = NowNs();
      for (int64_t n = 0; n < free; ++n) {
        log->due_ns[i0 + n] = sent;
        log->sent_ns[i0 + n] = sent;
      }
      send(std::move(batch));
      if (log_full) break;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) threads.emplace_back(run, c);
  for (auto& t : threads) t.join();
  ph.window_cpu_s = cpu.Stop();
  ph.end_ns = std::max(end, NowNs());
  ph.log_full = log_full.load();
  // The callers' windows must outlive their completions.
  const int64_t deadline = NowNs() + int64_t(kDrainTimeoutS * 1e9);
  for (auto& s : state) {
    while (s->inflight.load() > 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ph.end_index = std::min(next->load(), limit);
  return ph;
}

/// Waits until every issued request has completed (or the drain times out).
void Drain(const Log& log, uint64_t issued) {
  const int64_t deadline = NowNs() + int64_t(kDrainTimeoutS * 1e9);
  while (log.completed.load(std::memory_order_acquire) < issued &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Waits for one logged request; false on timeout.
bool AwaitOne(const Log& log, uint64_t i, double timeout_s) {
  const int64_t deadline = NowNs() + int64_t(timeout_s * 1e9);
  while (log.Completions(i) == 0) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

// ---------------------------------------------------------------- shapes ---

/// Multiply-adds and weight floats of one Predict row, from the layer shapes
/// of SelNet-ct's inference path: encoder, tau net, p net hidden layers and
/// the folded p tail (core/control_heads.cc).
struct Shape {
  double macs = 0, weights = 0;
};

Shape InferenceShape(const selnet::core::SelNetConfig& c) {
  Shape s;
  auto layer = [&](double in, double out) {
    s.macs += in * out;
    s.weights += in * out + out;
  };
  const double d = double(c.input_dim), h = d + double(c.latent_dim);
  const double l = double(c.num_control);
  layer(d, double(c.ae_hidden));
  layer(double(c.ae_hidden), double(c.latent_dim));
  layer(h, double(c.tau_hidden));
  layer(double(c.tau_hidden), double(c.tau_hidden));
  layer(double(c.tau_hidden), l + 1);
  layer(h, double(c.p_hidden));
  layer(double(c.p_hidden), double(c.p_hidden));
  layer(double(c.p_hidden), double(c.p_hidden));
  layer(double(c.p_hidden), l + 2);
  return s;
}

// ------------------------------------------------------------------ run ---

struct SetupSample {
  double setup_s = 0, load_ms = 0, cold_ms = 0;
};

class Run {
 public:
  Run(const RunInputs& in, const Def& def)
      : in_(in), opt_(*in.opt), def_(def) {}

  RunResult Go();

 private:
  bool SetUp(SetupSample* sample, std::string* err);
  void MainWindow();
  void Writer(std::atomic<bool>* stop);
  void Probes();
  void Checks();
  bool CacheCellAnswer(const std::vector<uint64_t>& all, uint64_t i,
                       size_t j, float got) const;
  void Report();

  uint64_t Issued() const {
    return std::min(next_.load(), cap_ - kWriterSlots);
  }
  void Put(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    out_.metrics[name] = Metric{value, unit, samples};
  }
  /// Latencies (ms) of requests [a, b): from due time to answer; a request
  /// without an answer counts as waiting until the drain gave up.
  std::vector<double> Latencies(uint64_t a, uint64_t b) const {
    std::vector<double> v;
    for (uint64_t i = a; i < b; ++i) {
      int64_t done = log_->Completions(i) && log_->ok[i] ? log_->done_ns[i]
                                                         : drained_ns_;
      v.push_back((done - log_->due_ns[i]) / 1e6);
    }
    return v;
  }
  uint64_t AnsweredIn(uint64_t a, uint64_t b, int64_t t0, int64_t t1) const {
    uint64_t n = 0;
    for (uint64_t i = a; i < b; ++i) {
      if (log_->Completions(i) && log_->ok[i] && log_->done_ns[i] >= t0 &&
          log_->done_ns[i] <= t1) {
        ++n;
      }
    }
    return n;
  }

  const RunInputs& in_;
  const Options& opt_;
  const Def& def_;
  RunResult out_;

  std::string bytes_;
  std::unique_ptr<selnet::core::SelNetCt> ref_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Log> log_;
  uint64_t cap_ = 0;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> writer_next_{0};
  std::vector<std::vector<uint32_t>> exact_;  ///< Per audit request.

  std::vector<SetupSample> setups_;
  OpenPhase open_;
  ClosedPhase closed_;
  int64_t drained_ns_ = 0;
  std::vector<double> writer_publish_ms_, writer_cold_ms_;

  // Main-window deltas.
  serve::StatsSnapshot pre_, post_;
  selnet::tensor::PackStatsSnapshot pack_pre_, pack_post_;
  uint64_t evict_pre_ = 0, evict_post_ = 0, stalls_pre_ = 0, stalls_post_ = 0;
  std::vector<uint64_t> shard_pre_, shard_post_;
  double cpu_s_ = 0;
  uint64_t allocs_ = 0;
  uint64_t window_main_ = 0, window_writer_ = 0;  ///< Requests issued.
};

bool Run::SetUp(SetupSample* sample, std::string* err) {
  auto t0 = Clock::now();
  if (!ReadFile(in_.model_path, &bytes_)) {
    *err = "cannot read " + in_.model_path;
    return false;
  }
  if (bytes_.size() != in_.manifest->model_bytes ||
      Fnv1a64(bytes_) != in_.manifest->fnv1a64) {
    *err = "artifact checksum mismatch for " + in_.model_path +
           " (regenerate it with make_artifact)";
    return false;
  }
  auto t_load = Clock::now();
  auto loaded = selnet::core::LoadModelBytes(bytes_, in_.model_path);
  if (!loaded.ok()) {
    *err = loaded.status().ToString();
    return false;
  }
  sample->load_ms = MsBetween(t_load, Clock::now());
  ref_ = std::move(loaded.ValueOrDie());

  stack_.reset();
  stack_ = BuildStack(def_, in_.manifest->corpus.dim);
  for (const std::string& route : stack_->routes) {
    auto v = stack_->Publish(route, bytes_);
    if (!v.ok()) {
      *err = "publish " + route + ": " + v.status().ToString();
      return false;
    }
  }
  if (def_.wire) {
    selnet::util::Status st = stack_->AttachFrontend(2);
    if (!st.ok()) {
      *err = "frontend: " + st.ToString();
      return false;
    }
  }
  // First answer through the workload's own path.
  auto tc = Clock::now();
  auto answered = std::make_shared<std::promise<bool>>();
  Submission s;
  const float* x = stream_->X(0);
  float t[kMaxK];
  stream_->Thresholds(0, t);
  s.req.model = stack_->routes[0];
  s.req.x.assign(x, x + stream_->dim());
  s.req.thresholds.assign(t, t + stream_->k());
  s.done = [answered](serve::EstimateResponse&& r, std::exception_ptr e) {
    answered->set_value(!e && !r.estimates.empty());
  };
  std::future<bool> f = answered->get_future();
  std::vector<Submission> one;
  one.push_back(std::move(s));
  if (def_.wire) {
    stack_->SendWire(std::move(one));
  } else {
    stack_->SendInproc(std::move(one));
  }
  if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready ||
      !f.get()) {
    *err = "set-up: first request was not answered";
    return false;
  }
  auto t1 = Clock::now();
  sample->cold_ms = MsBetween(tc, t1);
  sample->setup_s = std::chrono::duration<double>(t1 - t0).count();
  return true;
}

void Run::Writer(std::atomic<bool>* stop) {
  Sink sink{log_.get(), nullptr, false};
  const uint64_t base = cap_ - kWriterSlots;
  auto next_at = Clock::now();
  const std::string route =
      def_.publish_served ? stack_->routes[0] : kSpareRoute;
  while (!stop->load()) {
    next_at += kPublishPeriod;
    std::this_thread::sleep_until(next_at);
    if (stop->load()) break;
    auto tp = Clock::now();
    auto v = stack_->Publish(route, bytes_);
    writer_publish_ms_.push_back(MsBetween(tp, Clock::now()));
    if (!v.ok()) {
      out_.violations.push_back("republish failed: " + v.status().ToString());
      break;
    }
    if (!def_.publish_served) continue;
    uint64_t slot = writer_next_.fetch_add(1);
    if (slot >= kWriterSlots) break;
    uint64_t i = base + slot;
    std::vector<Submission> one;
    one.push_back(MakeSubmission(*stream_, log_.get(), &sink, stack_->routes,
                                 i, false));
    const int64_t sent = NowNs();
    log_->due_ns[i] = sent;
    log_->sent_ns[i] = sent;
    stack_->SendInproc(std::move(one));
    if (AwaitOne(*log_, i, kDrainTimeoutS)) {
      writer_cold_ms_.push_back((log_->done_ns[i] - sent) / 1e6);
    }
  }
}

void Run::MainWindow() {
  const bool traced = opt_.trace;
  const double seconds = double(opt_.seconds);
  Sink open_sink{log_.get(), nullptr, def_.wire};
  SendFn send = def_.wire ? SendFn([this](std::vector<Submission> b) {
                              stack_->SendWire(std::move(b));
                            })
                          : SendFn([this](std::vector<Submission> b) {
                              stack_->SendInproc(std::move(b), log_.get());
                            });

  pre_ = stack_->Snapshot();
  pack_pre_ = selnet::tensor::PackStats();
  evict_pre_ = stack_->Evictions();
  stalls_pre_ = stack_->Stalls();
  shard_pre_ = stack_->ShardRequests();
  SetAllocCounting(traced);
  const uint64_t allocs0 = AllocCount();
  const double cpu0 = CpuSeconds();

  std::atomic<bool> stop_writer{false};
  std::thread writer([this, &stop_writer] { Writer(&stop_writer); });
  if (def_.open_share > 0) {
    open_ = DriveOpen(*stream_, log_.get(), &open_sink, stack_->routes, &next_,
                      seconds * def_.open_share, def_.open_rate, traced, send);
  }
  if (def_.open_share < 1) {
    closed_ = DriveClosed(*stream_, log_.get(), def_.wire, stack_->routes,
                          &next_, cap_ - kWriterSlots,
                          seconds * (1 - def_.open_share), def_.callers,
                          def_.window, traced, send);
  }
  stop_writer.store(true);
  writer.join();
  if (closed_.log_full) out_.violations.push_back("request log full");
  window_main_ = Issued();
  window_writer_ = std::min(writer_next_.load(), kWriterSlots);
  Drain(*log_, window_main_ + window_writer_);
  drained_ns_ = NowNs();

  cpu_s_ = CpuSeconds() - cpu0;
  allocs_ = AllocCount() - allocs0;
  post_ = stack_->Snapshot();
  pack_post_ = selnet::tensor::PackStats();
  evict_post_ = stack_->Evictions();
  stalls_post_ = stack_->Stalls();
  shard_post_ = stack_->ShardRequests();
}

void Run::Probes() {
  const size_t dim = stream_->dim();
  const size_t k = stream_->k();
  Sink sink_in{log_.get(), nullptr, false};
  Sink sink_wire{log_.get(), nullptr, true};

  // Wire vs in-process latency for the same request stream, in bursts of
  // kBurst requests handed over in one call (SubmitMany / CallMany).
  if (!stack_->fe) {
    selnet::util::Status st = stack_->AttachFrontend(1);
    if (!st.ok()) out_.violations.push_back("probe frontend: " + st.ToString());
  }
  const uint64_t stalls0 = stack_->Stalls();
  std::vector<double> inproc_ms, wire_ms;
  double submit_ns = 0;
  uint64_t submit_allocs = 0;
  const size_t kBurst = 16, kRounds = 40;
  for (int pass = 0; pass < 2 && stack_->fe; ++pass) {
    for (size_t round = 0; round < kRounds; ++round) {
      const uint64_t i0 = next_.fetch_add(kBurst);
      if (i0 + kBurst > cap_ - kWriterSlots) break;
      std::vector<Submission> batch;
      for (uint64_t i = i0; i < i0 + kBurst; ++i) {
        batch.push_back(MakeSubmission(*stream_, log_.get(),
                                       pass ? &sink_wire : &sink_in,
                                       stack_->routes, i, false));
      }
      const uint64_t a0 = AllocCount();
      const int64_t sent = NowNs();
      for (uint64_t i = i0; i < i0 + kBurst; ++i) {
        log_->due_ns[i] = sent;
        log_->sent_ns[i] = sent;
      }
      if (pass) {
        stack_->channels[0]->CallMany(std::move(batch));
      } else if (stack_->server) {
        stack_->server->SubmitMany(std::move(batch));
      } else {
        stack_->SendInproc(std::move(batch));
      }
      if (!pass) submit_ns += double(NowNs() - sent);
      bool answered = true;
      for (uint64_t i = i0; i < i0 + kBurst; ++i) {
        answered = answered && AwaitOne(*log_, i, kDrainTimeoutS);
      }
      if (!answered) break;
      if (!pass) submit_allocs += AllocCount() - a0;
      for (uint64_t i = i0; i < i0 + kBurst; ++i) {
        (pass ? wire_ms : inproc_ms).push_back((log_->done_ns[i] - sent) / 1e6);
      }
    }
  }
  const double rtt = Median(wire_ms), inproc = Median(inproc_ms);
  Put("client_channel.rtt_ms_p50", rtt, "ms", wire_ms.size());
  Put("frontend.overhead_us_per_req", (rtt - inproc) * 1000, "us",
      wire_ms.size());
  Put("server.submit_us_per_req",
      inproc_ms.empty() ? 0 : submit_ns / 1000 / inproc_ms.size(), "us",
      inproc_ms.size());
  Put("server.allocs_per_submit",
      inproc_ms.empty() ? 0 : double(submit_allocs) / inproc_ms.size(),
      "count", inproc_ms.size());
  if (!def_.wire) {
    Put("frontend.backpressure_stalls", double(stack_->Stalls() - stalls0),
        "count", wire_ms.size());
  }

  // Model layer on the reference copy of the served model.
  const double batches = double(post_.batches - pre_.batches);
  const double rows_per_batch =
      batches > 0 ? double(post_.batched_requests - pre_.batched_requests) /
                        batches
                  : 0.0;
  const size_t b = std::clamp<size_t>(size_t(std::lround(rows_per_batch)), 1,
                                      64);
  Matrix x1(1, dim), t1(1, 1), xb(b, dim), tb(b, 1);
  std::copy(stream_->X(1), stream_->X(1) + dim, x1.row(0));
  t1(0, 0) = ref_->config().tmax * 0.3f;
  for (size_t r = 0; r < b; ++r) {
    std::copy(stream_->X(r + 2), stream_->X(r + 2) + dim, xb.row(r));
    float t[kMaxK];
    stream_->Thresholds(r + 2, t);
    tb(r, 0) = t[0];
  }
  auto timed = [](size_t reps, size_t calls, const std::function<void()>& fn,
                  double* allocs_per_call) {
    std::vector<double> per_call;
    uint64_t a0 = AllocCount();
    for (size_t r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      for (size_t c = 0; c < calls; ++c) fn();
      per_call.push_back(MsBetween(t0, Clock::now()) * 1000 / calls);
    }
    if (allocs_per_call) {
      *allocs_per_call = double(AllocCount() - a0) / double(reps * calls);
    }
    return Median(per_call);
  };
  double allocs_b1 = 0, allocs_sweep = 0;
  Put("core.predict_us_b1",
      timed(5, 200, [&] { ref_->Predict(x1, t1); }, &allocs_b1), "us", 1000);
  Put("core.allocs_per_predict_b1", allocs_b1, "count", 1000);
  selnet::util::ThreadPool worker(1);
  double per_row = worker
                       .SubmitWithResult([&] {
                         return timed(5, 40, [&] { ref_->Predict(xb, tb); },
                                      nullptr);
                       })
                       .get() /
                   double(b);
  Put("core.predict_us_per_row", per_row, "us", 200 * b);
  std::vector<float> ts(kMaxK);
  for (size_t j = 0; j < kMaxK; ++j) {
    ts[j] = ref_->config().tmax * (kTLo + (kTHi - kTLo) * j / kMaxK);
  }
  Put("core.sweep_us_k16",
      timed(5, 200,
            [&] { ref_->SweepEstimate(stream_->X(3), ts.data(), kMaxK); },
            &allocs_sweep),
      "us", 1000);
  Put("core.allocs_per_sweep_k16", allocs_sweep, "count", 1000);

  // Wire codec on this run's own requests.
  const size_t kCodec = 2000;
  std::vector<serve::EstimateRequest> reqs(kCodec);
  std::vector<serve::EstimateResponse> resps(kCodec);
  for (size_t n = 0; n < kCodec; ++n) {
    float t[kMaxK];
    stream_->Thresholds(n, t);
    reqs[n].x.assign(stream_->X(n), stream_->X(n) + dim);
    reqs[n].thresholds.assign(t, t + k);
    reqs[n].tag = n;
    resps[n].estimates.assign(t, t + k);
    resps[n].tag = n;
    resps[n].version = 1;
  }
  std::vector<std::string> req_frames(kCodec), resp_frames(kCodec);
  double encode_allocs = 0;
  double enc = timed(
      5, 1,
      [&] {
        for (size_t n = 0; n < kCodec; ++n) {
          req_frames[n].clear();
          resp_frames[n].clear();
          serve::AppendRequestFrame(&req_frames[n], reqs[n]);
          serve::AppendResponseFrame(&resp_frames[n], resps[n]);
        }
      },
      &encode_allocs);
  bool decode_ok = true;
  double dec = timed(
      5, 1,
      [&] {
        const auto now = Clock::now();
        for (size_t n = 0; n < kCodec; ++n) {
          serve::EstimateRequest rq;
          serve::EstimateResponse rs;
          const std::string& a = req_frames[n];
          const std::string& c = resp_frames[n];
          decode_ok &= serve::DecodeRequestPayload(
                           a.data() + serve::kFrameHeaderBytes,
                           a.size() - serve::kFrameHeaderBytes, now, &rq)
                           .ok();
          decode_ok &= serve::DecodeResponsePayload(
                           c.data() + serve::kFrameHeaderBytes,
                           c.size() - serve::kFrameHeaderBytes, &rs)
                           .ok();
          decode_ok &= rq.thresholds == reqs[n].thresholds &&
                       rs.estimates == resps[n].estimates;
        }
      },
      nullptr);
  if (!decode_ok) out_.violations.push_back("wire codec round trip differs");
  Put("wire.encode_us_per_req", enc / kCodec, "us", 5 * kCodec);
  Put("wire.decode_us_per_req", dec / kCodec, "us", 5 * kCodec);
  Put("wire.allocs_per_encode", encode_allocs / kCodec, "count", 5 * kCodec);

  // Tracing overhead: closed-loop bursts after an unmeasured warm-up (the
  // caches keep warming while no publish runs), pairs in alternating order.
  std::vector<double> thr[2];
  SendFn send = def_.wire ? SendFn([this](std::vector<Submission> b) {
                              stack_->SendWire(std::move(b));
                            })
                          : SendFn([this](std::vector<Submission> b) {
                              stack_->SendInproc(std::move(b), log_.get());
                            });
  DriveClosed(*stream_, log_.get(), def_.wire, stack_->routes, &next_,
              cap_ - kWriterSlots, 0.3, def_.callers, def_.window, false,
              send);
  for (int rep = 0; rep < 3; ++rep) {
    for (int n = 0; n < 2; ++n) {
      const int traced = (rep + n) % 2;
      SetAllocCounting(traced);
      uint64_t first = next_.load();
      ClosedPhase ph = DriveClosed(*stream_, log_.get(), def_.wire,
                                   stack_->routes, &next_, cap_ - kWriterSlots,
                                   0.3, def_.callers, def_.window, traced,
                                   send);
      if (ph.log_full) out_.violations.push_back("request log full");
      uint64_t done = AnsweredIn(first, ph.end_index, ph.start_ns, ph.end_ns);
      thr[traced].push_back(done / ((ph.end_ns - ph.start_ns) / 1e9));
    }
  }
  SetAllocCounting(false);
  Put("trace.overhead_ratio", Median(thr[1]) / Median(thr[0]), "ratio", 6);
}

void Run::Checks() {
  Log& log = *log_;
  const uint64_t issued = Issued();
  const uint64_t writer_issued = std::min(writer_next_.load(), kWriterSlots);
  Drain(log, issued + writer_issued);
  std::vector<uint64_t> all;
  for (uint64_t i = 0; i < issued; ++i) all.push_back(i);
  for (uint64_t s = 0; s < writer_issued; ++s) {
    all.push_back(cap_ - kWriterSlots + s);
  }

  // Exactly once.
  uint64_t missing = 0, first_missing = 0;
  for (uint64_t i : all) {
    if (log.Completions(i) == 0 && missing++ == 0) first_missing = i;
  }
  if (missing) {
    out_.violations.push_back(
        std::to_string(missing) + " requests never answered (first: #" +
        std::to_string(first_missing) + " of " + std::to_string(issued) +
        " issued; main window " + std::to_string(window_main_) + ")");
  }
  if (log.duplicates.load()) {
    out_.violations.push_back(std::to_string(log.duplicates.load()) +
                              " requests answered more than once");
  }
  if (log.nonmonotone.load()) {
    out_.violations.push_back(std::to_string(log.nonmonotone.load()) +
                              " sweeps not monotone in threshold");
  }

  // Differential: served bits == single-threaded Predict on the same model.
  // Every published version carries the same artifact bytes, so one
  // reference model covers all of them.
  const size_t k = stream_->k(), dim = stream_->dim();
  const size_t stride = std::max<size_t>(1, all.size() / kDiffChecks);
  uint64_t checked = 0, mismatched = 0, cache_cell = 0;
  std::set<uint64_t> versions;
  for (size_t n = 0; n < all.size(); n += stride) {
    const uint64_t i = all[n];
    if (!log.Completions(i) || !log.ok[i]) continue;
    Matrix x(k, dim), t(k, 1);
    float ts[kMaxK];
    stream_->Thresholds(i, ts);
    for (size_t j = 0; j < k; ++j) {
      std::copy(stream_->X(i), stream_->X(i) + dim, x.row(j));
      t(j, 0) = ts[j];
    }
    Matrix want = ref_->Predict(x, t);
    ++checked;
    versions.insert(log.version[i]);
    bool via_cell = false;
    for (size_t j = 0; j < k; ++j) {
      float got = log.est[i * k + j], exp = want(j, 0);
      if (std::memcmp(&got, &exp, sizeof(float)) == 0) continue;
      if (CacheCellAnswer(all, i, j, got)) {
        via_cell = true;
        continue;
      }
      ++mismatched;
      log.ok[i] = 0;
      break;
    }
    cache_cell += via_cell;
  }
  if (mismatched) {
    out_.violations.push_back(std::to_string(mismatched) + " of " +
                              std::to_string(checked) +
                              " sampled answers differ from Predict");
  }
  out_.meta += " diff_checked=" + std::to_string(checked) +
               " diff_versions=" + std::to_string(versions.size()) +
               " diff_cache_cell=" + std::to_string(cache_cell);

  out_.attempted = all.size();
  for (uint64_t i : all) out_.failed += !(log.Completions(i) && log.ok[i]);
  if (log.errors.load()) {
    out_.meta += " errors=" + std::to_string(log.errors.load()) +
                 " first_error=\"" + log.first_error + "\"";
  }
}

/// True when `got`, the answer to threshold j of request i, is bit-identical
/// to Predict at a threshold of another request on the same query vector,
/// sent before i was answered, whose threshold lies in the same scalar-cache
/// cell. The estimate cache treats inputs within one quantum as
/// interchangeable (CacheConfig), so such an answer is a documented cache hit
/// on a neighbouring threshold, not a wrong one.
bool Run::CacheCellAnswer(const std::vector<uint64_t>& all, uint64_t i,
                          size_t j, float got) const {
  const double quantum = serve::ServerConfig{}.cache.threshold_quantum;
  const size_t k = stream_->k(), dim = stream_->dim();
  const float* x = stream_->X(i);
  float ti[kMaxK], tn[kMaxK];
  stream_->Thresholds(i, ti);
  const int64_t cell = std::llround(double(ti[j]) / quantum);
  Matrix x1(1, dim), t1(1, 1);
  std::copy(x, x + dim, x1.row(0));
  for (uint64_t n : all) {
    if (n == i || stream_->X(n) != x || log_->sent_ns[n] > log_->done_ns[i]) {
      continue;
    }
    stream_->Thresholds(n, tn);
    for (size_t m = 0; m < k; ++m) {
      if (std::llround(double(tn[m]) / quantum) != cell) continue;
      t1(0, 0) = tn[m];
      const float want = ref_->Predict(x1, t1)(0, 0);
      if (std::memcmp(&got, &want, sizeof(float)) == 0) return true;
    }
  }
  return false;
}

void Run::Report() {
  Log& log = *log_;
  // Requests of the measured window: open phase, closed phase, writer.
  uint64_t ok = 0;
  for (uint64_t i = 0; i < window_main_; ++i) {
    ok += log.Completions(i) && log.ok[i];
  }
  for (uint64_t s = 0; s < window_writer_; ++s) {
    uint64_t i = cap_ - kWriterSlots + s;
    ok += log.Completions(i) && log.ok[i];
  }
  const uint64_t window_issued = window_main_ + window_writer_;

  // Throughput and p50 are medians over kWindowNs windows of the phase
  // that defines them, so a few slow windows (a stalled row, a busy host)
  // do not move them; p99 is over the whole phase.
  const bool closed_main = def_.open_share < 1;
  const uint64_t a = closed_main ? closed_.first : open_.first;
  const uint64_t b = closed_main ? closed_.end_index : open_.first + open_.count;
  const int64_t t0 = closed_main ? closed_.start_ns : open_.start_ns;
  const int64_t t1 = closed_main ? closed_.end_ns : open_.end_ns;
  const size_t windows = std::max<int64_t>(1, (t1 - t0) / kWindowNs);
  std::vector<double> done_in(windows, 0);
  uint64_t main_ok = 0;
  for (uint64_t i = a; i < b; ++i) {
    if (!log.Completions(i) || !log.ok[i]) continue;
    ++main_ok;
    int64_t w = (log.done_ns[i] - t0) / kWindowNs;
    if (w >= 0 && size_t(w) < windows) done_in[w] += 1;
  }
  const std::vector<double>& window_cpu =
      closed_main ? closed_.window_cpu_s : open_.window_cpu_s;
  std::vector<double> rates, cpu_per_req;
  for (size_t w = 0; w < windows; ++w) {
    rates.push_back(done_in[w] * 1e9 / kWindowNs);
    if (w < window_cpu.size() && done_in[w] > 0) {
      cpu_per_req.push_back(window_cpu[w] * 1e6 / done_in[w]);
    }
  }
  Put("throughput_per_s", Median(rates), "1/s", main_ok);
  Put("cpu_us_per_req", Median(cpu_per_req), "us", main_ok);

  // Latency phase: the fixed-rate open loop when there is one.
  const uint64_t la = def_.open_share > 0 ? open_.first : closed_.first;
  const uint64_t lb =
      def_.open_share > 0 ? open_.first + open_.count : closed_.end_index;
  const int64_t l0 = def_.open_share > 0 ? open_.start_ns : closed_.start_ns;
  const int64_t l1 = def_.open_share > 0 ? open_.end_ns : closed_.end_ns;
  const size_t lwindows = std::max<int64_t>(1, (l1 - l0) / kWindowNs);
  std::vector<std::vector<double>> by_window(lwindows);
  std::vector<double> lat = Latencies(la, lb);
  for (uint64_t i = la; i < lb; ++i) {
    int64_t w = (log.due_ns[i] - l0) / kWindowNs;
    if (w >= 0 && size_t(w) < lwindows) by_window[w].push_back(lat[i - la]);
  }
  std::vector<double> p50s;
  for (auto& v : by_window) {
    if (!v.empty()) p50s.push_back(Quantile(&v, 0.5));
  }
  Put("p50_ms", Median(p50s), "ms", lat.size());
  Put("p99_ms", Quantile(&lat, 0.99), "ms", lat.size());
  out_.meta += " lat_ms_p10/25/50/75/90=";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    out_.meta += (q == 0.1 ? "" : "/") + std::to_string(Quantile(&lat, q));
  }
  out_.meta += " windows=" + std::to_string(windows) + " window_rate_min=" +
               std::to_string(*std::min_element(rates.begin(), rates.end())) +
               " window_rate_max=" +
               std::to_string(*std::max_element(rates.begin(), rates.end()));
  Put("ok_frac", window_issued ? double(ok) / window_issued : 0, "ratio",
      window_issued);

  // Served accuracy on the audit requests.
  double ape = 0;
  uint64_t ape_n = 0, audits = 0;
  const size_t k = stream_->k();
  for (uint64_t i = 0; i < stream_->audit_limit() && i < Issued();
       i += def_.audit_every, ++audits) {
    if (!log.Completions(i) || !log.ok[i]) continue;
    for (size_t j = 0; j < k; ++j) {
      double y = exact_[audits][j];
      ape += std::fabs(double(log.est[i * k + j]) - y) / std::max(y, 1.0);
      ++ape_n;
    }
  }
  Put("served_mape", ape_n ? ape / ape_n : 0, "ratio", ape_n);

  std::vector<double> setup_s, cold_ms, load_ms;
  for (const SetupSample& s : setups_) {
    setup_s.push_back(s.setup_s);
    load_ms.push_back(s.load_ms);
    cold_ms.push_back(s.cold_ms);
  }
  // Publishes beside the window's traffic; first answers after them when
  // the writer republishes the served route, else after set-up.
  const std::vector<double>& publish_ms = writer_publish_ms_;
  if (!writer_cold_ms_.empty()) cold_ms = writer_cold_ms_;
  Put("setup_s", Median(setup_s), "s", setup_s.size());
  Put("publish_ms", Median(publish_ms), "ms", publish_ms.size());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // The request log grows with the number of requests; leave it out.
  Put("peak_rss_mb",
      (ru.ru_maxrss * 1024.0 - double(log.ResidentBytes())) / (1 << 20), "MB",
      1);

  // Per-layer numbers of the measured window.
  const double answered = double(ok);
  const double kreq = answered / 1000;
  const double batches = double(post_.batches - pre_.batches);
  const double rows_per_batch =
      batches > 0 ? double(post_.batched_requests - pre_.batched_requests) /
                        batches
                  : 0.0;
  Put("tensor.pack_builds_per_kreq",
      kreq > 0 ? (pack_post_.builds - pack_pre_.builds) / kreq : 0, "count",
      ok);
  Put("tensor.pack_hits_per_kreq",
      kreq > 0 ? (pack_post_.hits - pack_pre_.hits) / kreq : 0, "count", ok);
  const Shape shape = InferenceShape(ref_->config());
  Put("tensor.flops_per_row", 2 * shape.macs, "flop", 1);
  Put("tensor.bytes_per_row",
      4 * (shape.weights / std::max(rows_per_batch, 1.0) +
           double(stream_->dim() + 2)),
      "B", 1);
  Put("batch_scheduler.rows_per_batch", rows_per_batch, "rows",
      uint64_t(batches));
  const auto& queue_hist =
      post_.stage_hists.size() > size_t(serve::Stage::kQueue)
          ? post_.stage_hists[size_t(serve::Stage::kQueue)]
          : selnet::util::HistogramSnapshot{};
  Put("batch_scheduler.queue_ms_p50",
      queue_hist.empty() ? 0 : queue_hist.ValueAtQuantile(0.5), "ms",
      queue_hist.count);
  Put("batch_scheduler.expired_rows",
      double(post_.deadline_rows_dropped - pre_.deadline_rows_dropped),
      "count", uint64_t(batches));
  const double hits = double(post_.cache_hits - pre_.cache_hits);
  const double misses = double(post_.cache_misses - pre_.cache_misses);
  Put("estimate_cache.hit_share",
      hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
      uint64_t(hits + misses));
  const double chits = double(post_.curve_hits - pre_.curve_hits);
  const double cmiss = double(post_.curve_misses - pre_.curve_misses);
  Put("estimate_cache.curve_hit_share",
      chits + cmiss > 0 ? chits / (chits + cmiss) : 0, "ratio",
      uint64_t(chits + cmiss));
  Put("estimate_cache.evictions", double(evict_post_ - evict_pre_), "count",
      1);
  Put("model_registry.publish_ms", Median(publish_ms), "ms",
      publish_ms.size());
  Put("model_registry.cold_answer_ms", Median(cold_ms), "ms", cold_ms.size());
  Put("core.load_model_ms", Median(load_ms), "ms", load_ms.size());
  uint64_t shard_total = 0, shard_max = 0;
  for (size_t s = 0; s < shard_post_.size(); ++s) {
    uint64_t n = shard_post_[s] - shard_pre_[s];
    shard_total += n;
    shard_max = std::max(shard_max, n);
  }
  Put("shard_router.max_shard_share",
      shard_total ? double(shard_max) / shard_total : 0, "ratio",
      shard_total);
  if (def_.wire) {
    Put("frontend.backpressure_stalls", double(stalls_post_ - stalls_pre_),
        "count", window_issued);
  }
  Put("process.allocs_per_req", answered > 0 ? allocs_ / answered : 0,
      "count", ok);
  Put("process.cpu_ms_per_kreq", kreq > 0 ? cpu_s_ * 1000 / kreq : 0, "ms",
      ok);
  std::vector<double> late = open_.late_ms;
  Put("gen.late_p99_ms", Quantile(&late, 0.99), "ms", late.size());
  double span = 0, child = 0;
  uint64_t traced = 0;
  for (uint64_t i = 0; i < window_main_; i += kTraceEvery) {
    if (!log.traces[i / kTraceEvery] || !log.Completions(i) || !log.ok[i]) {
      continue;
    }
    span += log.span_ms[i / kTraceEvery];
    child += log.child_ms[i / kTraceEvery];
    ++traced;
  }
  const double unaccounted = span > 0 ? (span - child) / span : 0;
  Put("trace.unaccounted_share", unaccounted, "ratio", traced);
  if (opt_.trace && unaccounted > kUnaccountedTolerance) {
    out_.violations.push_back(
        "child spans leave " + std::to_string(unaccounted) +
        " of the request span unaccounted (tolerance " +
        std::to_string(kUnaccountedTolerance) + ")");
  }

  std::vector<double> late_all = open_.late_ms;
  // The open loop runs on one thread, the closed loop on `callers`; the
  // writer adds one.
  out_.meta += " gen_threads=" +
               std::to_string((def_.open_share < 1 ? def_.callers : 1) + 1) +
               " connections=" + std::to_string(def_.wire ? 2 : 0) +
               " gen_late_p50_ms=" + std::to_string(Quantile(&late_all, 0.5)) +
               " gen_late_p99_ms=" + std::to_string(Quantile(&late_all, 0.99));
}

RunResult Run::Go() {
  const Manifest& m = *in_.manifest;
  // Query vectors: fresh draws from the corpus's own mixture, seeded.
  Matrix pool = selnet::data::DrawFromSameMixture(m.corpus, def_.pool,
                                                  Mix64(opt_.seed));
  // tmax comes from the model; read it from the manifest-checked artifact.
  std::string err;
  {
    std::string bytes;
    if (!ReadFile(in_.model_path, &bytes)) {
      out_.violations.push_back("cannot read " + in_.model_path);
      return out_;
    }
    auto probe = selnet::core::LoadModelBytes(bytes, in_.model_path);
    if (!probe.ok()) {
      out_.violations.push_back(probe.status().ToString());
      return out_;
    }
    stream_ = std::make_unique<Stream>(def_, opt_.seed, std::move(pool),
                                       probe.ValueOrDie()->config().tmax);
  }

  // Exact counts for every audit request, before anything is timed.
  std::vector<AuditQuery> audits;
  for (uint64_t i = 0; i < stream_->audit_limit(); i += def_.audit_every) {
    AuditQuery q;
    q.x = stream_->X(i);
    float t[kMaxK];
    stream_->Thresholds(i, t);
    q.thresholds.assign(t, t + stream_->k());
    audits.push_back(std::move(q));
  }
  exact_ = in_.oracle->Counts(audits, 4);

  // Request log, sized for the fastest plausible run.
  const double seconds = double(opt_.seconds);
  // Pages are touched only as requests use them, so the bound is generous:
  // 150k requests/s for closed-loop phases, the traced run's extra bursts.
  cap_ = uint64_t(def_.open_rate * seconds * def_.open_share) +
         uint64_t(150000 * seconds * (1 - def_.open_share)) +
         (opt_.trace ? 400000 : 0) + 20000 + kWriterSlots;
  log_ = std::make_unique<Log>(cap_, stream_->k());

  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep) std::this_thread::sleep_for(kSamplePause);
    SetupSample s;
    if (!SetUp(&s, &err)) {
      out_.violations.push_back("set-up: " + err);
      return out_;
    }
    setups_.push_back(s);
  }
  if (!def_.publish_served) {
    // The writer then republishes an existing route, as it would the served
    // one.
    auto v = stack_->Publish(kSpareRoute, bytes_);
    if (!v.ok()) {
      out_.violations.push_back("publish: " + v.status().ToString());
      return out_;
    }
  }

  MainWindow();
  if (opt_.trace) Probes();
  Checks();
  Report();
  stack_.reset();
  return out_;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Def& d : Defs()) v.push_back(d.name);
    return v;
  }();
  return names;
}

bool IsWorkload(const std::string& name) { return FindDef(name) != nullptr; }

RunResult RunWorkload(const RunInputs& in) {
  const Def* def = FindDef(in.opt->workload);
  if (!def) {
    RunResult r;
    r.violations.push_back("unknown workload " + in.opt->workload);
    return r;
  }
  Run run(in, *def);
  return run.Go();
}

}  // namespace servebench
