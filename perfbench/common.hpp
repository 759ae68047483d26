// Shared plumbing of the measuring binary: the run context, the result
// record every workload fills, wall-clock helpers and the layer probe that
// times one call into a library layer.
//
// probe() is the benchmark's tracing: it records a Chrome trace span (while
// tracing is on) and observes the call's duration in a histogram of the
// process-wide obs registry, so the traced run's artifacts are the library's
// own trace_event and ssvsp.metrics.v1 documents.  Spans come from these
// files only — the library is built without SSVSP_OBS, exactly as users
// build it.
#pragma once

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repoRoot;  ///< checkout root (certs/ lives here)
  std::string workDir;   ///< scratch space for stores and node reports
  std::string inject;    ///< deliberate fault for the self-test ("" = none)
  int threads = 1;       ///< nproc: the load ceiling of every workload
};

/// Everything one invocation reports.  End-to-end samples are raw; the
/// Python front end turns them into medians and tails.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<double> setupS;
  /// End-to-end samples by metric name (one entry per timed call).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer values by metric name (traced run only).
  std::map<std::string, double> layer;
  /// Facts recorded alongside the numbers (input sizes, load, seed use).
  std::map<std::string, std::string> facts;

  /// Counts one correctness check; a false `ok` is a failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double timeSeconds(Fn&& fn) {
  const double t0 = nowSeconds();
  fn();
  return nowSeconds() - t0;
}

/// Times one call into a layer: a span named `span` in the trace and a
/// nanosecond observation in histogram `span` of obs::metrics().
template <typename Fn>
double probe(const char* span, Fn&& fn) {
  const double secs = [&] {
    ssvsp::obs::ScopedSpan scoped(span);
    return timeSeconds(fn);
  }();
  ssvsp::obs::metrics().histogram(span).observe(
      static_cast<std::int64_t>(secs * 1e9));
  return secs;
}

/// Times one call into histogram `name` of obs::metrics() without a span —
/// for calls too fine-grained and too many to trace one by one.
template <typename Fn>
double observe(const char* name, Fn&& fn) {
  const double secs = timeSeconds(fn);
  ssvsp::obs::metrics().histogram(name).observe(
      static_cast<std::int64_t>(secs * 1e9));
  return secs;
}

double median(std::vector<double> values);

/// Moves the calling thread, for its lifetime, round-robin over every CPU
/// of the process's affinity set — one CPU per `period` seconds, switched by
/// a helper thread — then restores the set.  On a shared host each vCPU
/// slows by up to 2x on its own, for seconds at a time, while the kernel
/// keeps a single-threaded loop on one vCPU; rotating makes a
/// single-threaded measurement a mean over every vCPU instead of a draw of
/// one.  For single-threaded work only: threads and child processes started
/// under it inherit the pin of the moment.
class RotatingPin {
 public:
  explicit RotatingPin(double period = 0.025);
  ~RotatingPin();
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;

 private:
  pid_t tid_;
  cpu_set_t saved_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread mover_;
};

/// One set-up batch: repeats `setup` for at least 100 ms under a
/// RotatingPin and records the batch's seconds per set-up in `out.setupS`.
/// Batching keeps a set-up of microseconds measurable; the rotation makes
/// each sample a mean over every vCPU.  Returns the batch's wall seconds.
template <typename Fn>
double setupBatch(Result& out, Fn&& setup) {
  const RotatingPin pin;
  const double start = nowSeconds();
  int calls = 0;
  double spent = 0;
  do {
    setup();
    ++calls;
    spent = nowSeconds() - start;
  } while (spent < 0.1);
  out.setupS.push_back(spent / calls);
  return spent;
}

/// Set-up batches after a job of `jobSeconds`: at least two, and together
/// a tenth of the job's time, so that the samples are spread over the
/// whole run in proportion to it rather than taken at one moment.
template <typename Setup>
void setupAfterJob(double jobSeconds, Result& out, Setup&& setup) {
  double spent = 0;
  for (int batches = 0; batches < 2 || spent < 0.1 * jobSeconds; ++batches)
    spent += setupBatch(out, setup);
}

/// Runs `job` repeatedly until the budget of `seconds` would be exceeded
/// by one more call and its set-up batches (at least `minCalls` calls),
/// with set-up batches after every job (setupAfterJob).
template <typename Job, typename Setup>
void repeatFor(double seconds, int minCalls, Result& out, Job&& job,
               Setup&& setup) {
  const double start = nowSeconds();
  std::vector<double> durations;
  for (;;) {
    const double elapsed = nowSeconds() - start;
    if (static_cast<int>(durations.size()) >= minCalls &&
        elapsed + median(durations) * 1.1 > seconds)
      break;
    durations.push_back(timeSeconds(job));
    setupAfterJob(durations.back(), out, setup);
  }
}

/// The traced run's overhead measurement: starts tracing, then alternates
/// an untraced and a traced job (`job(false)`, `job(true)`) — at least two
/// pairs, more while they fit in `seconds` — so that host drift hits both
/// sides alike.  The job records its own samples.
template <typename Job>
void tracedPairs(double seconds, Job&& job) {
  ssvsp::obs::startTracing();
  const double start = nowSeconds();
  double pair = 0;
  for (int pairs = 0; pairs < 2 || nowSeconds() - start + pair < seconds;
       ++pairs)
    pair = timeSeconds([&] {
      job(false);
      job(true);
    });
}

/// Workload entry points (certify.cpp, sweep.cpp, net.cpp).  Each fills the
/// untraced end-to-end samples, or with ctx.trace its traced pass.
void runCertify(const RunContext& ctx, Result& out);
void runSweep(const RunContext& ctx, Result& out);
void runNetLaunch(const RunContext& ctx, Result& out);

/// The layer profile of the traced run, one per layer group.  Every traced
/// run emits every per-layer metric, whichever workload it belongs to.
void profileCertifyLayers(const RunContext& ctx, Result& out);
void profileSweepLayers(const RunContext& ctx, Result& out);
void profileNetLayers(const RunContext& ctx, Result& out);

}  // namespace perfbench
