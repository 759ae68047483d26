// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload certify|sweep|net-launch --seed N --seconds S
//             --trace 0|1 --repo DIR --work DIR
//             [--inject tampered-cert|fd-timeout-5ms]
//
// Prints one JSON document on stdout: the raw end-to-end samples, the
// correctness tally, the envelope (host, nproc, build) and, with --trace 1,
// the per-layer metrics.  A traced run also writes trace.json (Chrome
// trace_event) and metrics.json (ssvsp.metrics.v1) into --work.  run.py turns
// the samples into the benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "obs/export.hpp"
#include "util/serde.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

RotatingPin::RotatingPin(double period) : tid_(gettid()) {
  if (sched_getaffinity(tid_, sizeof saved_, &saved_) != 0 ||
      CPU_COUNT(&saved_) < 2)
    return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  auto pinTo = [this](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid_, sizeof one, &one);
  };
  // The mover is started before the first pin, so it keeps the whole set;
  // holding the lock keeps it from switching before that pin is taken.
  const std::lock_guard<std::mutex> hold(mutex_);
  mover_ = std::thread([this, cpus, period, pinTo] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t next = 1;; ++next) {
      if (wake_.wait_for(lock, std::chrono::duration<double>(period),
                         [this] { return stop_; }))
        return;
      pinTo(cpus[next % cpus.size()]);
    }
  });
  pinTo(cpus[0]);
}

RotatingPin::~RotatingPin() {
  if (!mover_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  mover_.join();
  sched_setaffinity(tid_, sizeof saved_, &saved_);
}

namespace {

/// Peak resident set in MiB: this process's high-water mark, or that of
/// its largest reaped child (forked campaign workers and cluster nodes),
/// whichever is larger.  VmHWM rather than RUSAGE_SELF, which would count
/// the image of the launcher this process was exec'd from.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  double selfKb = 0;
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) selfKb = std::stod(line.substr(6));
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(selfKb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::string hostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "certify|sweep|net-launch --seed N --seconds S --trace 0|1 "
               "--repo DIR --work DIR [--inject FAULT]\n",
               why);
  return 2;
}

void writeResult(const RunContext& ctx, const Result& r, double rssMb) {
  std::ostringstream os;
  ssvsp::JsonWriter w(os);
  w.beginObject();
  w.kv("workload", ctx.workload);
  w.kv("seed", ctx.seed);
  w.kv("trace", ctx.trace);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("failures").beginArray();
  for (const std::string& f : r.failures) w.value(f);
  w.endArray();
  w.key("setup_s").beginArray();
  for (double s : r.setupS) w.value(s);
  w.endArray();
  w.kv("peak_rss_mb", rssMb);
  w.key("samples").beginObject();
  for (const auto& [name, values] : r.samples) {
    w.key(name).beginArray();
    for (double v : values) w.value(v);
    w.endArray();
  }
  w.endObject();
  w.key("per_layer").beginObject();
  for (const auto& [name, value] : r.layer) w.kv(name, value);
  w.endObject();
  w.key("facts").beginObject();
  for (const auto& [name, value] : r.facts) w.kv(name, value);
  w.endObject();
  w.key("envelope").beginObject();
  w.kv("host", hostName());
  w.kv("nproc", std::int64_t{ctx.threads});
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("compiler", "g++ " __VERSION__);
  w.endObject();
  w.endObject();
  std::cout << os.str() << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  ctx.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") ctx.workload = value;
    else if (arg == "--seed") ctx.seed = std::stoull(value);
    else if (arg == "--seconds") ctx.seconds = std::stod(value);
    else if (arg == "--trace") ctx.trace = value == "1";
    else if (arg == "--repo") ctx.repoRoot = value;
    else if (arg == "--work") ctx.workDir = value;
    else if (arg == "--inject") ctx.inject = value;
    else return usage(("unknown flag " + arg).c_str());
  }
  if (ctx.repoRoot.empty() || ctx.workDir.empty())
    return usage("--repo and --work are required");
  if (!ctx.inject.empty() && ctx.inject != "tampered-cert" &&
      ctx.inject != "fd-timeout-5ms")
    return usage(("unknown fault '" + ctx.inject + "'").c_str());
  std::filesystem::create_directories(ctx.workDir);

  void (*workload)(const RunContext&, Result&) = nullptr;
  if (ctx.workload == "certify") workload = runCertify;
  else if (ctx.workload == "sweep") workload = runSweep;
  else if (ctx.workload == "net-launch") workload = runNetLaunch;
  else return usage(("unknown workload '" + ctx.workload + "'").c_str());

  Result result;
  workload(ctx, result);
  const double rssMb = peakRssMb();
  if (ctx.trace) {
    // The workload's traced pass started tracing; the layer profile of
    // every layer group records into the same trace.
    ssvsp::obs::startTracing();
    ssvsp::obs::setCurrentThreadName("perfbench");
    profileCertifyLayers(ctx, result);
    profileSweepLayers(ctx, result);
    profileNetLayers(ctx, result);
    // Jobs ran in untraced/traced pairs (tracedPairs): the median of the
    // per-pair ratios.
    const auto& traced = result.samples["job_s_traced"];
    const auto& plain = result.samples["job_s"];
    std::vector<double> ratios;
    for (std::size_t i = 0; i < std::min(traced.size(), plain.size()); ++i)
      ratios.push_back(traced[i] / plain[i]);
    if (!ratios.empty())
      result.layer["obs.trace_overhead_ratio"] = median(ratios);
    const ssvsp::obs::TraceSnapshot trace = ssvsp::obs::stopTracing();
    std::string error;
    const bool wrote =
        ssvsp::obs::writeChromeTraceFile(ctx.workDir + "/trace.json", trace,
                                         &error) &&
        ssvsp::obs::writeMetricsJsonFile(ctx.workDir + "/metrics.json",
                                         ssvsp::obs::metrics().snapshot(),
                                         &error);
    result.check(wrote, "cannot write trace artifacts: " + error);
  }
  writeResult(ctx, result, rssMb);
  return 0;
}
