// Workload `net-launch`: net::launchCluster of FloodSetWS at n=4 t=2 as
// forked UDP processes, with the default FD timeout, heartbeat period and
// linger.  Failure-free launches alternate with one-crash launches in which
// one node is SIGKILLed at round 1 having sent to nobody (the shape of
// scenarios/floodsetws_net_replay.txt).  The seed draws every launch's
// initial values and the crashed node.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "consensus/registry.hpp"
#include "net/clock.hpp"
#include "net/harness.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ssvsp;
using namespace ssvsp::net;
namespace fs = std::filesystem;

constexpr const char* kScenarioFile = "scenarios/floodsetws_net_replay.txt";

/// The workload's set-up: read and parse the replay scenario into the
/// LaunchSpec every launch starts from.  Returns false with `error` set
/// when the scenario cannot be replayed.
bool loadTemplate(const RunContext& ctx, LaunchSpec* out, std::string* error) {
  std::ifstream in(ctx.repoRoot + "/" + kScenarioFile);
  std::ostringstream text;
  text << in.rdbuf();
  const ScenarioParseResult parsed = parseScenario(text.str());
  if (!parsed.ok) {
    *error = kScenarioFile + std::string(": ") + parsed.error;
    return false;
  }
  return launchSpecFromScenario(parsed.scenario, out, error);
}

/// Draws one launch from the seeded stream: the scenario's cluster with
/// fresh initial values, and for a crash launch its crash moved to a drawn
/// node (still dying in round 1 having sent to nobody).
LaunchSpec drawLaunch(const LaunchSpec& base, Rng& rng, bool crash,
                      const RunContext& ctx) {
  LaunchSpec spec = base;
  for (Value& v : spec.values) v = static_cast<Value>(rng.uniformInt(0, 1));
  if (crash)
    spec.script.crashes.at(0).p =
        static_cast<ProcessId>(rng.uniformInt(0, spec.cfg.n - 1));
  else
    spec.script.crashes.clear();
  if (ctx.inject == "fd-timeout-5ms") spec.heartbeat.timeoutMs = 5;
  spec.reportDir = ctx.workDir + "/reports";
  return spec;
}

/// The workload's correctness checks on one launch: the harness verdict,
/// decisions within the analyzer's Lat(A, f), and every survivor
/// suspecting exactly the crashed set.
void checkLaunch(const LaunchSpec& spec, const LaunchResult& result,
                 Result& out) {
  const std::string kind = spec.script.crashes.empty() ? "failure-free"
                                                       : "one-crash";
  std::string why = "net-launch: " + kind + " launch not ok";
  if (!result.failures.empty()) why += ": " + result.failures.front();
  out.check(result.ok, why);
  out.check(result.latBound != kNoRound &&
                result.worstDecisionRound <= result.latBound,
            "net-launch: " + kind + " decided at round " +
                std::to_string(result.worstDecisionRound) + " > Lat(A,f) = " +
                std::to_string(result.latBound));
  ProcessSet crashed;
  for (const CrashEvent& c : spec.script.crashes) crashed.insert(c.p);
  bool exact = true;
  for (const NodeOutcome& node : result.nodes)
    if (!node.scriptedCrash)
      exact = exact && node.reportOk &&
              node.report.suspectedFinal == crashed.mask();
  out.check(exact, "net-launch: " + kind +
                       " survivors' suspected set differs from the crashed "
                       "set");
}

struct Launched {
  LaunchSpec spec;
  LaunchResult result;
  double ms = 0;
};

Launched launchOnce(const LaunchSpec& base, Rng& rng, bool crash,
                    const RunContext& ctx, Result& out, const char* span) {
  Launched l;
  l.spec = drawLaunch(base, rng, crash, ctx);
  fs::remove_all(l.spec.reportDir);
  auto call = [&] { l.result = launchCluster(l.spec); };
  l.ms = 1e3 * (span != nullptr ? probe(span, call) : timeSeconds(call));
  checkLaunch(l.spec, l.result, out);
  return l;
}

/// One job: a failure-free launch, then a one-crash launch.
void launchPair(const LaunchSpec& base, Rng& rng, const RunContext& ctx,
                Result& out, bool traced) {
  const Launched ff = launchOnce(base, rng, false, ctx, out,
                                 traced ? "net.launch_ff" : nullptr);
  const Launched crash = launchOnce(base, rng, true, ctx, out,
                                    traced ? "net.launch_crash" : nullptr);
  const char* suffix = traced ? "_traced" : "";
  out.samples[std::string("launch_ff_ms") + suffix].push_back(ff.ms);
  out.samples[std::string("launch_crash_ms") + suffix].push_back(crash.ms);
  out.samples[std::string("job_s") + suffix].push_back((ff.ms + crash.ms) /
                                                       1e3);
}

}  // namespace

void runNetLaunch(const RunContext& ctx, Result& out) {
  out.facts["seed"] = "draws each launch's initial values and crashed node";
  out.facts["input"] =
      "FloodSetWS n=4 t=2, default FD timeout/heartbeat/linger";

  LaunchSpec base;
  std::string error;
  bool loaded = false;
  auto setup = [&] {
    base = LaunchSpec{};
    loaded = loadTemplate(ctx, &base, &error);
  };
  setupBatch(out, setup);
  out.check(loaded && base.script.crashes.size() == 1,
            "net-launch: cannot replay " + std::string(kScenarioFile) + ": " +
                error);
  if (!loaded || base.script.crashes.size() != 1) return;
  fs::create_directories(ctx.workDir);
  out.facts["processes"] =
      std::to_string(base.cfg.n) + " node processes per launch";

  Rng rng(ctx.seed);
  if (ctx.trace) {
    tracedPairs(ctx.seconds / 2, [&](bool traced) {
      launchPair(base, rng, ctx, out, traced);
    });
    return;
  }
  repeatFor(
      ctx.seconds, 3, out, [&] { launchPair(base, rng, ctx, out, false); },
      setup);
}

void profileNetLayers(const RunContext& ctx, Result& out) {
  ssvsp::obs::MetricsRegistry& registry = ssvsp::obs::metrics();
  LaunchSpec base;
  std::string error;
  if (!loadTemplate(ctx, &base, &error)) {
    out.check(false, "profile: " + error);
    return;
  }
  const AlgorithmEntry& entry = *base.entry;
  const RoundConfig cfg = base.cfg;

  // -- analysis: the bound every launch computes after reaping its nodes.
  std::vector<double> latMs;
  for (int i = 0; i < 4; ++i)
    latMs.push_back(1e3 * probe("analysis.lat_bound", [&] {
                      analyzerLatBound(entry, cfg, i % 2);
                    }));
  const double latBoundMs = median(latMs);
  out.layer["analysis.lat_bound_ms"] = latBoundMs;

  // -- net: real launches, read through their node reports.  Failure-free
  // and crash launches are kept apart: only the latter wait for the FD.
  Rng rng(ctx.seed ^ 0x5eedULL);
  std::vector<double> clusterMs[2], nodeWallMs[2];
  std::int64_t retransmits = 0, datagrams = 0, relays = 0, heartbeats = 0;
  const int launches = 8;
  for (int i = 0; i < launches; ++i) {
    const bool crash = i % 2 == 1;
    const Launched l = launchOnce(base, rng, crash, ctx, out, "net.launch");
    clusterMs[crash].push_back(l.ms - latBoundMs);
    for (const NodeOutcome& node : l.result.nodes) {
      if (!node.reportOk) continue;
      nodeWallMs[crash].push_back(static_cast<double>(node.report.wallMs));
      retransmits += node.report.link.retransmits;
      datagrams += node.report.link.dataDatagrams;
      relays += node.report.urb.relays;
      heartbeats += node.report.fd.heartbeatsSent;
    }
  }
  out.layer["net.cluster_ms"] = median(clusterMs[0]);
  out.layer["net.cluster_crash_ms"] = median(clusterMs[1]);
  out.layer["net.node_wall_ms"] = median(nodeWallMs[0]);
  out.layer["net.node_wall_crash_ms"] = median(nodeWallMs[1]);
  out.layer["net.link_retransmit_ratio"] =
      datagrams > 0 ? static_cast<double>(retransmits) / datagrams : 0;
  out.layer["net.urb_relays"] = static_cast<double>(relays) / launches;
  out.layer["net.heartbeats_sent"] = static_cast<double>(heartbeats) / launches;
  registry.counter("net.link_retransmits").add(retransmits);
  registry.counter("net.link_data_datagrams").add(datagrams);
  registry.counter("net.urb_relays").add(relays);
  registry.counter("net.heartbeats_sent").add(heartbeats);

  // -- net: one cluster in this process on real sockets and the real clock,
  // stepped round-robin, so rounds, steps and suspicions can be timed.
  auto inProcess = [&](ProcessId crashed, std::vector<double>& roundMs,
                       std::vector<double>& stepUs,
                       std::vector<double>& detectMs) {
    std::vector<std::unique_ptr<UdpTransport>> fleet;
    std::vector<Endpoint> peers;
    std::string error;
    for (int p = 0; p < cfg.n; ++p) {
      fleet.push_back(UdpTransport::bind(0, &error));
      if (fleet.back() == nullptr) {
        out.check(false, "profile: bind failed: " + error);
        return;
      }
      peers.push_back(fleet.back()->localEndpoint());
    }
    for (auto& t : fleet) t->setPeers(peers);
    SteadyClock clock;
    std::vector<std::unique_ptr<NetNode>> nodes;
    for (ProcessId p = 0; p < cfg.n; ++p) {
      NodeOptions options;
      options.self = p;
      options.cfg = cfg;
      options.initial = static_cast<Value>(p % 2);
      options.algo = entry.name;
      if (p == crashed) options.crashPlan = CrashPlan{1, ProcessSet{}};
      nodes.push_back(std::make_unique<NetNode>(*fleet[p], entry.factory(p),
                                                options, clock));
    }
    std::vector<Round> lastRound(cfg.n, 0);
    std::vector<double> lastRoundAt(cfg.n, nowSeconds());
    std::vector<bool> detected(cfg.n, false);
    double haltedAt = -1;
    ssvsp::obs::ScopedSpan span("net.in_process_cluster");
    const double deadline = nowSeconds() + 10;
    for (bool running = true; running && nowSeconds() < deadline;) {
      running = false;
      for (ProcessId p = 0; p < cfg.n; ++p) {
        NetNode& node = *nodes[p];
        NetNode::Status status = NetNode::Status::kRunning;
        const double s = observe("net.step", [&] { status = node.step(); });
        if (status == NetNode::Status::kRunning) {
          running = true;
          stepUs.push_back(s * 1e6);
        }
        const double now = nowSeconds();
        if (status == NetNode::Status::kHalted && haltedAt < 0) haltedAt = now;
        const Round r = node.driver().roundsCompleted();
        if (r > lastRound[p]) {
          roundMs.push_back((now - lastRoundAt[p]) * 1e3 / (r - lastRound[p]));
          lastRound[p] = r;
          lastRoundAt[p] = now;
        }
        if (p != crashed && haltedAt >= 0 && !detected[p] &&
            node.monitor().suspected(clock.nowMs()).contains(crashed)) {
          detected[p] = true;
          detectMs.push_back((now - haltedAt) * 1e3);
        }
      }
    }
  };
  std::vector<double> roundMs, stepUs, detectMs, unused;
  inProcess(kNoProcess, roundMs, stepUs, unused);
  inProcess(0, unused, unused, detectMs);
  out.check(detectMs.size() == static_cast<std::size_t>(cfg.n - 1),
            "profile: not every survivor suspected the halted node");
  out.layer["net.round_ms"] = median(roundMs);
  out.layer["net.step_us"] = median(stepUs);
  out.layer["net.fd_detect_ms"] = median(detectMs);

  // -- net: PerfectLink round trips between two sockets on loopback.
  auto ta = UdpTransport::bind(0, &error);
  auto tb = UdpTransport::bind(0, &error);
  if (ta == nullptr || tb == nullptr) {
    out.check(false, "profile: bind failed: " + error);
    return;
  }
  const std::vector<Endpoint> pair{ta->localEndpoint(), tb->localEndpoint()};
  ta->setPeers(pair);
  tb->setPeers(pair);
  PerfectLink a(*ta, 0, 2), b(*tb, 1, 2);
  SteadyClock clock;
  // Pumps both ends until `at` has a delivery.
  auto await = [&](PerfectLink& at) {
    std::string bytes;
    ProcessId from = kNoProcess;
    for (;;) {
      const NetTime now = clock.nowMs();
      a.pump(now);
      b.pump(now);
      while (ta->tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
      while (tb->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
      if (!at.drainDeliveries().empty()) return;
    }
  };
  std::vector<double> rttUs;
  {
    ssvsp::obs::ScopedSpan span("net.link_ping_pong");
    for (int i = 0; i < 2000; ++i)
      rttUs.push_back(1e6 * observe("net.link_rtt", [&] {
        a.send(1, "ping");
        await(b);
        b.send(0, "pong");
        await(a);
      }));
  }
  out.layer["net.link_rtt_us"] = median(rttUs);
}

}  // namespace perfbench
