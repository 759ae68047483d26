#include "net/harness.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/abstract_interp.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp::net {

namespace {

std::string reportPath(const std::string& dir, ProcessId node) {
  return dir + "/node_" + std::to_string(node) + ".json";
}

/// Child body: adopt the inherited socket, run the node, write the report,
/// _exit.  No destructors, no stdio races with the parent.
[[noreturn]] void runChild(int fd, const std::vector<Endpoint>& peers,
                           const Endpoint& controlEndpoint,
                           const LaunchSpec& spec, ProcessId self) {
  std::string error;
  auto transport = UdpTransport::adopt(fd, &error);
  if (transport == nullptr) ::_exit(10);
  transport->setPeers(peers);

  NodeOptions options;
  options.self = self;
  options.cfg = spec.cfg;
  options.initial = spec.values[static_cast<std::size_t>(self)];
  options.maxRounds = spec.maxRounds;
  options.algo = spec.entry->name;
  options.crashPlan.round = spec.script.crashRound(self);
  options.crashPlan.sendTo = spec.script.sendSubset(self, spec.cfg.n);
  options.link = spec.link;
  options.heartbeat = spec.heartbeat;
  options.deadlineMs = spec.deadlineMs;
  options.control = controlEndpoint;

  SteadyClock clock;
  NetNode node(*transport, spec.entry->factory(self), options, clock);
  const NodeReport report = node.run();

  // A scripted-crash node only reaches here if the SIGKILL never landed
  // (deadline passed); its exit code tells the parent.
  if (node.status() == NetNode::Status::kHalted) ::_exit(11);

  std::ofstream out(reportPath(spec.reportDir, self),
                    std::ios::binary | std::ios::trunc);
  out << report.toJson() << "\n";
  out.flush();
  if (!out.good()) ::_exit(12);
  ::_exit(0);
}

/// Parses a kProgress control datagram; false for anything else.
bool parseProgress(std::string_view bytes, ProgressKind* kind,
                   std::int32_t* arg) {
  RecordReader r(bytes);
  if (static_cast<WireKind>(r.getU8()) != WireKind::kProgress) return false;
  r.getU32();  // node id; the transport's peer table already resolved it
  *kind = static_cast<ProgressKind>(r.getU8());
  *arg = r.getI32();
  return r.ok() && r.exhausted();
}

}  // namespace

Round analyzerLatBound(const AlgorithmEntry& entry, const RoundConfig& cfg,
                       int f) {
  if (f < 0 || f > cfg.t) return kNoRound;
  // byMaxCrashes[f] joins only cells with <= f crashes: skip the rest.
  const AbstractBounds bounds = interpretAutomaton(entry, cfg, {}, f);
  const Round latest = bounds.byMaxCrashes[static_cast<std::size_t>(f)].latest;
  return latest == 0 ? kNoRound : latest;
}

bool launchSpecFromScenario(const Scenario& scenario, LaunchSpec* out,
                            std::string* error) {
  auto fail = [&](const std::string& why) {
    *error = why;
    return false;
  };
  const AlgorithmEntry* entry = findAlgorithm(scenario.algorithm);
  if (entry == nullptr)
    return fail("unknown algorithm '" + scenario.algorithm + "'");
  if (scenario.model != RoundModel::kRws)
    return fail("transport replay implements RWS; scenario declares model "
                "rs (the transport cannot guarantee same-round delivery)");
  if (static_cast<int>(scenario.values.size()) != scenario.cfg.n)
    return fail("scenario has no initial values for every process");
  LaunchSpec spec;
  spec.entry = entry;
  spec.cfg = scenario.cfg;
  spec.values = scenario.values;
  spec.maxRounds =
      scenario.horizon > 0 ? scenario.horizon : scenario.cfg.t + 2;
  spec.script = scenario.script;
  *out = std::move(spec);
  return true;
}

LaunchResult launchCluster(const LaunchSpec& spec) {
  SSVSP_CHECK(spec.entry != nullptr);
  SSVSP_CHECK(spec.cfg.n >= 1 && spec.cfg.n <= kMaxProcs);
  SSVSP_CHECK(static_cast<int>(spec.values.size()) == spec.cfg.n);
  SSVSP_CHECK(!spec.reportDir.empty());
  const int n = spec.cfg.n;

  LaunchResult result;
  auto fail = [&](const std::string& why) { result.failures.push_back(why); };

  if (::mkdir(spec.reportDir.c_str(), 0755) != 0 && errno != EEXIST) {
    fail("mkdir '" + spec.reportDir + "': " + std::strerror(errno));
    return result;
  }

  // Phase 1: bind everything in the parent.  The address book is complete
  // and race-free before any child exists.
  std::string error;
  std::vector<std::unique_ptr<UdpTransport>> sockets;
  std::vector<Endpoint> peers;
  for (ProcessId p = 0; p < n; ++p) {
    auto s = UdpTransport::bind(0, &error);
    if (s == nullptr) {
      fail("bind node " + std::to_string(p) + ": " + error);
      return result;
    }
    peers.push_back(s->localEndpoint());
    sockets.push_back(std::move(s));
  }
  auto control = UdpTransport::bind(0, &error);
  if (control == nullptr) {
    fail("bind control: " + error);
    return result;
  }
  control->setPeers(peers);  // control datagrams resolve to node ids
  const Endpoint controlEndpoint = control->localEndpoint();

  LaunchSpec childSpec = spec;
  if (childSpec.maxRounds <= 0) childSpec.maxRounds = spec.cfg.t + 2;

  // Phase 2: fork the nodes.  Each child keeps exactly its own socket.
  result.nodes.assign(static_cast<std::size_t>(n), NodeOutcome{});
  for (ProcessId p = 0; p < n; ++p) {
    NodeOutcome& outcome = result.nodes[static_cast<std::size_t>(p)];
    outcome.node = p;
    outcome.scriptedCrash = spec.script.crashRound(p) != kNoRound;
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail(std::string("fork: ") + std::strerror(errno));
      for (ProcessId q = 0; q < p; ++q)
        ::kill(result.nodes[static_cast<std::size_t>(q)].pid, SIGKILL);
      while (::waitpid(-1, nullptr, 0) > 0) {
      }
      return result;
    }
    if (pid == 0) {
      const int fd = sockets[static_cast<std::size_t>(p)]->fd();
      for (ProcessId q = 0; q < n; ++q)
        if (q != p) ::close(sockets[static_cast<std::size_t>(q)]->fd());
      ::close(control->fd());
      runChild(fd, peers, controlEndpoint, childSpec, p);
    }
    outcome.pid = pid;
    if (spec.verbose)
      std::cerr << "[harness] node " << p << " -> pid " << pid << "\n";
  }
  // The parent's copies of the node sockets must close, or a SIGKILLed
  // node's port would stay "alive" (datagrams buffered by the kernel
  // against the parent's fd, no ICMP refusals for the survivors).
  sockets.clear();

  // Phase 3: supervise.  SIGKILL scripted-crash nodes when they announce
  // `halted`; reap everyone; hard stop past the deadline.
  SteadyClock clock;
  const NetTime deadline = spec.deadlineMs + 5000;  // children stop first
  int live = n;
  std::string bytes;
  ProcessId from = kNoProcess;
  while (live > 0) {
    if (clock.nowMs() > deadline) {
      fail("harness deadline exceeded with " + std::to_string(live) +
           " nodes still running");
      for (const NodeOutcome& o : result.nodes)
        if (o.pid > 0) ::kill(o.pid, SIGKILL);
    }
    control->waitReadable(20);
    while (control->tryRecv(&bytes, &from)) {
      ProgressKind kind{};
      std::int32_t arg = 0;
      if (!parseProgress(bytes, &kind, &arg)) continue;
      NodeOutcome& o = result.nodes[static_cast<std::size_t>(from)];
      if (kind == ProgressKind::kHalted && !o.killedByHarness) {
        // The scripted crash: the node has executed its partial broadcast
        // and gone silent; make the death real.
        o.killedByHarness = true;
        ::kill(o.pid, SIGKILL);
        if (spec.verbose)
          std::cerr << "[harness] SIGKILL node " << from << " after round "
                    << arg << "\n";
      } else if (spec.verbose && kind == ProgressKind::kDecided) {
        std::cerr << "[harness] node " << from << " decided in round " << arg
                  << "\n";
      }
    }
    int status = 0;
    pid_t reaped;
    while ((reaped = ::waitpid(-1, &status, WNOHANG)) > 0) {
      for (NodeOutcome& o : result.nodes)
        if (o.pid == reaped) {
          o.waitStatus = status;
          --live;
        }
    }
    if (reaped < 0 && errno == ECHILD) break;
  }

  // Phase 4: collect reports and render the verdict.
  result.observedCrashes = spec.script.numCrashes();
  result.latBound =
      analyzerLatBound(*spec.entry, spec.cfg, result.observedCrashes);

  for (NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash) {
      if (!o.killedByHarness)
        fail("node " + std::to_string(o.node) +
             " was scripted to crash but never reached its crash round");
      else if (!WIFSIGNALED(o.waitStatus) ||
               WTERMSIG(o.waitStatus) != SIGKILL)
        fail("node " + std::to_string(o.node) +
             " outlived its SIGKILL (status " + std::to_string(o.waitStatus) +
             ")");
      continue;
    }
    if (!WIFEXITED(o.waitStatus) || WEXITSTATUS(o.waitStatus) != 0) {
      fail("node " + std::to_string(o.node) + " exited abnormally (status " +
           std::to_string(o.waitStatus) + ")");
      continue;
    }
    std::ifstream in(reportPath(spec.reportDir, o.node), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      o.reportError = "report unreadable";
      fail("node " + std::to_string(o.node) + ": report unreadable");
      continue;
    }
    o.reportOk = NodeReport::fromJson(buf.str(), &o.report, &o.reportError);
    if (!o.reportOk)
      fail("node " + std::to_string(o.node) + ": bad report: " +
           o.reportError);
  }

  // Consensus contract over the survivors' reports.
  const ProcessSet scriptedFaulty =
      spec.script.faultyWithin(childSpec.maxRounds + 1, n);
  for (const NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash || !o.reportOk) continue;
    const NodeReport& r = o.report;
    if (r.timedOut)
      fail("node " + std::to_string(o.node) + " timed out undecided");
    if (!r.decided) {
      fail("node " + std::to_string(o.node) +
           " terminated without deciding (termination violated)");
      continue;
    }
    // Validity: the decision is some process's initial value.
    bool proposed = false;
    for (Value v : spec.values) proposed = proposed || v == r.decision;
    if (!proposed)
      fail("node " + std::to_string(o.node) + " decided " +
           std::to_string(r.decision) + ", which nobody proposed");
    // Agreement.
    if (result.agreedValue == kUndecided)
      result.agreedValue = r.decision;
    else if (result.agreedValue != r.decision)
      fail("agreement violated: node " + std::to_string(o.node) +
           " decided " + std::to_string(r.decision) + " against " +
           std::to_string(result.agreedValue));
    // Efficiency: within the analyzer's Lat(A, f).
    if (r.decisionRound > result.worstDecisionRound)
      result.worstDecisionRound = r.decisionRound;
    if (result.latBound != kNoRound && r.decisionRound > result.latBound)
      fail("node " + std::to_string(o.node) + " decided in round " +
           std::to_string(r.decisionRound) + " > Lat(A, f) = " +
           std::to_string(result.latBound) +
           " (emulation assumption broken; check the FD timeout)");
    // FD accuracy: under P, suspecting a scripted-correct process is a
    // mistimed timeout, the observable failure mode the knobs exist for.
    if (spec.heartbeat.mode == FdMode::kPerfect) {
      const ProcessSet suspected = ProcessSet::fromMask(r.suspectedFinal);
      const ProcessSet mistimed = suspected - scriptedFaulty;
      if (!mistimed.empty())
        fail("node " + std::to_string(o.node) +
             " suspected correct process(es) " + mistimed.toString() +
             " — mistimed P timeout (raise --timeout-ms)");
    }
  }

  result.ok = result.failures.empty();
  return result;
}

}  // namespace ssvsp::net
