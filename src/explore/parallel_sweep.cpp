#include "explore/parallel_sweep.hpp"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "indep/independence.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

#if SSVSP_OBS_ENABLED
#include <chrono>
#include <string>
#endif

namespace ssvsp {

namespace {

struct Chunk {
  std::int64_t id = 0;
  std::int64_t firstScript = 0;
  std::vector<FailureScript> scripts;
};

/// Restricts `stream` to the slice `shard`, preserving global indices: the
/// windowed stream invokes its callback only for scripts in the range, and
/// the caller bases script indices at shard.firstScript.  Skipped scripts
/// cost one enumeration step each — cheap next to executing runs.
ScriptStream windowStream(const ScriptStream& stream, ShardRange shard) {
  if (shard.whole()) return stream;
  return [stream, shard](const std::function<bool(const FailureScript&)>& fn) {
    std::int64_t skip = shard.firstScript;
    std::int64_t remaining =
        shard.numScripts < 0 ? std::int64_t{-1} : shard.numScripts;
    stream([&](const FailureScript& script) {
      if (skip > 0) {
        --skip;
        return true;
      }
      if (remaining == 0) return false;
      if (remaining > 0) --remaining;
      if (!fn(script)) return false;
      return remaining != 0;
    });
  };
}

/// Single-threaded reference path.  One shard absorbs the whole stream;
/// saturation is still checked only at chunk boundaries so the cut lands on
/// the same script index as the pooled path.
SweepOutcome sweepInline(
    const ScriptStream& stream, int chunkScripts, std::int64_t firstIndex,
    const std::function<std::unique_ptr<SweepShard>(int)>& makeShard,
    obs::ProgressMeter* progress) {
  SweepOutcome out;
  out.merged = makeShard(0);
  std::int64_t index = firstIndex;
  std::int64_t inChunk = 0;
  stream([&](const FailureScript& script) {
    out.merged->visit(script, index++);
    out.scriptsMerged++;
    if (++inChunk == chunkScripts) {
      inChunk = 0;
      OBS_COUNTER_INC("sweep.chunks");
      if (progress != nullptr) progress->update(out.scriptsMerged);
      if (out.merged->saturated()) {
        OBS_INSTANT("sweep.saturated");
        return false;  // deterministic cut
      }
    }
    return true;
  });
  return out;
}

/// Shared state of the pooled path.  The producer (caller thread) feeds a
/// bounded chunk queue; workers drain it and fold finished shards into the
/// in-order merged prefix under `mu`.
struct Pool {
  std::mutex mu;
  std::condition_variable canPush;  ///< producer waits: queue has room
  std::condition_variable canPop;   ///< workers wait: queue has work / done
  std::deque<Chunk> queue;
  std::size_t queueCap = 0;
  bool produced = false;  ///< producer exhausted the stream
  bool cut = false;       ///< merged prefix saturated: discard later chunks

  /// Finished shards waiting for their turn in the in-order merge,
  /// keyed by chunk id.  Bounded by the number of in-flight chunks.
  std::map<std::int64_t, std::pair<std::unique_ptr<SweepShard>, std::int64_t>>
      ready;
  std::int64_t frontier = 0;  ///< next chunk id to merge
  std::unique_ptr<SweepShard> merged;
  std::int64_t scriptsMerged = 0;
  obs::ProgressMeter* progress = nullptr;

  void workerLoop(int worker,
                  const std::function<std::unique_ptr<SweepShard>(int)>& make) {
#if SSVSP_OBS_ENABLED
    obs::setCurrentThreadName("sweep-w" + std::to_string(worker));
    std::int64_t busyNs = 0;
#else
    (void)worker;
#endif
    while (true) {
      Chunk chunk;
      {
        std::unique_lock<std::mutex> lock(mu);
        canPop.wait(lock,
                    [&] { return !queue.empty() || produced || cut; });
        if (cut) break;
        if (queue.empty()) break;  // produced && drained
        chunk = std::move(queue.front());
        queue.pop_front();
        canPush.notify_one();
      }

#if SSVSP_OBS_ENABLED
      const auto chunkStart = std::chrono::steady_clock::now();
#endif
      auto shard = make(worker);
      {
        OBS_SPAN("sweep.chunk");
        std::int64_t index = chunk.firstScript;
        for (const FailureScript& script : chunk.scripts)
          shard->visit(script, index++);
      }
#if SSVSP_OBS_ENABLED
      busyNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - chunkStart)
                    .count();
      OBS_COUNTER_INC("sweep.chunks");
#endif

      std::lock_guard<std::mutex> lock(mu);
      if (cut) break;
      ready.emplace(chunk.id,
                    std::make_pair(std::move(shard),
                                   static_cast<std::int64_t>(
                                       chunk.scripts.size())));
      // Advance the in-order merge as far as finished chunks allow,
      // checking saturation after each chunk exactly like the inline path.
      OBS_SPAN("sweep.merge");
      bool sawCut = false;
      while (true) {
        auto it = ready.find(frontier);
        if (it == ready.end()) break;
        if (merged == nullptr)
          merged = std::move(it->second.first);
        else
          merged->mergeFrom(*it->second.first);
        scriptsMerged += it->second.second;
        ready.erase(it);
        ++frontier;
        if (merged->saturated()) {
          OBS_INSTANT("sweep.saturated");
          cut = true;
          ready.clear();
          queue.clear();
          canPop.notify_all();
          canPush.notify_all();
          sawCut = true;
          break;
        }
      }
      if (progress != nullptr) progress->update(scriptsMerged);
      if (sawCut) break;
    }
#if SSVSP_OBS_ENABLED
    // One observation per worker: the exported histogram's min/max/sum show
    // how evenly chunk work spread across the pool.
    OBS_HISTOGRAM("sweep.worker_busy_us", busyNs / 1000);
#endif
  }
};

}  // namespace

SweepOutcome parallelSweep(
    const ScriptStream& stream, const ExploreSpec& spec,
    const std::function<std::unique_ptr<SweepShard>(int worker)>& makeShard,
    obs::ProgressMeter* progress) {
  SSVSP_CHECK(makeShard != nullptr);
  OBS_SPAN("sweep");
  const int threads = resolveThreads(spec.threads);
  const int chunkScripts = spec.chunkScripts >= 1 ? spec.chunkScripts : 1;
  const ScriptStream windowed = windowStream(stream, spec.shard);
  const std::int64_t firstIndex =
      spec.shard.whole() ? 0 : std::max<std::int64_t>(spec.shard.firstScript,
                                                      0);
  if (threads <= 1)
    return sweepInline(windowed, chunkScripts, firstIndex, makeShard,
                       progress);

  Pool pool;
  pool.progress = progress;
  pool.queueCap = static_cast<std::size_t>(threads) * 4;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers.emplace_back(
        [&pool, &makeShard, i] { pool.workerLoop(i, makeShard); });

  // Produce: cut the stream into chunks, pushing each to the bounded queue.
  Chunk next;
  std::int64_t nextId = 0;
  std::int64_t nextFirst = firstIndex;
  auto flush = [&]() -> bool {  // false = stop producing
    if (next.scripts.empty()) return true;
    std::unique_lock<std::mutex> lock(pool.mu);
    pool.canPush.wait(lock, [&] {
      return pool.queue.size() < pool.queueCap || pool.cut;
    });
    if (pool.cut) return false;
    next.id = nextId++;
    next.firstScript = nextFirst;
    nextFirst += static_cast<std::int64_t>(next.scripts.size());
    pool.queue.push_back(std::move(next));
    next = Chunk{};
    pool.canPop.notify_one();
    return true;
  };
  windowed([&](const FailureScript& script) {
    next.scripts.push_back(script);
    if (static_cast<int>(next.scripts.size()) < chunkScripts) return true;
    return flush();
  });
  flush();  // tail chunk (no-op after a saturation stop)

  {
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.produced = true;
  }
  pool.canPop.notify_all();
  for (std::thread& w : workers) w.join();

  SweepOutcome out;
  out.merged = pool.merged ? std::move(pool.merged) : makeShard(0);
  out.scriptsMerged = pool.scriptsMerged;
  out.threadsUsed = threads;
  return out;
}

SweepContext::SweepContext(const RoundAutomatonFactory& factory,
                           const RoundConfig& cfg, RoundModel model,
                           std::vector<std::vector<Value>> configs,
                           const ExploreSpec& spec)
    : factory(factory), cfg(cfg), model(model), configs(std::move(configs)) {
  engineOptions.horizon = spec.enumeration.horizon + spec.horizonSlack;
  engineOptions.stopWhenAllDecided = true;
}

SweepRun runSweep(const SweepContext& ctx, const ScriptStream& stream,
                  const ExploreSpec& spec, RunMemo* memo,
                  const SweepLabel& label,
                  const ArenaShardFactory& makeShard) {
  // One execution arena per worker: engines (with their automata and
  // buffers) live for the whole sweep, not per chunk.  The memo is shared.
  std::unique_ptr<SymmetryGroup> group;
  std::unique_ptr<RunMemo> ownedMemo;
  std::optional<indep::PorSpec> por;
  if (spec.reduction == Reduction::kNone) {
    memo = nullptr;
  } else {
    group = std::make_unique<SymmetryGroup>(ctx.cfg.n, spec.symmetryFixedIds);
    if (memo == nullptr) {
      ownedMemo = std::make_unique<RunMemo>();
      memo = ownedMemo.get();
    }
    por = porSpecFromExplore(spec);
  }
  std::vector<std::unique_ptr<RunExecutor>> arenas;
  for (int w = 0; w < resolveThreads(spec.threads); ++w)
    arenas.push_back(std::make_unique<RunExecutor>(
        ctx.cfg, ctx.model, ctx.factory, ctx.configs, ctx.engineOptions,
        group.get(), memo, por.has_value() ? &*por : nullptr));

  obs::ProgressMeter::Options progressOpt;
  progressOpt.intervalSec = spec.progressIntervalSec >= 0
                                ? spec.progressIntervalSec
                                : obs::progressIntervalFromEnv();
  progressOpt.label = label.progress;
  if (progressOpt.intervalSec > 0) {
    // The total is the SLICE the sweep actually executes, not the whole
    // stream — a shard worker's ETA would otherwise be pessimistic by the
    // shard count.
    progressOpt.totalScripts = spec.shard.countWithin(label.streamScripts());
    progressOpt.memoHits = [&arenas] {
      std::int64_t hits = 0;
      for (const auto& arena : arenas) hits += arena->runsFromMemoNow();
      return hits;
    };
    progressOpt.memoRequests = [&arenas] {
      std::int64_t requests = 0;
      for (const auto& arena : arenas) requests += arena->runsRequestedNow();
      return requests;
    };
  }
  obs::ProgressMeter progress(std::move(progressOpt));

  SweepOutcome outcome;
  {
    OBS_SPAN(label.span);
    outcome = parallelSweep(
        stream, spec,
        [&](int worker) {
          return makeShard(*arenas[static_cast<std::size_t>(worker)]);
        },
        progress.enabled() ? &progress : nullptr);
  }
  progress.finish();

  SweepRun run{std::move(outcome.merged), outcome.scriptsMerged, {}};
  for (const auto& arena : arenas) run.stats.add(arena->stats());
  run.stats.memoEntries = memo != nullptr ? memo->size() : 0;
  run.stats.publish(obs::metrics());
  return run;
}

}  // namespace ssvsp
