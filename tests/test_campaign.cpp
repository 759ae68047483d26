// Campaign-layer tests (src/campaign): the persistent memo store's
// durability contract (round trip, torn-tail repair on open, refusal of
// mid-log damage), the manifest ledger's serde and resume semantics, and
// the headline guarantee — a 2-process campaign that loses a worker to
// SIGKILL mid-shard still produces a merged report bit-identical to the
// single-process in-memory sweep — and catchUp(), which lets each forked
// worker inherit what finished workers logged.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/store.hpp"
#include "consensus/registry.hpp"
#include "mc/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

/// Fresh scratch directory per test.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ssvsp_campaign_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ignored;  // best-effort scrub
    std::filesystem::remove_all(dir_, ignored);
  }

  std::string storePath() const { return dir_ + "/memo.log"; }

  std::string dir_;
};

std::int64_t fileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

void appendRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A synthetic but well-formed packed key: distinct tags give distinct keys.
MemoKey testKey(std::uint64_t tag) {
  MemoKey k;
  k.used = 2;
  k.words[0] = (std::uint64_t{2} << 56) | (std::uint64_t{3} << 48);
  k.words[1] = tag;
  return k;
}

/// Frames one record body exactly like the store's appender.
std::string framed(const std::string& body) {
  std::string out;
  RecordWriter w(out);
  w.putU32(static_cast<std::uint32_t>(body.size()));
  out.append(body);
  RecordWriter tail(out);
  tail.putU64(fnv1a64(body));
  return out;
}

/// A checksum-valid segment footer for `writer` claiming `count` records.
std::string footerFrame(std::uint32_t writer, std::int64_t count) {
  std::string body;
  RecordWriter w(body);
  w.putU8(2).putU32(writer).putI64(count);  // kRecFooter
  return framed(body);
}

/// A summary record for `key`, stamped with `writer`.
std::string summaryFrame(const MemoKey& key, std::uint32_t writer,
                         const RunSummary& summary) {
  std::string body;
  RecordWriter w(body);
  w.putU8(3).putBytes(key.bytes()).putU32(writer);  // kRecSummaryV2
  w.putI32(summary.latency).putU8(summary.consensusOk ? 1 : 0);
  return framed(body);
}

TEST_F(CampaignTest, StoreRoundTripsAcrossReopen) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->openStats().entriesLoaded, 0);
    store->insert(testKey(1), RunSummary{3, true});
    store->insert(testKey(2), RunSummary{kNoRound, false});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
    EXPECT_EQ(store->entriesAppended(), 2);
  }
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 2);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().bytesTruncated, 0);
  const std::optional<RunSummary> a = store->find(testKey(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->latency, 3);
  EXPECT_TRUE(a->consensusOk);
  const std::optional<RunSummary> b = store->find(testKey(2));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->latency, kNoRound);
  EXPECT_FALSE(b->consensusOk);
  EXPECT_FALSE(store->find(testKey(3)).has_value());
}

TEST_F(CampaignTest, StoreRepairsTornTailOnOpen) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  const std::int64_t intact = fileSize(storePath());
  // A worker died mid-write: half a record's worth of garbage at the tail.
  appendRaw(storePath(), std::string("\x13\x00\x00\x00partial", 11));

  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 1);
  EXPECT_EQ(store->openStats().bytesTruncated, 11);
  EXPECT_EQ(fileSize(storePath()), intact);  // ftruncate'd back
  EXPECT_TRUE(store->find(testKey(1)).has_value());
}

TEST_F(CampaignTest, StoreRejectsCorruptChecksumTailButKeepsPrefix) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    store->flush(/*sync=*/false);
    store->insert(testKey(2), RunSummary{4, true});
    store->flush(/*sync=*/false);
  }
  // Flip a byte inside the LAST record's body: its checksum fails, so
  // replay keeps the first record and truncates from the damaged one on.
  std::ifstream in(storePath(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 12] ^= 0x40;
  std::ofstream out(storePath(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 1);
  EXPECT_GT(store->openStats().bytesTruncated, 0);
  EXPECT_TRUE(store->find(testKey(1)).has_value());
  EXPECT_FALSE(store->find(testKey(2)).has_value());
}

TEST_F(CampaignTest, StoreRefusesFooterCountMismatch) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  // Forge a checksum-VALID footer claiming 7 records for a writer that
  // appended none: valid frame, inconsistent ledger — records were lost in
  // the middle of the log, so open() must refuse rather than repair.
  appendRaw(storePath(), footerFrame(0xDEAD, 7));

  auto store = MemoStore::open(storePath(), &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_NE(error.find("footer count mismatch"), std::string::npos) << error;
}

TEST_F(CampaignTest, CatchUpWaitsForAFrameStillBeingWritten) {
  obs::metrics().reset();
  std::string error;
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  const std::string frame = summaryFrame(testKey(5), 0xBEEF, {3, true});
  const std::size_t half = frame.size() / 2;

  // Another writer is mid-append: half a frame is on disk.  catchUp() must
  // neither see the record nor repair the "torn" tail away.
  appendRaw(storePath(), frame.substr(0, half));
  const std::int64_t partial = fileSize(storePath());
  ASSERT_TRUE(store->catchUp(&error)) << error;
  EXPECT_FALSE(store->find(testKey(5)).has_value());
  EXPECT_EQ(fileSize(storePath()), partial);

  // The second write completes the frame; the next call resumes at it.
  appendRaw(storePath(), frame.substr(half));
  ASSERT_TRUE(store->catchUp(&error)) << error;
  const std::optional<RunSummary> got = store->find(testKey(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->latency, 3);
  EXPECT_TRUE(got->consensusOk);

  // Footer counts carry across calls: the writer's footer for its one
  // record, arriving in a later catch-up, is accepted.
  appendRaw(storePath(), footerFrame(0xBEEF, 1));
  EXPECT_TRUE(store->catchUp(&error)) << error;
  EXPECT_EQ(store->size(), 1);
#if SSVSP_OBS_ENABLED
  // One record over three catch-ups, each replaying whole frames only.
  const obs::MetricsSnapshot metrics = obs::metrics().snapshot();
  EXPECT_EQ(metrics.value("campaign.memo_caught_up"), 1);
  const obs::MetricSample* bytes = metrics.find("campaign.catch_up_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->hist.count, 3);
  EXPECT_EQ(bytes->hist.sum, static_cast<std::int64_t>(
                                 frame.size() + footerFrame(0xBEEF, 1).size()));
#endif
}

TEST_F(CampaignTest, CatchUpRefusesFooterCountMismatch) {
  std::string error;
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  appendRaw(storePath(), summaryFrame(testKey(1), 0xDEAD, {2, true}));
  appendRaw(storePath(), footerFrame(0xDEAD, 7));
  EXPECT_FALSE(store->catchUp(&error));
  EXPECT_NE(error.find("footer count mismatch"), std::string::npos) << error;
  // The damage stays refused on every later call; nothing was truncated.
  error.clear();
  EXPECT_FALSE(store->catchUp(&error));
  EXPECT_NE(error.find("footer count mismatch"), std::string::npos) << error;
}

TEST_F(CampaignTest, StoreRefusesV1Logs) {
  // A v1-era log: old magic plus one intact, checksum-valid record.  open()
  // must refuse it with an error naming the version — never replay it as
  // an empty store, never truncate it — and compaction must refuse too.
  appendRaw(storePath(), std::string("SSVSPML1", 8));
  {
    std::string body;
    RecordWriter w(body);
    w.putU8(1);  // the v1 summary record type
    w.putBytes(std::string(16, '\0'));
    w.putU32(77).putI32(2).putU8(1);
    appendRaw(storePath(), framed(body));
  }
  const std::int64_t size = fileSize(storePath());

  std::string error;
  EXPECT_EQ(MemoStore::open(storePath(), &error), nullptr);
  EXPECT_NE(error.find("v1 log"), std::string::npos) << error;
  CompactStats stats;
  error.clear();
  EXPECT_FALSE(compactMemoStore(storePath(), /*force=*/true, &stats, &error));
  EXPECT_NE(error.find("v1 log"), std::string::npos) << error;
  EXPECT_EQ(fileSize(storePath()), size);
}

TEST_F(CampaignTest, StoreRefusesUndecodableSummaryKey) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  // A checksum-valid v2 summary whose key is not a whole number of words:
  // well-formed frame, malformed key — mid-log damage, not a torn tail.
  std::string body;
  RecordWriter w(body);
  w.putU8(3);  // kRecSummaryV2
  w.putBytes(std::string("abcd", 4));
  w.putU32(1).putI32(1).putU8(1);
  appendRaw(storePath(), framed(body));

  auto store = MemoStore::open(storePath(), &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_NE(error.find("undecodable summary key"), std::string::npos) << error;
}

TEST_F(CampaignTest, CompactDeduplicatesAndSealsOneSegment) {
  std::string error;
  // Two writer sessions, overlapping keys — the multi-segment, duplicated
  // shape a sharded campaign leaves behind.
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{3, true});
    store->insert(testKey(2), RunSummary{2, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(2), RunSummary{2, true});  // duplicate orbit
    store->insert(testKey(3), RunSummary{kNoRound, false});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  const std::int64_t before = fileSize(storePath());

  CompactStats stats;
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/false, &stats, &error))
      << error;
  EXPECT_EQ(stats.entriesBefore, 4);
  EXPECT_EQ(stats.footersBefore, 2);
  EXPECT_EQ(stats.entriesUnfooted, 0);
  EXPECT_EQ(stats.entriesAfter, 3);
  EXPECT_EQ(stats.bytesBefore, before);
  EXPECT_LT(stats.bytesAfter, stats.bytesBefore);
  EXPECT_EQ(fileSize(storePath()), stats.bytesAfter);

  // The compacted log replays to the same memo, sealed by a single footer.
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 3);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().entriesUnfooted, 0);
  const std::optional<RunSummary> a = store->find(testKey(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->latency, 3);
  const std::optional<RunSummary> c = store->find(testKey(3));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->latency, kNoRound);
  EXPECT_FALSE(c->consensusOk);
  store.reset();

  // Compacting a compacted store is byte-idempotent (sorted keys, fixed
  // writer id).
  std::ifstream in1(storePath(), std::ios::binary);
  std::string snap1((std::istreambuf_iterator<char>(in1)),
                    std::istreambuf_iterator<char>());
  CompactStats again;
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/false, &again, &error))
      << error;
  EXPECT_EQ(again.entriesBefore, 3);
  EXPECT_EQ(again.entriesAfter, 3);
  std::ifstream in2(storePath(), std::ios::binary);
  std::string snap2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(snap1, snap2);
}

TEST_F(CampaignTest, CompactRefusesUnsealedStoreUnlessForced) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{3, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
    // A second batch flushed but never sealed: the shape a SIGKILLed (or
    // still-running) worker leaves.
    store->insert(testKey(2), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->openStats().entriesUnfooted, 1);
  }
  const std::int64_t before = fileSize(storePath());

  CompactStats stats;
  EXPECT_FALSE(compactMemoStore(storePath(), /*force=*/false, &stats, &error));
  EXPECT_NE(error.find("--force"), std::string::npos) << error;
  EXPECT_EQ(stats.entriesUnfooted, 1);
  EXPECT_EQ(fileSize(storePath()), before);  // refused = untouched

  // --force compacts anyway; the unsealed record is kept and sealed.
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/true, &stats, &error))
      << error;
  EXPECT_EQ(stats.entriesBefore, 2);
  EXPECT_EQ(stats.entriesAfter, 2);
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 2);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().entriesUnfooted, 0);
}

TEST_F(CampaignTest, ManifestJsonRoundTrip) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult result = runCampaign(spec, options);
  ASSERT_TRUE(result.ok) << result.error;

  std::string error;
  const auto loaded = campaignStatus(dir_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const auto reparsed =
      CampaignManifest::fromJsonString(loaded->toJsonString(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->toJsonString(), loaded->toJsonString());
  EXPECT_TRUE(reparsed->complete());
  EXPECT_EQ(reparsed->mergedReport().toJsonString(),
            result.report.toJsonString());
}

/// The headline durability guarantee: 2 forked workers, one SIGKILLed
/// mid-shard (chaos hook), slice reassigned — and the merged report is
/// bit-identical to the single-process in-memory sweep of the same spec.
TEST_F(CampaignTest, KilledWorkerCampaignMatchesInMemorySweepBitForBit) {
  CampaignSpec spec;
  spec.algorithm = "FloodSetWS";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 2;
  options.chaosKillShard = 1;
  const CampaignResult fromCampaign = runCampaign(spec, options);
  ASSERT_TRUE(fromCampaign.ok) << fromCampaign.error;
  EXPECT_GE(fromCampaign.workerDeaths, 1);  // the chaos kill registered

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  McCheckOptions whole = manifest->shardOptions(0);
  whole.shard = ShardRange{};  // the full stream, one process, in memory
  const McReport inMemory = modelCheckConsensus(
      algorithmByName(spec.algorithm).factory, RoundConfig{spec.n, spec.t},
      manifest->model, whole);
  EXPECT_EQ(fromCampaign.report.toJsonString(), inMemory.toJsonString());
}

/// FloodSetWS n=4 t=2 over its first 1200 scripts, in six shards.
CampaignSpec sharingSpec() {
  CampaignSpec spec;
  spec.algorithm = "FloodSetWS";
  spec.n = 4;
  spec.t = 2;
  spec.maxScripts = 1200;
  spec.shardScripts = 200;
  return spec;
}

/// One forked worker at a time, each caught up on the log before its fork,
/// shares exactly what one process shares: the same engine runs, the same
/// memo records, no duplicate in the log, and the same report.
TEST_F(CampaignTest, OneWorkerAtATimeSharesLikeOneProcess) {
  const CampaignSpec spec = sharingSpec();
  CampaignOptions options;
  options.dir = dir_ + "/in_process";
  options.workers = 0;
  const CampaignResult inProcess = runCampaign(spec, options);
  ASSERT_TRUE(inProcess.ok) << inProcess.error;
  ASSERT_EQ(inProcess.shardsTotal, 6);

  options.dir = dir_ + "/forked";
  options.workers = 1;
  const CampaignResult forked = runCampaign(spec, options);
  ASSERT_TRUE(forked.ok) << forked.error;
  EXPECT_EQ(forked.workersForked, 6);
  EXPECT_EQ(forked.stats.runsExecuted, inProcess.stats.runsExecuted);
  EXPECT_EQ(forked.memoEntriesAppended, inProcess.memoEntriesAppended);
  EXPECT_EQ(forked.report.toJsonString(), inProcess.report.toJsonString());

  CompactStats compacted;
  std::string error;
  ASSERT_TRUE(compactMemoStore(options.dir + "/memo.log", /*force=*/false,
                               &compacted, &error))
      << error;
  EXPECT_EQ(compacted.entriesBefore, compacted.entriesAfter);
  EXPECT_EQ(compacted.entriesAfter, inProcess.memoEntriesAppended);
}

/// A shard worker SIGKILLed mid-shard leaves a flushed but unsealed half
/// segment.  The next catch-up inherits it, so the reassigned slice logs
/// none of those orbits again — and the report is still bit-identical.
TEST_F(CampaignTest, KilledWorkersHalfSegmentIsCaughtUp) {
  const CampaignSpec spec = sharingSpec();
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 1;
  options.chaosKillShard = 1;
  const CampaignResult fromCampaign = runCampaign(spec, options);
  ASSERT_TRUE(fromCampaign.ok) << fromCampaign.error;
  EXPECT_EQ(fromCampaign.workerDeaths, 1);

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  McCheckOptions whole = manifest->shardOptions(0);
  whole.shard = ShardRange{};
  const McReport inMemory = modelCheckConsensus(
      algorithmByName(spec.algorithm).factory, RoundConfig{spec.n, spec.t},
      manifest->model, whole);
  EXPECT_EQ(fromCampaign.report.toJsonString(), inMemory.toJsonString());

  CompactStats compacted;
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/true, &compacted,
                               &error))
      << error;
  EXPECT_GT(compacted.entriesUnfooted, 0);  // the killed worker's half
  EXPECT_EQ(compacted.entriesBefore, compacted.entriesAfter);
}

/// Armed by the test below: the log the next fork() forges a footer into.
std::string* gForgeFooterInto = nullptr;

void forgeFooterBeforeFork() {
  if (gForgeFooterInto == nullptr) return;
  appendRaw(*gForgeFooterInto, footerFrame(0xDEAD, 7));
  gForgeFooterInto = nullptr;  // once
}

/// Damage that appears in the log while the campaign runs fails the
/// campaign through the next catch-up with the store's error — no abort.
TEST_F(CampaignTest, CatchUpDamageFailsTheCampaign) {
  static const int registered =
      ::pthread_atfork(&forgeFooterBeforeFork, nullptr, nullptr);
  ASSERT_EQ(registered, 0);
  std::string log = storePath();
  gForgeFooterInto = &log;  // lands right after the first catch-up
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 1;
  const CampaignResult result = runCampaign(sharingSpec(), options);
  gForgeFooterInto = nullptr;
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("footer count mismatch"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.workersForked, 1);
}

TEST_F(CampaignTest, ResumeRerunsOnlyPendingShardsAndMatches) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult first = runCampaign(spec, options);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.shardsTotal, 4);

  // Simulate an orchestrator killed before recording shard 2: the ledger
  // says pending, so resume must rerun exactly that shard.
  std::string error;
  auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->shards[2].done = false;
  manifest->shards[2].report = McReport{};
  ASSERT_TRUE(manifest->save(dir_ + "/manifest.json", &error)) << error;

  const CampaignResult resumed = runCampaign(spec, options);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.shardsSkipped, 3);
  EXPECT_EQ(resumed.shardsRun, 1);
  EXPECT_EQ(resumed.report.toJsonString(), first.report.toJsonString());

  // A different spec against the same dir is refused, not silently mixed.
  CampaignSpec other = spec;
  other.shardScripts = 20;
  const CampaignResult mixed = runCampaign(other, options);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST_F(CampaignTest, WarmStoreSweepExecutesZeroEngineRuns) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult cold = runCampaign(spec, options);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_GT(cold.memoEntriesAppended, 0);
  EXPECT_GT(cold.stats.runsExecuted, 0);

  // Drop the ledger, keep the store: every shard re-sweeps, every orbit
  // hits, the engine never runs — and the report does not change.  The one
  // exception is the SSVSP_CHECK replay tripwire, which by design
  // re-executes every Nth collapsed memo hit (N = por_replay_every, 0 when
  // the tripwire is off).
  ASSERT_EQ(std::remove((dir_ + "/manifest.json").c_str()), 0);
  const CampaignResult warm = runCampaign(spec, options);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_GT(warm.memoEntriesLoaded, 0);
  EXPECT_EQ(warm.memoEntriesAppended, 0);
  EXPECT_EQ(warm.stats.runsFromMemo, warm.stats.runsRequested);
  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const std::int64_t replays =
      manifest->porReplayEvery > 0
          ? warm.stats.runsFromMemo / manifest->porReplayEvery
          : 0;
  EXPECT_LE(warm.stats.runsExecuted + warm.stats.runsReusedInEngine, replays);
  EXPECT_EQ(warm.report.toJsonString(), cold.report.toJsonString());
}

TEST_F(CampaignTest, QueryAdmissionControl) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);

  // Complete campaign: in-budget queries answer, out-of-budget rejected.
  auto answers = queryCampaign(dir_, {0, 1, 2});
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].admitted);
  EXPECT_EQ(answers[0].latency, 2);  // Lat(FloodSet, 0) = t + 1
  EXPECT_TRUE(answers[0].consensusOk);
  EXPECT_TRUE(answers[1].admitted);
  EXPECT_FALSE(answers[2].admitted);
  EXPECT_NE(answers[2].reason.find("never swept"), std::string::npos);

  // Incomplete campaign: every query is rejected with a resume hint.
  std::string error;
  auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->shards[1].done = false;
  ASSERT_TRUE(manifest->save(dir_ + "/manifest.json", &error)) << error;
  answers = queryCampaign(dir_, {0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_FALSE(answers[0].admitted);
  EXPECT_NE(answers[0].reason.find("incomplete"), std::string::npos);
  EXPECT_NE(answers[0].reason.find("shard 1"), std::string::npos);

  // Missing campaign dir: empty answer set plus an error.
  error.clear();
  EXPECT_TRUE(queryCampaign(dir_ + "/nope", {0}, &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST_F(CampaignTest, SymmetryPorCampaignMatchesUnreducedSweepBitForBit) {
  // A campaign swept under symmetry_por (footprint resolved ONCE into the
  // manifest) must merge to the same report as the unreduced single-process
  // in-memory sweep — the campaign edition of the POR acceptance contract.
  CampaignSpec spec;
  spec.algorithm = "EarlyFloodSetWS";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  spec.reduction = Reduction::kSymmetryPor;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult fromCampaign = runCampaign(spec, options);
  ASSERT_TRUE(fromCampaign.ok) << fromCampaign.error;

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->reduction, Reduction::kSymmetryPor);
  // The flood footprint resolved at campaign creation: D = t + 1.
  EXPECT_EQ(manifest->decisionFixRound, spec.t + 1);

  McCheckOptions whole = manifest->shardOptions(0);
  whole.shard = ShardRange{};
  whole.reduction = Reduction::kNone;
  const McReport inMemory = modelCheckConsensus(
      algorithmByName(spec.algorithm).factory, RoundConfig{spec.n, spec.t},
      manifest->model, whole);
  EXPECT_EQ(fromCampaign.report.toJsonString(), inMemory.toJsonString());

  // The manifest string survives a serde round trip with the POR fields.
  const auto reparsed =
      CampaignManifest::fromJsonString(manifest->toJsonString(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->toJsonString(), manifest->toJsonString());
  EXPECT_EQ(reparsed->reduction, Reduction::kSymmetryPor);

  // Resuming with a different reduction is a spec mismatch, not a silent
  // remix of two disciplines over one memo.
  CampaignSpec other = spec;
  other.reduction = Reduction::kNone;
  const CampaignResult mixed = runCampaign(other, options);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST_F(CampaignTest, PrePorManifestParsesWithLegacyReductionBool) {
  // Manifests written before the "reduction" string key carried only the
  // legacy "symmetry_reduction" bool.  False still loads as the unreduced
  // kNone with every POR field at its default; true meant the retired
  // symmetry-only mode and is refused with an error naming the
  // replacement, not reinterpreted.
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  std::string text = manifest->toJsonString();
  // Strip the modern keys to simulate a pre-POR writer.
  for (const char* key : {"\"reduction\"", "\"decision_fix_round\"",
                          "\"por_replay_every\"", "\"por_reads_all_senders\"",
                          "\"por_read_ids_mask\""}) {
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t end = text.find('\n', at);
    ASSERT_NE(end, std::string::npos) << key;
    std::size_t begin = text.rfind('\n', at);
    ASSERT_NE(begin, std::string::npos) << key;
    text.erase(begin, end - begin);
  }
  EXPECT_FALSE(CampaignManifest::fromJsonString(text, &error).has_value());
  EXPECT_NE(error.find("'symmetry' was retired"), std::string::npos) << error;
  EXPECT_NE(error.find("symmetry_por"), std::string::npos) << error;

  const std::string on = "\"symmetry_reduction\": true";
  const std::size_t at = text.find(on);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, on.size(), "\"symmetry_reduction\": false");
  const auto legacy = CampaignManifest::fromJsonString(text, &error);
  ASSERT_TRUE(legacy.has_value()) << error;
  EXPECT_EQ(legacy->reduction, Reduction::kNone);
  EXPECT_EQ(legacy->decisionFixRound, kNoRound);
  EXPECT_EQ(legacy->porReplayEvery, 0);
  EXPECT_TRUE(legacy->porReadsAllSenders);
  EXPECT_EQ(legacy->porReadIdsMask, 0u);
}

TEST_F(CampaignTest, RunShardMergeShardsContract) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult reference = runCampaign(spec, options);
  ASSERT_TRUE(reference.ok) << reference.error;

  // The public shard API reproduces the campaign result without any
  // orchestrator: run every ShardJob (no memo), merge in range order.
  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  std::vector<McReport> reports;
  for (std::size_t i = 0; i < manifest->shards.size(); ++i)
    reports.push_back(runShard(ShardJob{*manifest, i}, nullptr).report);
  const McReport merged =
      mergeShards(std::move(reports), manifest->maxViolations);
  EXPECT_EQ(merged.toJsonString(), reference.report.toJsonString());
}

}  // namespace
}  // namespace ssvsp
