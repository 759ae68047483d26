#include "campaign/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/serde.hpp"

namespace ssvsp {

namespace {

// Log layout: 8-byte magic, then records.  Record frame:
//   u32 bodyLen | body | u64 fnv1a64(body)
// body = u8 type | type-specific payload (RecordWriter encoding).
// Only v2 logs are read; a v1 log is refused — see the version note in
// store.hpp.  Record type 1 was the v1 summary and is never written.
constexpr char kMagicV1[8] = {'S', 'S', 'V', 'S', 'P', 'M', 'L', '1'};
constexpr char kMagicV2[8] = {'S', 'S', 'V', 'S', 'P', 'M', 'L', '2'};
constexpr std::uint8_t kRecFooter = 2;
constexpr std::uint8_t kRecSummaryV2 = 3;  ///< packed MemoKey words

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Frames one record body into `out`.
void frame(std::string& out, const std::string& body) {
  RecordWriter w(out);
  w.putU32(static_cast<std::uint32_t>(body.size()));
  out.append(body);
  w.putU64(fnv1a64(body));
}

/// write() the whole buffer, retrying partial writes.  O_APPEND makes each
/// write() an atomic append; a batch is one call in the common case, so
/// concurrent writers interleave between batches, never inside records.
bool writeAll(int fd, std::string_view bytes, std::string* error) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return setError(error, std::string("memo store write: ") +
                                 std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::unique_ptr<MemoStore> MemoStore::open(const std::string& path,
                                           std::string* error) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    setError(error, "memo store open '" + path + "': " + std::strerror(errno));
    return nullptr;
  }
  std::unique_ptr<MemoStore> store(new MemoStore(path, fd));

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    setError(error, "memo store stat: " + std::string(std::strerror(errno)));
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  store->replayed_ = sizeof(kMagicV2);
  if (size == 0) {
    // Fresh log: write the header now so readers can always demand it.
    if (!writeAll(fd, std::string_view(kMagicV2, sizeof(kMagicV2)), error))
      return nullptr;
    return store;
  }
  char magic[sizeof(kMagicV2)] = {};
  if (size < sizeof(kMagicV2) ||
      ::pread(fd, magic, sizeof(magic), 0) != sizeof(magic)) {
    setError(error, "memo store '" + path + "': truncated header");
    return nullptr;
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    setError(error,
             "memo store '" + path + "': " +
                 (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0
                      ? "v1 log (SSVSPML1) is no longer readable; delete "
                        "it and re-run the campaign to rebuild a v2 store"
                      : "bad magic"));
    return nullptr;
  }
  if (!store->replay(size, &store->openStats_, error)) return nullptr;
  // Whatever each writer replayed past its last footer is unsealed.
  // (Torn-tail records never count: replay stops before tallying them, and
  // the truncation below removes them.)
  for (const auto& [writer, open] : store->openSegment_)
    store->openStats_.entriesUnfooted += open;

  if (store->replayed_ < size) {
    store->openStats_.bytesTruncated =
        static_cast<std::int64_t>(size - store->replayed_);
    if (::ftruncate(fd, static_cast<off_t>(store->replayed_)) != 0) {
      setError(error,
               "memo store repair: " + std::string(std::strerror(errno)));
      return nullptr;
    }
  }
  return store;
}

bool MemoStore::catchUp(std::string* error) {
  OBS_SPAN("campaign.catch_up");
  struct stat st{};
  if (::fstat(fd_, &st) != 0)
    return setError(error,
                    "memo store stat: " + std::string(std::strerror(errno)));
  [[maybe_unused]] const std::size_t from = replayed_;
  OpenStats tally;
  const bool ok = replay(static_cast<std::size_t>(st.st_size), &tally, error);
  OBS_COUNTER_ADD("campaign.memo_caught_up", tally.entriesLoaded);
  OBS_HISTOGRAM("campaign.catch_up_bytes",
                static_cast<std::int64_t>(replayed_ - from));
  return ok;
}

bool MemoStore::replay(std::size_t size, OpenStats* tally,
                       std::string* error) {
  if (size <= replayed_) return true;
  // Map from the page holding replayed_: earlier frames are never touched
  // again.  Record data is only trusted after its frame checksum verifies.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t base = replayed_ - replayed_ % page;
  void* map = ::mmap(nullptr, size - base, PROT_READ, MAP_PRIVATE, fd_,
                     static_cast<off_t>(base));
  if (map == MAP_FAILED)
    return setError(error,
                    "memo store mmap: " + std::string(std::strerror(errno)));
  const std::string_view bytes(static_cast<const char*>(map), size - base);
  bool ok = true;
  std::size_t off = replayed_ - base;  ///< just past the last intact frame
  while (off < bytes.size()) {
    RecordReader probe(bytes.substr(off));
    const std::string_view body = probe.getBytes();
    const std::uint64_t checksum = probe.getU64();
    if (!probe.ok() || checksum != fnv1a64(body)) break;  // torn or in flight
    RecordReader rec(body);
    const std::uint8_t type = rec.getU8();
    if (type == kRecSummaryV2) {
      const std::string_view keyBytes = rec.getBytes();
      const std::uint32_t writer = rec.getU32();
      RunSummary summary;
      summary.latency = rec.getI32();
      summary.consensusOk = rec.getU8() != 0;
      if (!rec.ok() || !rec.exhausted()) break;  // torn tail
      MemoKey key;
      if (!MemoKey::fromBytes(keyBytes, &key)) {
        // The frame checksum verified, so this is not a torn write: the
        // record is well-formed bytes holding a malformed key.  Like a
        // footer-count mismatch, that is damage we must not repair away.
        ok = setError(error, "memo store '" + path_ +
                                 "': undecodable summary key (log damaged)");
        break;
      }
      RunMemo::insert(key, summary);
      ++openSegment_[writer];
      ++tally->entriesLoaded;
    } else if (type == kRecFooter) {
      const std::uint32_t writer = rec.getU32();
      const std::int64_t count = rec.getI64();
      if (!rec.ok() || !rec.exhausted()) break;
      if (openSegment_[writer] != count) {
        // A checksum-valid footer disagreeing with the replayed count is
        // damage in the MIDDLE of the log, not a torn tail — records
        // before it were silently lost, so refuse the store.
        ok = setError(error, "memo store '" + path_ +
                                 "': footer count mismatch (log damaged)");
        break;
      }
      openSegment_[writer] = 0;
      ++tally->footersSeen;
    } else {
      break;  // unknown type: treat as torn tail
    }
    off += probe.pos();
  }
  replayed_ = base + off;
  ::munmap(map, size - base);
  return ok;
}

MemoStore::~MemoStore() {
  flush(/*sync=*/false);
  if (fd_ >= 0) ::close(fd_);
}

std::uint32_t MemoStore::currentWriterId() {
  // Derived lazily, at first use, so a handle inherited across fork() stamps
  // records with the CHILD's identity, not the parent's.  The time mix keeps
  // recycled pids from colliding across invocations (a collision would only
  // risk a false footer-count mismatch, never bad data).
  if (writerId_ == 0)
    writerId_ = static_cast<std::uint32_t>(::getpid()) ^
                (static_cast<std::uint32_t>(::time(nullptr)) << 16);
  return writerId_;
}

void MemoStore::insert(const MemoKey& key, const RunSummary& summary) {
  RunMemo::insert(key, summary);
  std::string body;
  RecordWriter w(body);
  w.putU8(kRecSummaryV2).putBytes(key.bytes()).putU32(currentWriterId());
  w.putI32(summary.latency).putU8(summary.consensusOk ? 1 : 0);
  std::lock_guard<std::mutex> lock(pendingMu_);
  frame(pending_, body);
  ++entriesAppended_;
  ++entriesInSegment_;
}

bool MemoStore::flush(bool sync, std::string* error) {
  std::string batch;
  {
    std::lock_guard<std::mutex> lock(pendingMu_);
    batch.swap(pending_);
  }
  if (!batch.empty() && !writeAll(fd_, batch, error)) return false;
  if (sync && ::fdatasync(fd_) != 0)
    return setError(error,
                    "memo store sync: " + std::string(std::strerror(errno)));
  return true;
}

bool MemoStore::appendFooter(std::string* error) {
  {
    std::lock_guard<std::mutex> lock(pendingMu_);
    if (entriesInSegment_ == 0) return true;  // empty segment: nothing to seal
  }
  if (!flush(/*sync=*/true, error)) return false;
  std::string body;
  RecordWriter w(body);
  std::int64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(pendingMu_);
    count = entriesInSegment_;
    entriesInSegment_ = 0;
  }
  w.putU8(kRecFooter).putU32(currentWriterId()).putI64(count);
  std::string batch;
  frame(batch, body);
  if (!writeAll(fd_, batch, error)) return false;
  if (::fdatasync(fd_) != 0)
    return setError(error,
                    "memo store sync: " + std::string(std::strerror(errno)));
  return true;
}

namespace {

/// Writer id stamped on every record of a compacted segment.  A constant —
/// not pid-derived — so compacting the same store twice produces identical
/// bytes.  Collision with a live writer id is harmless (writer ids only
/// scope footer counts, and a compacted log has exactly one footer).
constexpr std::uint32_t kCompactedWriterId = 1;

bool fsyncPath(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return setError(error, "compact open '" + path + "' for fsync: " +
                               std::strerror(errno));
  const bool ok = ::fsync(fd) == 0;
  const int saved = errno;
  ::close(fd);
  if (!ok)
    return setError(error,
                    "compact fsync '" + path + "': " + std::strerror(saved));
  return true;
}

}  // namespace

bool compactMemoStore(const std::string& path, bool force,
                      CompactStats* stats, std::string* error) {
  std::string bytes(kMagicV2, sizeof(kMagicV2));
  CompactStats out;
  {
    // open() replays (repairing any torn tail in place) and deduplicates:
    // RunMemo keeps one summary per canonical key no matter how many
    // writers logged it.
    std::unique_ptr<MemoStore> store = MemoStore::open(path, error);
    if (store == nullptr) return false;
    out.entriesBefore = store->openStats().entriesLoaded;
    out.footersBefore = store->openStats().footersSeen;
    out.entriesUnfooted = store->openStats().entriesUnfooted;
    if (out.entriesUnfooted > 0 && !force) {
      if (stats != nullptr) *stats = out;
      return setError(
          error, "memo store '" + path + "': " +
                     std::to_string(out.entriesUnfooted) +
                     " record(s) past the last footer — a campaign may "
                     "still be appending, or a writer died mid-shard; "
                     "pass --force to compact anyway");
    }

    struct Entry {
      MemoKey key;
      RunSummary summary;
    };
    std::vector<Entry> entries;
    entries.reserve(static_cast<std::size_t>(store->size()));
    store->forEach([&](const MemoKey& key, const RunSummary& summary) {
      entries.push_back({key, summary});
    });
    // Sort by key bytes: shard iteration order is hash-table internals, and
    // a deterministic log means compacting twice is byte-idempotent.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.key.bytes() < b.key.bytes();
              });

    for (const Entry& e : entries) {
      std::string body;
      RecordWriter w(body);
      w.putU8(kRecSummaryV2).putBytes(e.key.bytes());
      w.putU32(kCompactedWriterId);
      w.putI32(e.summary.latency).putU8(e.summary.consensusOk ? 1 : 0);
      frame(bytes, body);
    }
    std::string footer;
    RecordWriter w(footer);
    w.putU8(kRecFooter).putU32(kCompactedWriterId);
    w.putI64(static_cast<std::int64_t>(entries.size()));
    frame(bytes, footer);
    out.entriesAfter = static_cast<std::int64_t>(entries.size());
  }  // close the store's descriptor before swapping the file under it

  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    return setError(error,
                    "compact stat '" + path + "': " + std::strerror(errno));
  out.bytesBefore = static_cast<std::int64_t>(st.st_size);
  out.bytesAfter = static_cast<std::int64_t>(bytes.size());

  // Temp + fsync + rename: the old log stays intact until the new one is
  // durable, and readers never observe a half-written store.
  const std::string tmp = path + ".compact.tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return setError(error,
                    "compact open '" + tmp + "': " + std::strerror(errno));
  if (!writeAll(fd, bytes, error)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    setError(error, "compact fsync: " + std::string(std::strerror(errno)));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    setError(error, "compact rename '" + tmp + "' -> '" + path +
                        "': " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  if (!fsyncPath(dir, error)) return false;

  if (stats != nullptr) *stats = out;
  return true;
}

}  // namespace ssvsp
