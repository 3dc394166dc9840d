// The write-ahead journal codec and replay: property-based round-trips
// over arbitrary record sequences, the every-prefix-length replay property
// (any crash point yields a clean prefix), a bit-flip corruption corpus,
// torn-tail truncation on reopen, and the fsync policy matrix on a fake
// clock. The journal is what makes budget spend survive a crash, so the
// codec gets the paranoid treatment: replay must never invent a record and
// never crash, no matter where the file stops or which bit rotted — and a
// payload that passes its CRC but was mutated must replay and recover
// safely too.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dphist/common/binary_io.h"
#include "dphist/common/clock.h"
#include "dphist/data/generators.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"
#include "dphist/sparse/sparse_histogram.h"

namespace dphist {
namespace serve {
namespace {

// --- generators: arbitrary-but-reproducible records from one Rng ---

std::string ArbitraryString(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.NextUint64() % (max_len + 1);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    // Full byte range on purpose: tenant names are caller strings, and the
    // codec must not care about NUL, newline, or high bytes.
    s.push_back(static_cast<char>(rng.NextUint64() & 0xFF));
  }
  return s;
}

double ArbitraryDouble(Rng& rng) {
  switch (rng.NextUint64() % 6) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 1e300;
    case 3:
      return -1e-300;
    default: {
      // A "normal" value with full mantissa entropy.
      const auto bits = rng.NextUint64();
      return static_cast<double>(bits) / 1e9 - 9e9;
    }
  }
}

JournalRecord ArbitraryRecord(Rng& rng) {
  JournalRecord record;
  record.key.tenant = ArbitraryString(rng, 12);
  record.key.dataset = ArbitraryString(rng, 12);
  record.epsilon = ArbitraryDouble(rng);
  if (rng.NextUint64() % 2 == 0) {
    record.type = JournalRecord::Type::kCharge;
    record.parallel = rng.NextUint64() % 2 == 0;
    record.group = ArbitraryString(rng, 8);
    record.label = ArbitraryString(rng, 24);
  } else {
    record.type = JournalRecord::Type::kPublish;
    record.fingerprint = rng.NextUint64();
    record.publisher = ArbitraryString(rng, 16);
    record.seed = rng.NextUint64();
    const std::size_t bins = rng.NextUint64() % 17;
    record.counts.reserve(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      record.counts.push_back(ArbitraryDouble(rng));
    }
  }
  return record;
}

// A full journal byte stream: magic + one frame per record.
std::string EncodeStream(const std::vector<JournalRecord>& records) {
  std::string bytes(JournalMagic());
  for (const JournalRecord& record : records) {
    bytes += EncodeJournalRecord(record);
  }
  return bytes;
}

TEST(JournalCodecTest, RoundTripsArbitraryRecordSequences) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const std::size_t count = 1 + rng.NextUint64() % 40;
    std::vector<JournalRecord> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      records.push_back(ArbitraryRecord(rng));
    }
    auto replayed = ReplayJournalBytes(EncodeStream(records));
    ASSERT_TRUE(replayed.ok()) << "seed " << seed;
    EXPECT_FALSE(replayed.value().truncated()) << "seed " << seed;
    ASSERT_EQ(replayed.value().records.size(), records.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(replayed.value().records[i], records[i])
          << "seed " << seed << " record " << i;
    }
  }
}

TEST(JournalCodecTest, EveryPrefixLengthReplaysToACleanPrefix) {
  // The crash-point property: a crash can stop the file at ANY byte. For
  // every prefix length, replay must succeed and yield exactly the records
  // whose frames are fully contained — a prefix of the original sequence,
  // never a reordered, invented, or half-decoded record.
  Rng rng(20120412);
  std::vector<JournalRecord> records;
  for (std::size_t i = 0; i < 10; ++i) {
    records.push_back(ArbitraryRecord(rng));
  }
  const std::string bytes = EncodeStream(records);

  // Frame boundaries: byte offset after magic and after each frame.
  std::vector<std::size_t> boundaries = {JournalMagic().size()};
  for (const JournalRecord& record : records) {
    boundaries.push_back(boundaries.back() +
                         EncodeJournalRecord(record).size());
  }

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    auto replayed = ReplayJournalBytes(bytes.substr(0, len));
    ASSERT_TRUE(replayed.ok()) << "prefix " << len;
    const ReplayResult& result = replayed.value();
    // Complete frames fully inside the prefix.
    std::size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= len) {
      ++expected;
    }
    ASSERT_EQ(result.records.size(), expected) << "prefix " << len;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(result.records[i], records[i]) << "prefix " << len;
    }
    EXPECT_EQ(result.valid_bytes + result.truncated_bytes, len)
        << "prefix " << len;
    if (len >= JournalMagic().size()) {
      EXPECT_EQ(result.valid_bytes, boundaries[expected])
          << "prefix " << len;
    }
  }
}

TEST(JournalCodecTest, BitFlipCorpusNeverInventsARecord) {
  // Flip every bit of a small stream, one at a time. A flip in the magic
  // is kDataLoss; a flip anywhere else must replay to a (possibly shorter)
  // prefix of the true sequence — single-bit errors are always caught by
  // CRC-32, so a corrupted frame can only truncate, never morph.
  Rng rng(7);
  std::vector<JournalRecord> records;
  for (std::size_t i = 0; i < 4; ++i) {
    records.push_back(ArbitraryRecord(rng));
  }
  const std::string bytes = EncodeStream(records);

  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string corrupted = bytes;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    auto replayed = ReplayJournalBytes(corrupted);
    if (bit / 8 < JournalMagic().size()) {
      ASSERT_FALSE(replayed.ok()) << "bit " << bit;
      EXPECT_EQ(replayed.status().code(), StatusCode::kDataLoss)
          << "bit " << bit;
      continue;
    }
    ASSERT_TRUE(replayed.ok()) << "bit " << bit;
    const std::vector<JournalRecord>& got = replayed.value().records;
    ASSERT_LE(got.size(), records.size()) << "bit " << bit;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], records[i]) << "bit " << bit << " record " << i;
    }
  }
}

TEST(JournalCodecTest, EmptyAndMagicEdgeCases) {
  // Empty input: a journal that never existed.
  auto empty = ReplayJournalBytes("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().records.empty());
  EXPECT_FALSE(empty.value().truncated());

  // A strict prefix of the magic is a crash during journal creation.
  for (std::size_t len = 1; len < JournalMagic().size(); ++len) {
    auto torn = ReplayJournalBytes(std::string(JournalMagic().substr(0, len)));
    ASSERT_TRUE(torn.ok()) << len;
    EXPECT_TRUE(torn.value().records.empty());
    EXPECT_EQ(torn.value().truncated_bytes, len);
  }

  // Anything that is not this journal's magic is unrecoverable.
  auto garbage = ReplayJournalBytes("not a journal, definitely");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kDataLoss);

  // Exactly the magic: a journal that was created and never written.
  auto pristine = ReplayJournalBytes(std::string(JournalMagic()));
  ASSERT_TRUE(pristine.ok());
  EXPECT_TRUE(pristine.value().records.empty());
  EXPECT_FALSE(pristine.value().truncated());
}

// --- file-backed behavior ---

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/dphist_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/events.jnl";
  }

  void TearDown() override {
    std::remove(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  std::string ReadFile() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string dir_;
  std::string path_;
};

TEST_F(JournalFileTest, OpenAppendReplayRoundTrip) {
  Rng rng(11);
  std::vector<JournalRecord> records;
  for (std::size_t i = 0; i < 6; ++i) {
    records.push_back(ArbitraryRecord(rng));
  }
  {
    auto journal = Journal::Open(path_);
    ASSERT_TRUE(journal.ok());
    for (const JournalRecord& record : records) {
      ASSERT_TRUE(journal.value()->Append(record).ok());
    }
    EXPECT_EQ(journal.value()->records_written(), records.size());
  }
  auto replayed = ReplayJournalFile(path_);
  ASSERT_TRUE(replayed.ok());
  EXPECT_FALSE(replayed.value().truncated());
  ASSERT_EQ(replayed.value().records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(replayed.value().records[i], records[i]) << i;
  }
}

TEST_F(JournalFileTest, OpenTruncatesTornTailAndAppendsAfterIt) {
  Rng rng(13);
  const JournalRecord first = ArbitraryRecord(rng);
  const JournalRecord second = ArbitraryRecord(rng);
  {
    auto journal = Journal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(first).ok());
  }
  // Crash mid-write: half a frame lands after the valid record.
  const std::string torn =
      EncodeJournalRecord(second).substr(0, 5);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << torn;
  }
  auto before = ReplayJournalFile(path_);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().truncated());

  // Reopen: the torn tail is cut, and a fresh append lands cleanly where
  // the garbage used to be.
  {
    auto journal = Journal::Open(path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(second).ok());
  }
  auto after = ReplayJournalFile(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().truncated());
  ASSERT_EQ(after.value().records.size(), 2u);
  EXPECT_EQ(after.value().records[0], first);
  EXPECT_EQ(after.value().records[1], second);
}

TEST_F(JournalFileTest, ReplayOfAbsentFileIsEmpty) {
  auto replayed = ReplayJournalFile(dir_ + "/never_created.jnl");
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed.value().records.empty());
}

TEST_F(JournalFileTest, OpenRejectsForeignFile) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "histogram,count\n1,2\n";
  }
  auto journal = Journal::Open(path_);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kDataLoss);
}

// --- fsync policy matrix on an instrumented sink + fake clock ---

class CountingSink final : public JournalSink {
 public:
  Status Append(const void* data, std::size_t size) override {
    bytes.append(static_cast<const char*>(data), size);
    ++appends;
    return Status::Ok();
  }
  Status Sync() override {
    ++syncs;
    return Status::Ok();
  }

  std::string bytes;
  int appends = 0;
  int syncs = 0;
};

TEST(JournalFsyncTest, EveryRecordPolicySyncsPerAppend) {
  auto sink = std::make_unique<CountingSink>();
  CountingSink* raw = sink.get();
  auto journal = Journal::WithSink(std::move(sink));
  ASSERT_TRUE(journal.ok());
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal.value()->Append(ArbitraryRecord(rng)).ok());
  }
  EXPECT_EQ(raw->syncs, 5);
}

TEST(JournalFsyncTest, IntervalPolicySyncsOnFakeClockSchedule) {
  FakeClock clock;
  JournalOptions options;
  options.fsync_policy = FsyncPolicy::kInterval;
  options.fsync_interval = std::chrono::milliseconds(100);
  options.clock = &clock;
  auto sink = std::make_unique<CountingSink>();
  CountingSink* raw = sink.get();
  auto journal = Journal::WithSink(std::move(sink), options);
  ASSERT_TRUE(journal.ok());
  Rng rng(5);

  // First append always syncs (nothing synced yet).
  ASSERT_TRUE(journal.value()->Append(ArbitraryRecord(rng)).ok());
  EXPECT_EQ(raw->syncs, 1);
  // Within the interval: no sync.
  clock.Advance(std::chrono::milliseconds(40));
  ASSERT_TRUE(journal.value()->Append(ArbitraryRecord(rng)).ok());
  EXPECT_EQ(raw->syncs, 1);
  // Interval elapsed: the next append syncs.
  clock.Advance(std::chrono::milliseconds(60));
  ASSERT_TRUE(journal.value()->Append(ArbitraryRecord(rng)).ok());
  EXPECT_EQ(raw->syncs, 2);
}

TEST(JournalFsyncTest, NeverPolicyOnlySyncsManually) {
  JournalOptions options;
  options.fsync_policy = FsyncPolicy::kNever;
  auto sink = std::make_unique<CountingSink>();
  CountingSink* raw = sink.get();
  auto journal = Journal::WithSink(std::move(sink), options);
  ASSERT_TRUE(journal.ok());
  Rng rng(9);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(journal.value()->Append(ArbitraryRecord(rng)).ok());
  }
  EXPECT_EQ(raw->syncs, 0);
  ASSERT_TRUE(journal.value()->Sync().ok());
  EXPECT_EQ(raw->syncs, 1);
}

TEST(JournalFsyncTest, SinkStreamReplaysIdenticallyToFileStream) {
  // The sink seam and the file path must produce byte-identical streams:
  // what the chaos tests capture through a sink is exactly what a real
  // crash would leave on disk.
  auto sink = std::make_unique<CountingSink>();
  CountingSink* raw = sink.get();
  auto journal = Journal::WithSink(std::move(sink));
  ASSERT_TRUE(journal.ok());
  Rng rng(21);
  std::vector<JournalRecord> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(ArbitraryRecord(rng));
    ASSERT_TRUE(journal.value()->Append(records.back()).ok());
  }
  EXPECT_EQ(journal.value()->bytes_written(), raw->bytes.size());
  auto replayed = ReplayJournalBytes(raw->bytes);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(replayed.value().records[i], records[i]) << i;
  }
}

// --- journal payload property test ---
//
// CRC-32 rejects every bit flip of a stored frame before its payload is
// decoded, so a flipped-byte corpus never reaches DecodePayload or
// Recover. This one re-frames each mutated payload with a freshly computed
// CRC, so every mutation reaches both: each stream must replay to records
// (or a typed error), recover into a server holding the original datasets
// with OK or a typed error, and every release it installs must fit its
// dataset and answer the dataset's whole domain.

// The sparse domain is 3 * 2^39: one byte substitution in its top byte
// (0x18 -> 0x01) yields 2^40, a smaller domain that still holds every
// key, which is the shape of a release shorter than its dataset.
constexpr std::uint64_t kPropertySparseDomain = 3ULL << 39;

sparse::SparseHistogram PropertySparseTruth() {
  std::vector<sparse::SparseEntry> entries;
  for (std::uint64_t i = 0; i < 12; ++i) {
    entries.push_back({i * (1ULL << 35) + 3,
                       40.0 + static_cast<double>((i * 7) % 11)});
  }
  auto truth = sparse::SparseHistogram::Create(kPropertySparseDomain,
                                               std::move(entries));
  EXPECT_TRUE(truth.ok()) << truth.status().ToString();
  return std::move(truth).value();
}

std::string Frame(std::string_view payload) {
  std::string frame;
  binio::PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  binio::PutU32(frame, binio::Crc32(payload));
  frame.append(payload);
  return frame;
}

// Replays `bytes` into a fresh server over `dense` and `sparse_truth`, and
// answers [0, domain) from every release the recovery installed.
void RecoverAndAnswerEverything(const std::string& bytes,
                                const Histogram& dense,
                                const sparse::SparseHistogram& sparse_truth,
                                const std::string& context) {
  auto replay = ReplayJournalBytes(bytes);
  if (!replay.ok()) {
    EXPECT_NE(replay.status().code(), StatusCode::kOk) << context;
    return;
  }
  const TenantKey clicks{"acme", "clicks"};
  const TenantKey urls{"acme", "urls"};
  ReleaseServer server{ReleaseServerOptions{}};
  ASSERT_TRUE(server.AddDataset(clicks, dense, 2.0).ok());
  ASSERT_TRUE(server.AddSparseDataset(urls, sparse_truth, 2.0).ok());
  auto stats = server.Recover(replay.value());
  if (!stats.ok()) {
    EXPECT_NE(stats.status().code(), StatusCode::kOk) << context;
  }
  for (const auto& [key, is_sparse, domain] :
       {std::tuple{clicks, false, std::uint64_t{dense.size()}},
        std::tuple{urls, true, kPropertySparseDomain}}) {
    auto newest = server.cache().NewestFor(key, "");
    if (newest != nullptr) {
      EXPECT_EQ(newest->is_sparse(), is_sparse) << context;
      EXPECT_EQ(newest->size(), domain) << context;
    }
  }
  BatchAnswer answer;
  for (const JournalRecord& record : replay.value().records) {
    if (record.type == JournalRecord::Type::kCharge) {
      continue;
    }
    auto ledger = server.LedgerFor(record.key);
    if (!ledger.ok()) {
      continue;  // a mutated namespace: nothing was installed under it
    }
    const std::uint64_t domain =
        record.key.dataset == "urls" ? kPropertySparseDomain : dense.size();
    auto hit = server.TryAnswerCached(
        record.key, {{0, static_cast<std::size_t>(domain)}},
        {record.publisher, record.epsilon, record.seed}, &answer);
    if (!(record.epsilon > 0.0) || !std::isfinite(record.epsilon)) {
      // No request may name a release under such an epsilon, so Recover
      // installed none, and the lookup is refused before it is made.
      EXPECT_EQ(hit.status().code(), StatusCode::kInvalidArgument) << context;
      continue;
    }
    EXPECT_TRUE(hit.ok()) << context << ": " << hit.status().ToString();
  }
}

TEST(JournalPayloadPropertyTest, MutatedPayloadsReplayAndRecoverSafely) {
  const Histogram dense = MakeSearchLogs(32, 1).histogram;
  const sparse::SparseHistogram sparse_truth = PropertySparseTruth();
  auto sink = std::make_unique<CountingSink>();
  CountingSink* captured = sink.get();
  auto journal = Journal::WithSink(std::move(sink));
  ASSERT_TRUE(journal.ok());
  ReleaseServerOptions options;
  options.journal = journal.value().get();
  ReleaseServer live(options);
  ASSERT_TRUE(live.AddDataset({"acme", "clicks"}, dense, 2.0).ok());
  ASSERT_TRUE(
      live.AddSparseDataset({"acme", "urls"}, sparse_truth, 2.0).ok());
  ASSERT_TRUE(live.GetRelease({"acme", "clicks"}, {"noise_first", 0.5, 1})
                  .ok());
  ASSERT_TRUE(live.GetRelease({"acme", "urls"}, {"unknown_domain", 0.5, 1})
                  .ok());
  ASSERT_TRUE(
      live.GetRelease({"acme", "urls"}, {"sparse_pure", 0.5, 2}).ok());

  // Split the journal into its payloads: kCharge, kPublish, kCharge,
  // kPublishSparse, kCharge, kPublishSparse.
  const std::string& bytes = captured->bytes;
  std::vector<std::string> payloads;
  binio::Cursor in{bytes, JournalMagic().size()};
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  while (binio::GetU32(in, &length) && binio::GetU32(in, &crc)) {
    payloads.emplace_back(bytes.substr(in.pos, length));
    in.pos += length;
  }
  ASSERT_EQ(payloads.size(), 6u);
  ASSERT_EQ(payloads[1][0], static_cast<char>(JournalRecord::Type::kPublish));
  ASSERT_EQ(payloads[3][0],
            static_cast<char>(JournalRecord::Type::kPublishSparse));

  // The stream with payload `victim` replaced by `mutated`, re-framed.
  auto stream = [&](std::size_t victim, const std::string& mutated) {
    std::string out(JournalMagic());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      out += Frame(i == victim ? mutated : payloads[i]);
    }
    return out;
  };

  // Every offset of every payload, each substitution byte.
  for (std::size_t victim = 0; victim < payloads.size(); ++victim) {
    for (std::size_t offset = 0; offset < payloads[victim].size(); ++offset) {
      for (const unsigned char byte : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
        std::string mutated = payloads[victim];
        mutated[offset] = static_cast<char>(byte);
        RecoverAndAnswerEverything(
            stream(victim, mutated), dense, sparse_truth,
            "payload " + std::to_string(victim) + " offset " +
                std::to_string(offset) + " byte " + std::to_string(byte));
      }
    }
  }

  // 2000 seeded multi-byte mutations: 2–8 byte substitutions, sometimes a
  // truncation or a few appended bytes, so the payload length moves too.
  Rng rng(20120412);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t victim = rng.NextUint64() % payloads.size();
    std::string mutated = payloads[victim];
    const std::uint64_t substitutions = 2 + rng.NextUint64() % 7;
    for (std::uint64_t k = 0; k < substitutions; ++k) {
      mutated[rng.NextUint64() % mutated.size()] =
          static_cast<char>(rng.NextUint64() & 0xff);
    }
    if (rng.NextUint64() % 4 == 0) {
      mutated.resize(rng.NextUint64() % mutated.size());
    } else if (rng.NextUint64() % 8 == 0) {
      for (std::uint64_t k = 1 + rng.NextUint64() % 16; k > 0; --k) {
        mutated.push_back(static_cast<char>(rng.NextUint64() & 0xff));
      }
    }
    RecoverAndAnswerEverything(stream(victim, mutated), dense, sparse_truth,
                               "trial " + std::to_string(trial));
  }
}

TEST(JournalEnvTest, JournalDirFromEnvReadsVariable) {
  ::unsetenv("DPHIST_JOURNAL_DIR");
  EXPECT_FALSE(JournalDirFromEnv().has_value());
  ::setenv("DPHIST_JOURNAL_DIR", "/var/lib/dphist", 1);
  ASSERT_TRUE(JournalDirFromEnv().has_value());
  EXPECT_EQ(JournalDirFromEnv().value(), "/var/lib/dphist");
  ::unsetenv("DPHIST_JOURNAL_DIR");
}

}  // namespace
}  // namespace serve
}  // namespace dphist
