#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/engine/grouping.h"
#include "src/engine/shuffle.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"
#include "src/storage/serde.h"
#include "src/storage/spill_file.h"
#include "src/storage/wire_run.h"
#include "tests/shuffle_inputs.h"

namespace mrcost::storage {
namespace {

/// Per-process scratch directory; removed by the last test that uses it.
std::string TestDir() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mrcost-storage-test-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(TestDir()) / name).string();
}

// -------------------------------------------------------------- serde

template <typename T>
T RoundTrip(const T& value) {
  std::string bytes;
  SerializeValue(value, bytes);
  const char* p = bytes.data();
  const char* end = p + bytes.size();
  T out{};
  EXPECT_TRUE(DeserializeValue(p, end, out));
  EXPECT_EQ(p, end) << "deserialize must consume every byte";
  return out;
}

TEST(Serde, RoundTripsEngineKeyAndValueTypes) {
  EXPECT_EQ(RoundTrip(std::uint64_t{42}), 42u);
  EXPECT_EQ(RoundTrip(std::int32_t{-7}), -7);
  EXPECT_EQ(RoundTrip(std::string()), "");
  EXPECT_EQ(RoundTrip(std::string("hello")), "hello");
  EXPECT_EQ(RoundTrip(std::string(1000, 'x')), std::string(1000, 'x'));
  EXPECT_EQ(RoundTrip(std::vector<int>{1, 2, 3}),
            (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(RoundTrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}}),
            (std::vector<std::vector<int>>{{1}, {}, {2, 3}}));
  // The join drivers' shuffle value: (atom index, tuple).
  const std::pair<int, std::vector<std::int32_t>> tuple_value{2, {5, -1, 9}};
  EXPECT_EQ(RoundTrip(tuple_value), tuple_value);
  const std::tuple<int, std::string, double> mixed{1, "ab", 2.5};
  EXPECT_EQ(RoundTrip(mixed), mixed);
}

TEST(Serde, TruncatedInputFailsCleanly) {
  std::string bytes;
  SerializeValue(std::pair<std::uint64_t, std::string>{7, "payload"}, bytes);
  // Every strict prefix must fail, never read past `end`, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const char* p = bytes.data();
    const char* end = p + cut;
    std::pair<std::uint64_t, std::string> out;
    EXPECT_FALSE(DeserializeValue(p, end, out)) << "cut=" << cut;
  }
}

TEST(Serde, CorruptVectorCountCannotForceHugeAllocation) {
  std::string bytes;
  SerializeValue(std::vector<int>{1, 2, 3}, bytes);
  // Overwrite the count with a huge value: must fail, not allocate.
  const std::uint64_t huge = ~std::uint64_t{0};
  bytes.replace(0, sizeof(huge),
                reinterpret_cast<const char*>(&huge), sizeof(huge));
  const char* p = bytes.data();
  std::vector<int> out;
  EXPECT_FALSE(DeserializeValue(p, p + bytes.size(), out));
}

// --------------------------------------------------------- spill file

TEST(SpillFile, Crc32KnownAnswer) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SpillFile, BlocksRoundTrip) {
  const std::string path = TestPath("roundtrip.spill");
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->AppendBlock("first block").ok());
  ASSERT_TRUE(writer->AppendBlock(std::string(100000, 'z')).ok());
  ASSERT_TRUE(writer->AppendBlock("").ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_GT(writer->bytes_written(), 100000u);

  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::string payload;
  bool done = false;
  ASSERT_TRUE(reader->Next(payload, done).ok());
  ASSERT_FALSE(done);
  EXPECT_EQ(payload, "first block");
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_EQ(payload, std::string(100000, 'z'));
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_TRUE(done);
}

TEST(SpillFile, MissingFileIsNotFound) {
  auto reader = SpillFileReader::Open(TestPath("does-not-exist.spill"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kNotFound);
}

TEST(SpillFile, BadMagicRejected) {
  const std::string path = TestPath("badmagic.spill");
  std::ofstream(path, std::ios::binary) << "XXXXYYYYsome bytes";
  auto reader = SpillFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SpillFile, TruncatedHeaderAndBlockReturnOutOfRange) {
  const std::string path = TestPath("truncated.spill");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t magic = kSpillMagic;
    out.write(reinterpret_cast<const char*>(&magic), 2);  // half a magic
  }
  auto reader = SpillFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kOutOfRange);

  // A valid header + block, then the file cut mid-payload.
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("a payload that will be cut").ok());
  ASSERT_TRUE(writer->Close().ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  auto cut = SpillFileReader::Open(path);
  ASSERT_TRUE(cut.ok());
  std::string payload;
  bool done = false;
  const auto status = cut->Next(payload, done);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kOutOfRange);
}

TEST(SpillFile, FlippedByteFailsCrc) {
  const std::string path = TestPath("corrupt.spill");
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("sensitive payload bytes").ok());
  ASSERT_TRUE(writer->Close().ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);  // inside the payload
    f.put('!');
  }
  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string payload;
  bool done = false;
  const auto status = reader->Next(payload, done);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInternal);
}

// ----------------------------------------------------- columnar blocks

using testutil::kAllKeyDists;
using testutil::KeyDist;
using testutil::Name;
using testutil::RandomChunks;
using testutil::SlabKey;

TEST(Varint, RoundTripsAndRejectsTruncation) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 44, ~std::uint64_t{0}}) {
    std::string bytes;
    PutVarint(v, bytes);
    const char* p = bytes.data();
    std::uint64_t out = 0;
    ASSERT_TRUE(GetVarint(p, bytes.data() + bytes.size(), out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, bytes.data() + bytes.size());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const char* q = bytes.data();
      EXPECT_FALSE(GetVarint(q, bytes.data() + cut, out)) << "cut=" << cut;
    }
  }
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                               std::int64_t{1}, std::int64_t{1} << 50,
                               -(std::int64_t{1} << 50)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(Codec, Lz77RoundTripsAssortedPayloads) {
  const Codec& lz = Lz77Codec();
  common::SplitMix64 rng(3);
  std::string random_bytes(2000, '\0');
  for (char& c : random_bytes) {
    c = static_cast<char>(rng.UniformBelow(256));
  }
  const std::vector<std::string> payloads = {
      "", "a", "abc", std::string(100000, 'z'),
      "abcabcabcabcabcabcabcabc", random_bytes,
      std::string(17, 'x') + random_bytes + std::string(17, 'x')};
  for (const std::string& raw : payloads) {
    std::string compressed;
    lz.Compress(raw, compressed);
    std::string back;
    ASSERT_TRUE(lz.Decompress(compressed, raw.size(), back).ok());
    EXPECT_EQ(back, raw);
  }
  // Redundant input must actually shrink.
  std::string compressed;
  lz.Compress(std::string(100000, 'z'), compressed);
  EXPECT_LT(compressed.size(), 1000u);
  // Corrupt streams surface a Status, never garbage or a crash.
  lz.Compress("abcabcabcabcabcabcabcabc", compressed);
  std::string back;
  for (std::size_t cut = 0; cut < compressed.size(); ++cut) {
    EXPECT_FALSE(
        lz.Decompress(std::string_view(compressed.data(), cut), 24, back)
            .ok())
        << "cut=" << cut;
  }
}

/// Appends one row in block form: serialized key and value bytes, the
/// key's HashBytes hash (so decoded blocks reproduce it), and `pos`.
void AppendRow(ColumnarRun& run, std::uint64_t key, int value,
               std::uint64_t pos) {
  std::string key_bytes;
  std::string value_bytes;
  SerializeValue(key, key_bytes);
  SerializeValue(value, value_bytes);
  run.Append(RecordView{HashBytes(key_bytes), pos, key_bytes, value_bytes});
}

/// `run`'s rows in spill order (RecordViewLess).
ColumnarRun Sorted(const ColumnarRun& run) {
  std::vector<std::size_t> order(run.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&run](std::size_t a, std::size_t b) {
    return RecordViewLess(run.View(a), run.View(b));
  });
  ColumnarRun sorted;
  for (const std::size_t i : order) sorted.Append(run.View(i));
  return sorted;
}

/// Every pair of RandomChunks(dist, seed), dealt round-robin into
/// `num_runs` sorted runs, positions packed by MakeSpillPos — the rows the
/// engine's spill path would write for those chunks.
std::vector<ColumnarRun> RunsFor(KeyDist dist, std::uint64_t seed,
                                 std::size_t num_runs) {
  std::vector<ColumnarRun> runs(num_runs);
  std::size_t next = 0;
  std::uint32_t chunk_id = 0;
  for (const auto& chunk : RandomChunks(dist, seed)) {
    std::uint64_t local = 0;
    for (const auto& [key, value] : chunk) {
      AppendRow(runs[next++ % num_runs], key, value,
                MakeSpillPos(chunk_id, local++));
    }
    ++chunk_id;
  }
  for (ColumnarRun& run : runs) run = Sorted(run);
  return runs;
}

ColumnarRun RunFor(KeyDist dist, std::uint64_t seed) {
  return std::move(RunsFor(dist, seed, 1)[0]);
}

TEST(BlockCodec, RoundTripsAcrossKeyDistributions) {
  // Every distribution, both codecs: encode the sorted run as one block,
  // decode it, and require every column back exactly — the hash column
  // included, which the decoder recomputes rather than reads.
  for (KeyDist dist : kAllKeyDists) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ColumnarRun run = RunFor(dist, seed);
      for (const Codec* codec : {&IdentityCodec(), &Lz77Codec()}) {
        SCOPED_TRACE(std::string(codec->name()) + " seed=" +
                     std::to_string(seed));
        std::string payload;
        BlockEncodeStats stats;
        EncodeBlock(run, 0, run.rows(), *codec, payload, stats);
        EXPECT_EQ(stats.blocks, 1u);
        ColumnarRun back;
        ASSERT_TRUE(DecodeBlock(payload, back).ok());
        ASSERT_EQ(back.rows(), run.rows());
        for (std::size_t i = 0; i < run.rows(); ++i) {
          ASSERT_EQ(back.hashes[i], run.hashes[i]) << i;
          ASSERT_EQ(back.positions[i], run.positions[i]) << i;
          ASSERT_EQ(back.keys.At(i), run.keys.At(i)) << i;
          ASSERT_EQ(back.values.At(i), run.values.At(i)) << i;
        }
      }
    }
  }
}

TEST(BlockCodec, DictionaryKicksInForLowCardinality) {
  const ColumnarRun same =
      RunFor(KeyDist::kAllSame, 5);
  ASSERT_GT(same.rows(), 2u);
  std::string payload;
  BlockEncodeStats stats;
  EncodeBlock(same, 0, same.rows(), IdentityCodec(), payload, stats);
  EXPECT_EQ(stats.dict_blocks, 1u);
  // One dictionary entry replaces every per-row key: far below raw.
  EXPECT_LT(stats.encoded_bytes,
            same.keys.bytes().size() + same.rows() * 8);

  const ColumnarRun distinct =
      RunFor(KeyDist::kAllDistinct, 5);
  stats = {};
  EncodeBlock(distinct, 0, distinct.rows(), IdentityCodec(), payload,
              stats);
  EXPECT_EQ(stats.dict_blocks, 0u);
}

TEST(BlockCodec, CorruptPayloadSurfacesStatusNotCrash) {
  const ColumnarRun run =
      RunFor(KeyDist::kUniform, 7);
  std::string payload;
  BlockEncodeStats stats;
  EncodeBlock(run, 0, run.rows(), Lz77Codec(), payload, stats);
  ColumnarRun back;
  // Unknown codec id.
  std::string bad = payload;
  bad[0] = 42;
  EXPECT_FALSE(DecodeBlock(bad, back).ok());
  // Every truncation of the payload fails cleanly.
  for (std::size_t cut = 0; cut < payload.size(); cut += 7) {
    EXPECT_FALSE(
        DecodeBlock(std::string_view(payload.data(), cut), back).ok())
        << "cut=" << cut;
  }
  // Bit flips inside the compressed body: either the codec or the body
  // parser must reject or produce a clean decode — never crash. (The CRC
  // frame normally catches these; this exercises the layer below it.)
  for (std::size_t i = 2; i < bad.size(); i += 11) {
    bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    ColumnarRun scratch;
    DecodeBlock(bad, scratch).ok();  // must not crash; status is free
  }
}

TEST(BlockSpill, WriterRoundTripsThroughDiskSource) {
  RunSpiller spiller(TestDir());
  ColumnarRun run = RunFor(KeyDist::kZipf, 11);
  const ColumnarRun expect =
      RunFor(KeyDist::kZipf, 11);
  ASSERT_TRUE(spiller.SpillBlockRun(run, 0).ok());
  EXPECT_TRUE(run.empty()) << "spill consumes the run";
  EXPECT_EQ(spiller.spill_runs(), 1u);
  EXPECT_GT(spiller.bytes_written(), 0u);
  EXPECT_GT(spiller.encode_stats().blocks, 0u);

  DiskBlockRunSource source(spiller.spill_run_paths(0)[0]);
  std::size_t i = 0;
  while (const RecordView* rec = source.Peek()) {
    ASSERT_LT(i, expect.rows());
    EXPECT_EQ(rec->hash, expect.hashes[i]);
    EXPECT_EQ(rec->pos, expect.positions[i]);
    EXPECT_EQ(rec->key, expect.keys.At(i));
    EXPECT_EQ(rec->value, expect.values.At(i));
    source.Advance();
    ++i;
  }
  ASSERT_TRUE(source.status().ok()) << source.status();
  EXPECT_EQ(i, expect.rows());
}

TEST(BlockSpill, TruncatedAndCorruptedRunsSurfaceStatus) {
  // Truncation mid-frame: kOutOfRange from the frame layer.
  RunSpiller spiller(TestDir());
  ColumnarRun run = RunFor(KeyDist::kUniform, 13);
  ASSERT_TRUE(spiller.SpillBlockRun(run, 0).ok());
  const std::string path = spiller.spill_run_paths(0)[0];
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  {
    DiskBlockRunSource source(path);
    while (source.Peek() != nullptr) source.Advance();
    ASSERT_FALSE(source.status().ok());
    EXPECT_EQ(source.status().code(), common::StatusCode::kOutOfRange);
  }
  // A flipped byte inside the compressed frame: the CRC catches it
  // (kInternal) before the codec ever sees the bytes.
  ColumnarRun again = RunFor(KeyDist::kUniform, 13);
  ASSERT_TRUE(spiller.SpillBlockRun(again, 0).ok());
  const std::string path2 = spiller.spill_run_paths(0)[1];
  {
    std::fstream f(path2, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    f.put('!');
  }
  {
    DiskBlockRunSource source(path2);
    while (source.Peek() != nullptr) source.Advance();
    ASSERT_FALSE(source.status().ok());
    EXPECT_EQ(source.status().code(), common::StatusCode::kInternal);
  }
  // A version-1 (serialized values) file fed to the block reader:
  // version mismatch.
  const std::string v1_path = TestPath("v1.spill");
  auto v1 = SpillFileWriter::Create(v1_path, kSpillFormatVersionValues);
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v1->AppendBlock("payload").ok());
  ASSERT_TRUE(v1->Close().ok());
  {
    DiskBlockRunSource source(v1_path);
    EXPECT_EQ(source.Peek(), nullptr);
    EXPECT_EQ(source.status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

/// Per-shard CSR groups restored to first-seen order by each group's
/// first position: the shape SerialShuffle returns.
template <typename Key, typename Value>
engine::ShuffleResult<Key, Value> FirstSeenOrder(
    const std::vector<engine::internal::CsrGroups<Key, Value>>& shards) {
  std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> order;
  for (std::size_t p = 0; p < shards.size(); ++p) {
    for (std::size_t g = 0; g < shards[p].size(); ++g) {
      order.emplace_back(shards[p].first[g], p, g);
    }
  }
  std::sort(order.begin(), order.end());
  engine::ShuffleResult<Key, Value> result;
  for (const auto& [pos, p, g] : order) {
    const auto view = shards[p].group(g);
    result.keys.push_back(shards[p].keys[g]);
    result.groups.emplace_back(view.begin(), view.end());
  }
  return result;
}

/// `rows` of `block` in row order as one run, positions MakeSpillPos(c, r).
template <typename K>
ColumnarRun ChunkRun(const KVBlock<K, int>& block, std::uint32_t c,
                     const std::vector<std::uint32_t>& rows) {
  return RunFromRows(block, rows,
                     [c](std::uint32_t r) { return MakeSpillPos(c, r); });
}

TEST(GroupRuns, MatchesSerialShuffleAcrossDistributions) {
  // The external round's shape: every chunk's rows routed by hash, each
  // shard's rows split into a spilled run (filed under the shard) and an
  // in-memory tail. Grouping each shard's runs in position order, then
  // restoring first-seen order, must reproduce the serial in-memory
  // reference exactly — same keys, same group contents, same order — for
  // every distribution and shard count.
  for (KeyDist dist : kAllKeyDists) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (std::size_t num_shards : {1u, 3u}) {
        SCOPED_TRACE(std::string(Name(dist)) + " seed=" +
                     std::to_string(seed) +
                     " shards=" + std::to_string(num_shards));
        auto chunks = RandomChunks(dist, seed);
        const auto serial = engine::SerialShuffle(chunks);
        chunks = RandomChunks(dist, seed);

        RunSpiller spiller(TestDir());
        // tails[c][p], and whether chunk c spilled a run for shard p.
        std::vector<std::vector<ColumnarRun>> tails(chunks.size());
        std::vector<std::vector<bool>> spilled(chunks.size());
        std::vector<std::uint64_t> shard_rows(num_shards);
        for (std::uint32_t c = 0; c < chunks.size(); ++c) {
          KVBlock<std::uint64_t, int> block;
          for (auto& [key, value] : chunks[c]) block.Append(key, int(value));
          std::vector<std::vector<std::uint32_t>> routed(num_shards);
          for (std::uint32_t r = 0; r < block.rows(); ++r) {
            routed[engine::IndexOfHash(block.hash(r), num_shards)]
                .push_back(r);
          }
          tails[c].resize(num_shards);
          spilled[c].assign(num_shards, false);
          for (std::size_t p = 0; p < num_shards; ++p) {
            const std::vector<std::uint32_t>& rows = routed[p];
            shard_rows[p] += rows.size();
            const std::size_t half = rows.size() / 2;
            if (half > 0) {
              ColumnarRun run = ChunkRun(
                  block, c, {rows.begin(), rows.begin() + half});
              ASSERT_TRUE(
                  spiller.SpillBlockRun(run, static_cast<std::uint32_t>(p))
                      .ok());
              spilled[c][p] = true;
            }
            tails[c][p] = ChunkRun(block, c, {rows.begin() + half, rows.end()});
          }
        }
        std::vector<engine::internal::CsrGroups<std::uint64_t, int>> shards;
        for (std::size_t p = 0; p < num_shards; ++p) {
          const auto paths =
              spiller.spill_run_paths(static_cast<std::uint32_t>(p));
          std::size_t next = 0;
          std::vector<std::unique_ptr<BlockRunSource>> sources;
          for (std::size_t c = 0; c < chunks.size(); ++c) {
            if (spilled[c][p]) {
              sources.push_back(
                  std::make_unique<DiskBlockRunSource>(paths.at(next++)));
            }
            sources.push_back(std::make_unique<MemoryBlockRunSource>(
                std::move(tails[c][p])));
          }
          EXPECT_EQ(next, paths.size());
          auto groups = engine::internal::GroupRuns<std::uint64_t, int>(
              std::move(sources), shard_rows[p]);
          ASSERT_TRUE(groups.ok()) << groups.status();
          shards.push_back(std::move(*groups));
        }
        const auto result = FirstSeenOrder(shards);
        EXPECT_EQ(result.keys, serial.keys);
        EXPECT_EQ(result.groups, serial.groups);
      }
    }
  }
}

/// GroupRows over `keys` dealt round-robin into three blocks (row r of
/// block c at position MakeSpillPos(c, r)) against GroupRuns over the
/// same rows as runs: each block's first half written to disk in frames
/// of a few rows, so keys recur across decoded blocks, and its second
/// half kept in memory.
template <typename K>
void ExpectRunsGroupLikeRows(const std::vector<K>& keys,
                             const std::string& name) {
  std::vector<KVBlock<K, int>> blocks(3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    blocks[i % 3].Append(keys[i], static_cast<int>(i));
  }
  const auto want = engine::internal::GroupRows<K, int>(
      keys.size(),
      [&](auto&& visit) {
        for (std::uint32_t c = 0; c < blocks.size(); ++c) {
          for (std::uint32_t r = 0; r < blocks[c].rows(); ++r) {
            visit(blocks[c], r, MakeSpillPos(c, r));
          }
        }
      },
      [](KVBlock<K, int>& block, std::uint32_t r) { return block.value(r); });

  std::vector<std::unique_ptr<BlockRunSource>> sources;
  for (std::uint32_t c = 0; c < blocks.size(); ++c) {
    std::vector<std::uint32_t> head(blocks[c].rows() / 2);
    std::iota(head.begin(), head.end(), 0u);
    std::vector<std::uint32_t> tail(blocks[c].rows() - head.size());
    std::iota(tail.begin(), tail.end(),
              static_cast<std::uint32_t>(head.size()));
    const std::string path =
        TestPath("group-runs-" + name + "-" + std::to_string(c) + ".run");
    auto writer =
        BlockRunFileWriter::Create(path, nullptr, /*block_bytes=*/64);
    ASSERT_TRUE(writer.ok()) << writer.status();
    const ColumnarRun run = ChunkRun(blocks[c], c, head);
    ASSERT_TRUE(writer->AppendRun(run, 0, run.rows()).ok());
    ASSERT_TRUE(writer->Finish().ok());
    ASSERT_GT(writer->stats().blocks, 2u);
    sources.push_back(std::make_unique<DiskBlockRunSource>(path));
    sources.push_back(
        std::make_unique<MemoryBlockRunSource>(ChunkRun(blocks[c], c, tail)));
  }
  const auto got =
      engine::internal::GroupRuns<K, int>(std::move(sources), keys.size());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->keys, want.keys);
  EXPECT_EQ(got->first, want.first);
  EXPECT_EQ(got->offsets, want.offsets);
  EXPECT_EQ(got->values, want.values);
}

TEST(GroupRuns, MatchesGroupRowsAcrossKeyKinds) {
  // 600 rows, so the slot bound is 600: u64 ids below it take the slot
  // array; ids at or above it, the extremes, negative ids and strings go
  // through the key index, which must keep its own copy of each key —
  // every key recurs after the block that introduced it was overwritten.
  common::SplitMix64 rng(7);
  std::vector<std::uint64_t> ids;
  std::vector<std::int64_t> signed_ids;
  std::vector<std::string> words;
  for (int i = 0; i < 600; ++i) {
    std::uint64_t id = rng.UniformBelow(200);
    switch (rng.UniformBelow(6)) {
      case 0: id = 600 + rng.UniformBelow(30); break;
      case 1: id = UINT64_MAX - rng.UniformBelow(2); break;
      case 2: id = 599; break;
      default: break;
    }
    ids.push_back(id);
    signed_ids.push_back(static_cast<std::int64_t>(rng.UniformBelow(40)) -
                         20);
    words.push_back(i % 5 == 0 ? std::string(40, 'r') + "-recurring"
                               : "w" + std::to_string(rng.UniformBelow(60)));
  }
  ExpectRunsGroupLikeRows(ids, "u64");
  ExpectRunsGroupLikeRows(signed_ids, "i64");
  ExpectRunsGroupLikeRows(words, "string");
}

TEST(GroupRuns, CorruptRunSurfacesStatusNotCrash) {
  // A truncated spill file: the frame layer's kOutOfRange, as a Status.
  RunSpiller spiller(TestDir());
  ColumnarRun run;
  for (int i = 0; i < 50; ++i) {
    AppendRow(run, static_cast<std::uint64_t>(i), i,
              static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(spiller.SpillBlockRun(run, 0).ok());
  const std::string path = spiller.spill_run_paths(0)[0];
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  std::vector<std::unique_ptr<BlockRunSource>> sources;
  sources.push_back(std::make_unique<DiskBlockRunSource>(path));
  auto truncated = engine::internal::GroupRuns<std::uint64_t, int>(
      std::move(sources), 50);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), common::StatusCode::kOutOfRange);

  // Key or value bytes that do not decode: kInternal, never a crash.
  const auto group_one = [](std::string_view key, std::string_view value) {
    ColumnarRun bad;
    bad.Append(RecordView{HashBytes(key), 0, key, value});
    std::vector<std::unique_ptr<BlockRunSource>> one;
    one.push_back(std::make_unique<MemoryBlockRunSource>(std::move(bad)));
    return one;
  };
  std::string u64_key;
  SerializeValue(std::uint64_t{3}, u64_key);
  std::string int_value;
  SerializeValue(7, int_value);
  std::string string_value;
  SerializeValue(std::string("payload"), string_value);
  auto short_key = engine::internal::GroupRuns<std::uint64_t, int>(
      group_one(u64_key.substr(0, 3), int_value), 1);
  ASSERT_FALSE(short_key.ok());
  EXPECT_EQ(short_key.status().code(), common::StatusCode::kInternal);
  auto bad_string_key = engine::internal::GroupRuns<std::string, int>(
      group_one(string_value.substr(0, 5), int_value), 1);
  ASSERT_FALSE(bad_string_key.ok());
  EXPECT_EQ(bad_string_key.status().code(), common::StatusCode::kInternal);
  auto bad_value = engine::internal::GroupRuns<std::uint64_t, std::string>(
      group_one(u64_key, string_value.substr(0, 5)), 1);
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), common::StatusCode::kInternal);
}

TEST(RunSpiller, FilesRunsByShardAndRemovesThemOnDestruction) {
  std::vector<std::string> shard0;
  std::vector<std::string> shard1;
  {
    RunSpiller spiller(TestDir());
    // Registered out of position order: the spiller lists each shard's
    // runs by first position, whichever thread spilled first.
    ColumnarRun run;
    AppendRow(run, 1, 1, 40);
    ASSERT_TRUE(spiller.SpillBlockRun(run, 0).ok());
    AppendRow(run, 2, 2, 50);
    ASSERT_TRUE(spiller.SpillBlockRun(run, 1).ok());
    AppendRow(run, 3, 3, 10);
    ASSERT_TRUE(spiller.SpillBlockRun(run, 0).ok());
    EXPECT_EQ(spiller.spill_runs(), 3u);
    shard0 = spiller.spill_run_paths(0);
    shard1 = spiller.spill_run_paths(1);
    ASSERT_EQ(shard0.size(), 2u);
    ASSERT_EQ(shard1.size(), 1u);
    DiskBlockRunSource first(shard0[0]);
    ASSERT_NE(first.Peek(), nullptr);
    EXPECT_EQ(first.Peek()->pos, 10u);
    EXPECT_TRUE(spiller.spill_run_paths(2).empty());
    for (const auto* paths : {&shard0, &shard1}) {
      for (const std::string& path : *paths) {
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
      }
    }
  }
  for (const auto* paths : {&shard0, &shard1}) {
    for (const std::string& path : *paths) {
      EXPECT_FALSE(std::filesystem::exists(path)) << path;
    }
  }
}

TEST(SpillFile, BlockFormatVersionAcceptedUnknownRejected) {
  const std::string path = TestPath("v2.spill");
  auto writer = SpillFileWriter::Create(path, kSpillFormatVersionBlocks);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), kSpillFormatVersionBlocks);

  auto bad = SpillFileWriter::Create(path, 99);
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(bad->Close().ok());
  auto rejected = SpillFileReader::Open(path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- run order

/// The comparator row sort that ordered spill runs before the radix
/// order: (hash, key bytes, row) via std::sort. The oracle every run
/// SortedRunFromRows builds must match byte for byte.
template <typename Key, typename Value, typename MakePos>
ColumnarRun ComparatorSortedRun(const KVBlock<Key, Value>& block,
                                std::vector<std::uint32_t> rows,
                                MakePos make_pos) {
  std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (block.hash(a) != block.hash(b)) return block.hash(a) < block.hash(b);
    const int c = block.key_bytes(a).compare(block.key_bytes(b));
    if (c != 0) return c < 0;
    return a < b;
  });
  ColumnarRun run;
  for (const std::uint32_t r : rows) {
    run.hashes.push_back(block.hash(r));
    run.positions.push_back(make_pos(r));
    run.keys.Append(block.key_bytes(r));
    run.values.AppendSerialized(block.value(r));
  }
  return run;
}

void ExpectSameRunBytes(const ColumnarRun& got, const ColumnarRun& want) {
  ASSERT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.hashes, want.hashes);
  EXPECT_EQ(got.positions, want.positions);
  EXPECT_EQ(got.keys.bytes(), want.keys.bytes());
  EXPECT_EQ(got.keys.offsets(), want.keys.offsets());
  EXPECT_EQ(got.values.bytes(), want.values.bytes());
  EXPECT_EQ(got.values.offsets(), want.values.offsets());
  std::string got_payload;
  std::string want_payload;
  BlockEncodeStats stats;
  EncodeBlock(got, 0, got.rows(), Lz77Codec(), got_payload, stats);
  EncodeBlock(want, 0, want.rows(), Lz77Codec(), want_payload, stats);
  EXPECT_EQ(got_payload, want_payload);
}

/// `rows` rows over `rows / rows_per_key` distinct keys, each key's rows
/// scattered through the block (emission order is random).
KVBlock<std::uint64_t, std::uint64_t> DensityBlock(std::size_t rows,
                                                   std::size_t rows_per_key,
                                                   std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  const std::uint64_t keys = std::max<std::size_t>(1, rows / rows_per_key);
  KVBlock<std::uint64_t, std::uint64_t> block;
  for (std::size_t i = 0; i < rows; ++i) {
    block.Append(rng.UniformBelow(keys) * 0x9e3779b97f4a7c15ULL, rng.Next());
  }
  return block;
}

TEST(RunOrder, MatchesComparatorSortAtEveryDensity) {
  // 1, 4, 30 and 7,800 rows per key, on blocks below and above the radix
  // cutoff: whole blocks and ranges (the in-process spill), hash-routed
  // shard subsets and a random subset (the multi-process map).
  const auto pos = [](std::uint32_t r) { return MakeSpillPos(3, r); };
  for (const std::size_t rows : {std::size_t{1000}, std::size_t{31200}}) {
    for (const std::size_t per_key : {1, 4, 30, 7800}) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " per_key=" + std::to_string(per_key));
      const auto block = DensityBlock(rows, per_key, rows + per_key);
      std::vector<std::uint32_t> all(rows);
      std::iota(all.begin(), all.end(), 0u);
      ExpectSameRunBytes(
          SortedRunFromBlock(block, 0, rows,
                             [](std::uint32_t j) { return j; }),
          ComparatorSortedRun(block, all,
                              [](std::uint32_t r) { return r; }));
      const std::size_t lo = rows / 3;
      const std::size_t hi = rows - rows / 5;
      std::vector<std::uint32_t> range(all.begin() + lo, all.begin() + hi);
      ExpectSameRunBytes(
          SortedRunFromBlock(block, lo, hi,
                             [&](std::uint32_t j) { return pos(lo + j); }),
          ComparatorSortedRun(block, range, pos));

      constexpr std::size_t kShards = 3;
      std::vector<std::vector<std::uint32_t>> shard_rows(kShards);
      for (const std::uint32_t r : all) {
        shard_rows[engine::IndexOfHash(block.hash(r), kShards)].push_back(r);
      }
      for (const auto& subset : shard_rows) {
        ExpectSameRunBytes(SortedRunFromRows(block, subset, pos),
                           ComparatorSortedRun(block, subset, pos));
      }
      common::SplitMix64 rng(per_key);
      std::vector<std::uint32_t> sparse;
      for (const std::uint32_t r : all) {
        if (rng.Bernoulli(0.4)) sparse.push_back(r);
      }
      ExpectSameRunBytes(SortedRunFromRows(block, sparse, pos),
                         ComparatorSortedRun(block, sparse, pos));
    }
  }
}

TEST(RunOrder, ForcedHashCollisionsOrderByKeyBytes) {
  // AppendRaw with equal hashes on distinct key bytes: 64-bit collisions
  // the emitter's hash never produces on small inputs. Every equal-hash
  // stretch then holds several keys, interleaved in emission order, and
  // must come out ordered by key bytes, then row.
  for (const std::size_t rows : {std::size_t{600}, std::size_t{20000}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    common::SplitMix64 rng(rows);
    KVBlock<std::uint64_t, int> block;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::uint64_t key = rng.UniformBelow(97);
      std::string bytes;
      SerializeValue(key, bytes);
      // Five hash classes; key bytes alone tell the keys apart.
      block.AppendRaw(bytes, 0x5bd1e995ULL * (key % 5),
                      static_cast<int>(i));
    }
    std::vector<std::uint32_t> all(rows);
    std::iota(all.begin(), all.end(), 0u);
    const auto pos = [](std::uint32_t r) { return MakeSpillPos(1, r); };
    const ColumnarRun run = SortedRunFromRows(block, all, pos);
    ExpectSameRunBytes(run, ComparatorSortedRun(block, all, pos));
    for (std::size_t i = 1; i < run.rows(); ++i) {
      ASSERT_TRUE(RecordViewLess(run.View(i - 1), run.View(i))) << i;
    }
  }
}

// ------------------------------------------------------ typed key column

template <typename T>
void ExpectTypedColumnMatchesSlab(const std::vector<T>& keys) {
  static_assert(KVBlock<T, int>::kTypedKeys);
  static_assert(!KVBlock<SlabKey<T>, int>::kTypedKeys);
  KVBlock<T, int> typed;
  KVBlock<SlabKey<T>, int> slab;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    typed.Append(keys[i], static_cast<int>(i));
    slab.Append(SlabKey<T>{keys[i]}, static_cast<int>(i));
  }
  ASSERT_EQ(typed.rows(), keys.size());
  EXPECT_EQ(typed.KeyPayloadBytes(), keys.size() * sizeof(T));
  EXPECT_EQ(typed.CopiedBytes(), slab.CopiedBytes());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string serialized;
    SerializeValue(keys[i], serialized);
    ASSERT_EQ(typed.key_bytes(i), serialized) << i;
    ASSERT_EQ(slab.key_bytes(i), serialized) << i;
    ASSERT_EQ(typed.KeyAt(i), keys[i]) << i;
  }
  EXPECT_EQ(typed.hashes(), slab.hashes());

  // Spill runs and wire frames: a whole block and a hash-routed subset.
  std::vector<std::uint32_t> all(keys.size());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<std::uint32_t> shard;
  for (const std::uint32_t r : all) {
    if (engine::IndexOfHash(typed.hash(r), 3) == 1) shard.push_back(r);
  }
  const auto pos = [](std::uint32_t r) { return MakeSpillPos(2, r); };
  for (const auto* rows : {&all, &shard}) {
    const ColumnarRun got = SortedRunFromRows(typed, *rows, pos);
    const ColumnarRun want = SortedRunFromRows(slab, *rows, pos);
    ExpectSameRunBytes(got, want);
    std::vector<std::string> got_frames;
    std::vector<std::string> want_frames;
    BlockEncodeStats stats;
    EncodeRawRunFrames(got, /*block_bytes=*/256, got_frames, stats);
    EncodeRawRunFrames(want, /*block_bytes=*/256, want_frames, stats);
    EXPECT_EQ(got_frames, want_frames);
  }

  // AppendRaw round-trips the bytes and hash it is given.
  KVBlock<T, int> raw;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    raw.AppendRaw(slab.key_bytes(i), slab.hash(i), static_cast<int>(i));
    ASSERT_EQ(raw.KeyAt(i), keys[i]) << i;
    ASSERT_EQ(raw.key_bytes(i), slab.key_bytes(i)) << i;
    ASSERT_EQ(raw.value(i), static_cast<int>(i)) << i;
  }
  EXPECT_EQ(raw.hashes(), slab.hashes());
}

template <typename T>
std::vector<T> TypedTestKeys(std::uint64_t seed) {
  // Small ids with repeats (reducer ids), both extremes, and random
  // values over the whole range.
  common::SplitMix64 rng(seed);
  std::vector<T> keys = {std::numeric_limits<T>::max(),
                         std::numeric_limits<T>::min(), T{0}, T{1}};
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(rng.Bernoulli(0.7) ? static_cast<T>(rng.UniformBelow(200))
                                      : static_cast<T>(rng.Next()));
  }
  return keys;
}

TEST(TypedKeyColumn, IntegerKeysMatchTheSerializedEncoding) {
  ExpectTypedColumnMatchesSlab(TypedTestKeys<std::uint32_t>(1));
  ExpectTypedColumnMatchesSlab(TypedTestKeys<std::uint64_t>(2));
  ExpectTypedColumnMatchesSlab(TypedTestKeys<int>(3));
}

/// Removes the per-process scratch directory. gtest runs suites in
/// declaration order within a file, so keep this test last.
TEST(ZCleanup, RemoveTestDir) {
  std::error_code ec;
  std::filesystem::remove_all(TestDir(), ec);
  EXPECT_FALSE(ec) << ec.message();
}

}  // namespace
}  // namespace mrcost::storage
