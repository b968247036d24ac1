/**
 * @file
 * Tests of the columnar compressed trace format (v2) and its companions:
 * the LZ block codec, every reader's transparent v2 decode, the v1
 * block-index footer, the process-wide decode cache, the checkpointed
 * value-log sidecar, and — the contract the whole format hangs on —
 * bit-identical slices from v1 and v2 files of the same recording.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "support/lz.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "trace/columnar.hh"
#include "trace/criteria.hh"
#include "trace/trace_file.hh"
#include "trace/value_log.hh"

#ifndef WEBSLICE_SOURCE_DIR
#error "tests/CMakeLists.txt must define WEBSLICE_SOURCE_DIR"
#endif

namespace webslice {
namespace trace {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

std::string
tempPath(const char *stem)
{
    return std::string(::testing::TempDir()) + stem;
}

/**
 * A record stream exercising every column: monotone and jumpy deltas,
 * every kind, both flags, real registers and kNoReg.
 */
Record
makeRecord(size_t i)
{
    Record rec;
    rec.pc = static_cast<Pc>(0x1000 + 4 * (i % 1000));
    rec.addr = (i % 7 == 0) ? 0x7fff00000000ull + i * 4096
                            : 0x10000000ull + i;
    rec.aux = static_cast<uint32_t>(i % 9);
    rec.tid = static_cast<ThreadId>(i % 3);
    rec.kind = static_cast<RecordKind>(i % 12);
    rec.flags = static_cast<uint8_t>(i % 4);
    rec.rr0 = (i % 5 == 0) ? kNoReg : static_cast<RegId>(i % 64);
    rec.rr1 = (i % 11 == 0) ? static_cast<RegId>((i + 7) % 64) : kNoReg;
    rec.rr2 = (i % 31 == 0) ? static_cast<RegId>((i + 3) % 64) : kNoReg;
    rec.rw = static_cast<RegId>((i + 1) % 64);
    return rec;
}

/**
 * Field-wise, never memcmp: the 32-byte Record carries 4 bytes of
 * struct padding whose content v1 files do not define.
 */
void
expectSameRecord(const Record &a, const Record &b, size_t i)
{
    ASSERT_TRUE(a.addr == b.addr && a.pc == b.pc && a.aux == b.aux &&
                a.tid == b.tid && a.kind == b.kind &&
                a.flags == b.flags && a.rr0 == b.rr0 && a.rr1 == b.rr1 &&
                a.rr2 == b.rr2 && a.rw == b.rw)
        << "record " << i << " differs";
}

void
expectSameRecords(std::span<const Record> a, std::span<const Record> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameRecord(a[i], b[i], i);
}

uint64_t
counterValue(const char *name)
{
    return MetricRegistry::global().counter(name).value();
}

// ---- LZ codec --------------------------------------------------------------

TEST(LzCodec, RoundTripsVariedPayloads)
{
    std::mt19937_64 prng(7);
    std::vector<std::vector<uint8_t>> payloads;
    payloads.push_back({});                               // empty
    payloads.push_back({0x42});                           // single byte
    payloads.push_back(std::vector<uint8_t>(100000, 0x00)); // one run
    {
        std::vector<uint8_t> repetitive;                  // small period
        for (size_t i = 0; i < 70000; ++i)
            repetitive.push_back(static_cast<uint8_t>(i % 13));
        payloads.push_back(std::move(repetitive));
    }
    {
        std::vector<uint8_t> random_bytes;                // incompressible
        for (size_t i = 0; i < 65536; ++i)
            random_bytes.push_back(static_cast<uint8_t>(prng()));
        payloads.push_back(std::move(random_bytes));
    }
    {
        std::vector<uint8_t> mixed;                       // runs + noise
        for (size_t i = 0; i < 50000; ++i)
            mixed.push_back(prng() % 3 ? 0xAB
                                       : static_cast<uint8_t>(prng()));
        payloads.push_back(std::move(mixed));
    }

    for (const auto &payload : payloads) {
        std::vector<uint8_t> compressed;
        lzCompress(payload.data(), payload.size(), compressed);
        std::vector<uint8_t> decoded(payload.size());
        ASSERT_TRUE(lzDecompress(compressed.data(), compressed.size(),
                                 decoded.data(), decoded.size()));
        EXPECT_EQ(decoded, payload);
    }
}

TEST(LzCodec, CompressesRepetitiveInput)
{
    std::vector<uint8_t> payload(1 << 16, 0x5A);
    std::vector<uint8_t> compressed;
    lzCompress(payload.data(), payload.size(), compressed);
    EXPECT_LT(compressed.size(), payload.size() / 16);
}

TEST(LzCodec, RejectsTruncationAndWrongSize)
{
    std::vector<uint8_t> payload;
    for (size_t i = 0; i < 10000; ++i)
        payload.push_back(static_cast<uint8_t>(i % 29));
    std::vector<uint8_t> compressed;
    lzCompress(payload.data(), payload.size(), compressed);

    std::vector<uint8_t> decoded(payload.size());
    // Truncated stream: cannot produce the promised byte count.
    EXPECT_FALSE(lzDecompress(compressed.data(), compressed.size() / 2,
                              decoded.data(), decoded.size()));
    // Empty stream for a non-empty destination.
    EXPECT_FALSE(lzDecompress(compressed.data(), 0, decoded.data(),
                              decoded.size()));
    // Wrong destination size: stream must decode to exactly dst_size.
    std::vector<uint8_t> short_dst(payload.size() - 1);
    EXPECT_FALSE(lzDecompress(compressed.data(), compressed.size(),
                              short_dst.data(), short_dst.size()));
}

/**
 * Hand-built LZ stream: one sequence per call, in the codec's format,
 * so the tests can aim at exact offsets, lengths and positions.
 */
struct LzStream
{
    std::vector<uint8_t> bytes;

    void
    length(size_t len)
    {
        while (len >= 255) {
            bytes.push_back(255);
            len -= 255;
        }
        bytes.push_back(static_cast<uint8_t>(len));
    }

    /** Literals, then a match of `match_len` (>= 4) at `offset`. */
    void
    sequence(const std::vector<uint8_t> &literals, size_t offset,
             size_t match_len)
    {
        const size_t code = match_len - 4;
        bytes.push_back(static_cast<uint8_t>(
            (std::min<size_t>(literals.size(), 15) << 4) |
            std::min<size_t>(code, 15)));
        if (literals.size() >= 15)
            length(literals.size() - 15);
        bytes.insert(bytes.end(), literals.begin(), literals.end());
        bytes.push_back(static_cast<uint8_t>(offset & 0xFF));
        bytes.push_back(static_cast<uint8_t>(offset >> 8));
        if (code >= 15)
            length(code - 15);
    }

    /** The match-less final token and its literals. */
    void
    finish(const std::vector<uint8_t> &literals)
    {
        bytes.push_back(static_cast<uint8_t>(
            std::min<size_t>(literals.size(), 15) << 4));
        if (literals.size() >= 15)
            length(literals.size() - 15);
        bytes.insert(bytes.end(), literals.begin(), literals.end());
    }
};

/** Byte-at-a-time reference of what a sequence appends to `out`. */
void
replay(std::vector<uint8_t> &out, const std::vector<uint8_t> &literals,
       size_t offset, size_t match_len)
{
    out.insert(out.end(), literals.begin(), literals.end());
    for (size_t i = 0; i < match_len; ++i)
        out.push_back(out[out.size() - offset]);
}

std::vector<uint8_t>
bytesFrom(size_t n, uint8_t seed)
{
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(seed + 37 * i + (i >> 3));
    return out;
}

/** Decode `stream` to exactly expect.size() bytes and compare. */
void
expectDecodes(const LzStream &stream, const std::vector<uint8_t> &expect,
              const std::string &what)
{
    std::vector<uint8_t> got(expect.size());
    ASSERT_TRUE(lzDecompress(stream.bytes.data(), stream.bytes.size(),
                             got.data(), got.size()))
        << what;
    ASSERT_EQ(got, expect) << what;
    // Every proper prefix of the stream is a truncation.
    for (size_t n = 0; n < stream.bytes.size(); ++n)
        ASSERT_FALSE(lzDecompress(stream.bytes.data(), n, got.data(),
                                  got.size()))
            << what << ", truncated to " << n << " bytes";
}

TEST(LzCodec, OverlappingMatchesAtShortAndWordOffsets)
{
    // Offsets 1-7 replay a period shorter than a word; 8-16 copy whole
    // words that overlap the bytes they write. Each match is followed
    // by enough literals that the word-copy path has its room.
    for (size_t offset = 1; offset <= 16; ++offset) {
        for (const size_t match_len :
             {4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100}) {
            LzStream stream;
            std::vector<uint8_t> expect;
            const auto seed = bytesFrom(offset, static_cast<uint8_t>(offset));
            stream.sequence(seed, offset, match_len);
            replay(expect, seed, offset, match_len);
            const auto tail = bytesFrom(24, 3);
            stream.finish(tail);
            expect.insert(expect.end(), tail.begin(), tail.end());
            expectDecodes(stream, expect,
                          "offset " + std::to_string(offset) + " length " +
                              std::to_string(match_len));
        }
    }
}

TEST(LzCodec, MatchesEndingAtAndNearTheDestinationEnd)
{
    // A match ends 0..12 bytes before dst_size: the last few leave no
    // room for a word copy's overshoot and must take the exact path.
    for (size_t offset : {1, 3, 8, 13}) {
        for (size_t trailing = 0; trailing <= 12; ++trailing) {
            LzStream stream;
            std::vector<uint8_t> expect;
            const auto seed = bytesFrom(16, 7);
            stream.sequence(seed, offset, 21);
            replay(expect, seed, offset, 21);
            const auto tail = bytesFrom(trailing, 9);
            stream.finish(tail);
            expect.insert(expect.end(), tail.begin(), tail.end());
            expectDecodes(stream, expect,
                          "offset " + std::to_string(offset) +
                              ", trailing " + std::to_string(trailing));
            // One byte short of the destination: never a silent fit.
            std::vector<uint8_t> short_dst(expect.size() - 1);
            EXPECT_FALSE(lzDecompress(stream.bytes.data(),
                                      stream.bytes.size(),
                                      short_dst.data(), short_dst.size()));
        }
    }
}

TEST(LzCodec, LiteralRunsEndingNearTheStreamEnd)
{
    // Literal runs that end within 16 bytes of the stream's end cannot
    // be copied as one 16-byte word; the final run, and a run followed
    // only by its match's offset and the final token, both check that.
    for (size_t run = 0; run <= 40; ++run) {
        {
            LzStream stream;
            const auto literals = bytesFrom(run, 11);
            stream.finish(literals);
            expectDecodes(stream, literals,
                          "final run " + std::to_string(run));
        }
        {
            LzStream stream;
            std::vector<uint8_t> expect;
            const auto literals = bytesFrom(run + 1, 5);
            stream.sequence(literals, 1, 4);
            replay(expect, literals, 1, 4);
            stream.finish({});
            expectDecodes(stream, expect,
                          "run " + std::to_string(run + 1) +
                              " before a closing match");
        }
    }
}

TEST(LzCodec, LengthsAtTheExtensionBoundaries)
{
    // The 4-bit nibble saturates at 15, then one extension byte covers
    // up to 15 + 254 and a 255 byte continues into a second one.
    for (const size_t literal_len :
         {0, 14, 15, 16, 268, 269, 270, 271, 524, 525, 526}) {
        for (const size_t match_code :
             {0, 14, 15, 16, 268, 269, 270, 271, 524, 525}) {
            const size_t match_len = match_code + 4;
            LzStream stream;
            std::vector<uint8_t> expect;
            const auto literals =
                bytesFrom(std::max<size_t>(literal_len, 1), 1);
            stream.sequence(literals, 1, match_len);
            replay(expect, literals, 1, match_len);
            const auto tail = bytesFrom(literal_len, 2);
            stream.finish(tail);
            expect.insert(expect.end(), tail.begin(), tail.end());
            std::vector<uint8_t> got(expect.size());
            ASSERT_TRUE(lzDecompress(stream.bytes.data(),
                                     stream.bytes.size(), got.data(),
                                     got.size()))
                << "literals " << literal_len << " match " << match_len;
            ASSERT_EQ(got, expect);
        }
    }
    // The compressor emits the same boundaries: runs of incompressible
    // bytes and of one repeated byte, sized around each boundary.
    std::mt19937_64 prng(11);
    for (const size_t n : {14, 15, 16, 19, 20, 268, 269, 270, 271, 273,
                           274, 275, 524, 525, 526, 529}) {
        std::vector<uint8_t> noise(n), run(n, 0x77);
        for (auto &b : noise)
            b = static_cast<uint8_t>(prng());
        for (const auto *payload : {&noise, &run}) {
            std::vector<uint8_t> compressed;
            lzCompress(payload->data(), payload->size(), compressed);
            EXPECT_LE(compressed.size(), lzCompressBound(payload->size()));
            std::vector<uint8_t> decoded(payload->size());
            ASSERT_TRUE(lzDecompress(compressed.data(), compressed.size(),
                                     decoded.data(), decoded.size()));
            EXPECT_EQ(decoded, *payload) << "size " << n;
        }
    }
}

TEST(LzCodec, EveryTruncationOfACompressedStreamFails)
{
    std::vector<uint8_t> payload;
    std::mt19937_64 prng(5);
    for (size_t i = 0; i < 3000; ++i)
        payload.push_back(prng() % 4 ? static_cast<uint8_t>(i % 23)
                                     : static_cast<uint8_t>(prng()));
    std::vector<uint8_t> compressed;
    lzCompress(payload.data(), payload.size(), compressed);
    std::vector<uint8_t> decoded(payload.size());
    for (size_t n = 0; n < compressed.size(); ++n)
        ASSERT_FALSE(lzDecompress(compressed.data(), n, decoded.data(),
                                  decoded.size()))
            << "truncated to " << n << " of " << compressed.size();
    ASSERT_TRUE(lzDecompress(compressed.data(), compressed.size(),
                             decoded.data(), decoded.size()));
    EXPECT_EQ(decoded, payload);
}

// ---- golden bytes ------------------------------------------------------------

uint64_t
fileFnv(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    return fnv1a64(bytes.data(), bytes.size());
}

TEST(TraceV2, GoldenBytesOfACheckedInScenario)
{
    // The encoder's output is part of the file format: the same records
    // must always encode to the same bytes. The constant is the FNV-1a
    // of this recording as the encoder wrote it before its kernels were
    // rewritten; any change to the column layout or the LZ parse
    // (hash, greedy matching, table seeding) moves it.
    constexpr uint64_t kGoldenFnv = 0x5b5a2efc791b5b97ull;
    constexpr uint64_t kGoldenBytes = 3499343;
    const auto run = scenario::runScenario(scenario::parseScenarioFile(
        std::string(WEBSLICE_SOURCE_DIR) + "/scenarios/amazon_mobile.scn"));

    // Record by record, as webslice-scenario does.
    const std::string path = tempPath("golden.trc");
    {
        TraceWriter writer(path, /*block_index=*/true, TraceFormat::V2);
        for (const auto &rec : run.records())
            writer.append(rec);
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<uint64_t>(in.tellg()), kGoldenBytes);
    EXPECT_EQ(fileFnv(path), kGoldenFnv);
    std::remove(path.c_str());
}

// ---- v2 write + whole-file load --------------------------------------------

TEST(TraceV2, SniffsBothFormats)
{
    const std::string v1 = tempPath("sniff_v1.trc");
    const std::string v2 = tempPath("sniff_v2.trc");
    const std::vector<Record> one{makeRecord(0)};
    saveTrace(v1, one, TraceFormat::V1);
    saveTrace(v2, one, TraceFormat::V2);
    EXPECT_EQ(sniffTraceFormat(v1), TraceFormat::V1);
    EXPECT_EQ(sniffTraceFormat(v2), TraceFormat::V2);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

TEST(TraceV2, MultiBlockRoundTrip)
{
    // Spans two full blocks plus a partial third, so both the cross-block
    // delta checkpoints and the short tail block are exercised.
    const std::string path = tempPath("v2_roundtrip.trc");
    std::vector<Record> records;
    const size_t count = 2 * kTraceIndexBlockRecords + 4321;
    for (size_t i = 0; i < count; ++i)
        records.push_back(makeRecord(i));
    saveTrace(path, records, TraceFormat::V2);

    expectSameRecords(records, loadTrace(path));
    std::remove(path.c_str());
}

TEST(TraceV2, EmptyTrace)
{
    const std::string path = tempPath("v2_empty.trc");
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2);
    }
    EXPECT_EQ(sniffTraceFormat(path), TraceFormat::V2);
    EXPECT_TRUE(loadTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceV2, WriterCountsAndCompresses)
{
    const std::string path = tempPath("v2_size.trc");
    std::vector<Record> records;
    for (size_t i = 0; i < kTraceIndexBlockRecords; ++i)
        records.push_back(makeRecord(i));
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2);
        for (const auto &rec : records)
            writer.append(rec);
        EXPECT_EQ(writer.count(), records.size());
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto v2_bytes = static_cast<uint64_t>(in.tellg());
    const uint64_t v1_bytes = 16 + records.size() * sizeof(Record);
    // The synthetic stream is more regular than a real trace, but the 4x
    // CI floor must hold here too.
    EXPECT_LT(v2_bytes * 4, v1_bytes);
    std::remove(path.c_str());
}

TEST(TraceV2, AtomicWriterPublishesOnCloseOnly)
{
    const std::string path = tempPath("v2_atomic.trc");
    std::remove(path.c_str());
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2,
                           /*atomic=*/true);
        for (size_t i = 0; i < 100; ++i)
            writer.append(makeRecord(i));
        // Not yet renamed into place: the final name must not exist.
        std::ifstream probe(path, std::ios::binary);
        EXPECT_FALSE(probe.good());
        writer.close();
    }
    EXPECT_EQ(loadTrace(path).size(), 100u);
    // No temp file left behind.
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(TraceV1, AtomicWriterWorksToo)
{
    const std::string path = tempPath("v1_atomic.trc");
    std::remove(path.c_str());
    {
        TraceWriter writer(path, /*block_index=*/true, TraceFormat::V1,
                           /*atomic=*/true);
        for (size_t i = 0; i < 100; ++i)
            writer.append(makeRecord(i));
        std::ifstream probe(path, std::ios::binary);
        EXPECT_FALSE(probe.good());
    }
    EXPECT_EQ(loadTrace(path).size(), 100u);
    std::remove(path.c_str());
}

// ---- block-parallel writer -------------------------------------------------

/** The file bytes a one-thread chain of encodeV2Block calls produces
 *  for makeRecord(0 .. count - 1). */
std::vector<uint8_t>
sequentialV2Bytes(size_t count)
{
    std::vector<uint8_t> bytes(sizeof(V2Header));
    std::vector<V2BlockEntry> entries;
    V2Checkpoint state;
    V2EncodeScratch scratch;
    std::vector<Record> block;
    for (size_t first = 0; first < count;
         first += kTraceIndexBlockRecords) {
        block.clear();
        for (size_t i = first;
             i < std::min(count, first + kTraceIndexBlockRecords); ++i)
            block.push_back(makeRecord(i));
        V2BlockEntry entry =
            encodeV2Block(block.data(), block.size(), state, scratch);
        entry.fileOffset = bytes.size();
        bytes.insert(bytes.end(), scratch.encoded.get(),
                     scratch.encoded.get() + entry.encodedBytes);
        entries.push_back(entry);
    }
    V2Header header;
    header.recordCount = count;
    header.indexOffset = bytes.size();
    std::memcpy(bytes.data(), &header, sizeof(header));
    V2IndexHeader index_header;
    index_header.blockRecords = kTraceIndexBlockRecords;
    index_header.blockCount = entries.size();
    const auto *ih = reinterpret_cast<const uint8_t *>(&index_header);
    bytes.insert(bytes.end(), ih, ih + sizeof(index_header));
    const auto *es = reinterpret_cast<const uint8_t *>(entries.data());
    bytes.insert(bytes.end(), es, es + entries.size() * sizeof(V2BlockEntry));
    return bytes;
}

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

/** Threads of this process, or 0 where /proc cannot tell. */
size_t
processThreads()
{
    std::error_code error;
    size_t threads = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
         !error && it != end; it.increment(error))
        ++threads;
    return error ? 0 : threads;
}

TEST(TraceV2Writer, MatchesASequentialEncoderChain)
{
    // Workers start only once a second block begins, so the first three
    // counts encode inline and the last two across the workers; every
    // one must match the one-thread chain byte for byte.
    const std::string path = tempPath("v2_parallel.trc");
    const size_t counts[] = {0,
                             1,
                             kTraceIndexBlockRecords,
                             kTraceIndexBlockRecords + 1,
                             41 * kTraceIndexBlockRecords + 123};
    for (const size_t count : counts) {
        {
            TraceWriter writer(path, /*block_index=*/false,
                               TraceFormat::V2);
            for (size_t i = 0; i < count; ++i)
                writer.append(makeRecord(i));
        }
        EXPECT_TRUE(fileBytes(path) == sequentialV2Bytes(count))
            << count << " records";
    }
    std::remove(path.c_str());
}

TEST(TraceV2Writer, NoWorkerOutlivesTheWriter)
{
    const size_t before = processThreads();
    if (before == 0)
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    const std::string path = tempPath("v2_unclosed.trc");
    const size_t count = 5 * kTraceIndexBlockRecords + 7;
    {
        // Destroyed without finish(): the workers are joined, and the
        // half-written file stays half-written.
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        {
            V2WriterBackend writer(file, path);
            for (size_t i = 0; i < count; ++i)
                writer.append(makeRecord(i));
            if (std::thread::hardware_concurrency() > 1) {
                EXPECT_GT(processThreads(), before);
            }
        }
        EXPECT_EQ(processThreads(), before);
        std::fclose(file);
    }
    {
        // A TraceWriter left to its destructor closes the file whole.
        {
            TraceWriter writer(path, /*block_index=*/false,
                               TraceFormat::V2);
            for (size_t i = 0; i < count; ++i)
                writer.append(makeRecord(i));
        }
        EXPECT_EQ(processThreads(), before);
        EXPECT_TRUE(fileBytes(path) == sequentialV2Bytes(count));
    }
    std::remove(path.c_str());
}

TEST(TraceV2WriterDeath, ShortWriteIsFatalWithThePath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // /dev/full takes the header into the stdio buffer, then fails the
    // first block write, while the workers are encoding the next ones.
    EXPECT_DEATH(
        {
            TraceWriter writer("/dev/full", /*block_index=*/false,
                               TraceFormat::V2);
            for (size_t i = 0; i < 6 * kTraceIndexBlockRecords; ++i)
                writer.append(makeRecord(i));
            writer.close();
        },
        "short write to trace file /dev/full");
}

// ---- ranged loads, block index, mmap view ----------------------------------

struct BigV2Trace : ::testing::Test
{
    std::string path = tempPath("v2_big.trc");
    std::vector<Record> records;

    void
    SetUp() override
    {
        const size_t count = kTraceIndexBlockRecords + 4000;
        for (size_t i = 0; i < count; ++i)
            records.push_back(makeRecord(i));
        saveTrace(path, records, TraceFormat::V2);
    }

    void TearDown() override { std::remove(path.c_str()); }
};

TEST_F(BigV2Trace, RangedLoadsMatchFullDecode)
{
    struct { uint64_t first, count; } ranges[] = {
        {0, 1},                                  // first record
        {records.size() - 1, 1},                 // last record
        {0, records.size()},                     // everything
        {kTraceIndexBlockRecords - 5, 10},       // straddles the boundary
        {kTraceIndexBlockRecords, 100},          // block-aligned start
        {17, 4000},                              // interior of block 0
        {records.size() - 123, 123},             // tail of the short block
        {5000, 0},                               // empty range
    };
    for (const auto &r : ranges) {
        const auto got = loadTraceRange(path, r.first, r.count);
        ASSERT_EQ(got.size(), r.count);
        for (uint64_t i = 0; i < r.count; ++i)
            expectSameRecord(records[r.first + i], got[i],
                             static_cast<size_t>(r.first + i));
    }
}

TEST_F(BigV2Trace, BlockIndexProjectsToV1Shape)
{
    // The structural v2 index must project onto the same
    // TraceBlockIndex the v1 footer fills.
    const TraceBlockIndex index = loadTraceBlockIndex(path);
    ASSERT_TRUE(index.present());
    EXPECT_EQ(index.blockRecords, kTraceIndexBlockRecords);
    ASSERT_EQ(index.blockCount(), 2u);

    uint32_t instructions[2] = {0, 0};
    uint32_t pseudo[2] = {0, 0};
    for (size_t i = 0; i < records.size(); ++i) {
        const size_t b = i / kTraceIndexBlockRecords;
        if (records[i].isPseudo())
            ++pseudo[b];
        else
            ++instructions[b];
    }
    for (size_t b = 0; b < 2; ++b) {
        EXPECT_EQ(index.instructions[b], instructions[b]);
        EXPECT_EQ(index.pseudoRecords[b], pseudo[b]);
    }
}

TEST_F(BigV2Trace, MappedTraceDecodesTransparently)
{
    MappedTrace mapped(path);
    // v2 cannot be a zero-copy view; the fallback buffer serves instead.
    EXPECT_FALSE(mapped.mapped());
    ASSERT_EQ(mapped.count(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        expectSameRecord(records[i], mapped[i], i);
    EXPECT_TRUE(mapped.blockIndex().present());
}

TEST_F(BigV2Trace, ForwardReaderMatchesWithAndWithoutPrefetch)
{
    for (const bool prefetch : {false, true}) {
        ForwardTraceReader reader(path, 1 << 16, prefetch);
        EXPECT_EQ(reader.count(), records.size());
        Record rec;
        size_t i = 0;
        while (reader.next(rec)) {
            ASSERT_LT(i, records.size());
            expectSameRecord(records[i], rec, i);
            ++i;
        }
        EXPECT_EQ(i, records.size());
        EXPECT_FALSE(reader.next(rec));
    }
}

TEST_F(BigV2Trace, ReverseReaderMatchesWithAndWithoutPrefetch)
{
    for (const bool prefetch : {false, true}) {
        ReverseTraceReader reader(path, 1 << 16, prefetch);
        EXPECT_EQ(reader.count(), records.size());
        Record rec;
        size_t i = records.size();
        while (reader.next(rec)) {
            ASSERT_GT(i, 0u);
            --i;
            expectSameRecord(records[i], rec, i);
        }
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(reader.remaining(), 0u);
    }
}

// ---- v1 block-index footer ------------------------------------------------

/** A v1 trace with a block-index footer, saved from a machine run. */
struct BigSavedProgram
{
    Machine machine;
    std::string path;

    BigSavedProgram()
    {
        const auto tid = machine.addThread("main");
        const uint64_t heap = machine.alloc(64, "heap");
        const uint64_t pixels = machine.alloc(16, "tile");
        machine.post(tid, [&](Ctx &ctx) {
            // Enough records to span several index blocks.
            const size_t rounds = (1 << 16) + 4000;
            for (size_t i = 0; i < rounds; ++i) {
                Value v = ctx.imm(i & 0xFF);
                ctx.store(heap + 8 * (i % 8), 4, v);
            }
            Value color = ctx.load(heap, 4);
            ctx.store(pixels, 4, color);
            const MemRange ranges[] = {{pixels, 16}};
            ctx.marker(ranges);
        });
        machine.run();

        path = std::string(::testing::TempDir()) + "v1_indexed_big.trc";
        TraceWriter writer(path, /*block_index=*/true);
        for (const auto &rec : machine.records())
            writer.append(rec);
        writer.close();
    }

    ~BigSavedProgram() { std::remove(path.c_str()); }
};

TEST(TraceBlockIndex, RoundTripsThroughWriterAndLoader)
{
    const BigSavedProgram program;
    const auto &records = program.machine.records();

    const auto index = loadTraceBlockIndex(program.path);
    ASSERT_TRUE(index.present());
    EXPECT_EQ(index.blockRecords, kTraceIndexBlockRecords);
    const size_t expect_blocks =
        (records.size() + kTraceIndexBlockRecords - 1) /
        kTraceIndexBlockRecords;
    ASSERT_EQ(index.blockCount(), expect_blocks);
    ASSERT_GE(index.blockCount(), 2u);

    uint64_t instructions = 0;
    uint64_t pseudos = 0;
    for (size_t b = 0; b < index.blockCount(); ++b) {
        instructions += index.instructions[b];
        pseudos += index.pseudoRecords[b];
    }
    uint64_t expect_instructions = 0;
    for (const auto &rec : records)
        expect_instructions += rec.isPseudo() ? 0 : 1;
    EXPECT_EQ(instructions, expect_instructions);
    EXPECT_EQ(pseudos, records.size() - expect_instructions);

    // The mmap view exposes the same index.
    MappedTrace mapped(program.path);
    ASSERT_TRUE(mapped.blockIndex().present());
    EXPECT_EQ(mapped.blockIndex().instructions, index.instructions);
    EXPECT_EQ(mapped.count(), records.size());
    EXPECT_EQ(mapped[0].pc, records[0].pc);
}

TEST(TraceBlockIndex, LoadTraceRangeReturnsExactWindow)
{
    const BigSavedProgram program;
    const auto &records = program.machine.records();

    const auto window = loadTraceRange(program.path, 1000, 50);
    ASSERT_EQ(window.size(), 50u);
    for (size_t i = 0; i < window.size(); ++i) {
        EXPECT_EQ(window[i].pc, records[1000 + i].pc);
        EXPECT_EQ(window[i].addr, records[1000 + i].addr);
    }
    EXPECT_TRUE(loadTraceRange(program.path, 7, 0).empty());
}

TEST(TraceBlockIndexDeath, RangeBoundsAreChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const BigSavedProgram program;
    const auto count = program.machine.records().size();
    EXPECT_DEATH(loadTraceRange(program.path, count, 1),
                 "out of bounds");
}

// ---- decode cache ----------------------------------------------------------

TEST_F(BigV2Trace, DecodeCacheHitsOnRepeatedRange)
{
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    const auto before = cache.stats();
    const uint64_t decoded_before = counterValue("trace.blocks_decoded");

    const auto first = loadTraceRange(path, 10, 20);
    const auto again = loadTraceRange(path, 10, 20);
    expectSameRecords(first, again);

    const auto after = cache.stats();
    EXPECT_GE(after.misses, before.misses + 1); // first decode missed
    EXPECT_GE(after.hits, before.hits + 1);     // second was served hot
    EXPECT_GE(counterValue("trace.blocks_decoded"), decoded_before + 1);
    EXPECT_GT(counterValue("trace.bytes_decoded"), 0u);
}

TEST_F(BigV2Trace, DecodeCacheEvictsUnderTinyBudget)
{
    auto &cache = TraceDecodeCache::global();
    const uint64_t default_budget = cache.budget();
    cache.clear();
    cache.setBudget(sizeof(Record)); // far below one decoded block

    const auto evictions_before = cache.stats().evictions;
    (void)loadTraceRange(path, 0, 1);
    (void)loadTraceRange(path, kTraceIndexBlockRecords, 1);
    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, evictions_before);
    // Over-budget eviction keeps only the newest block: the entry being
    // handed out is never evicted from under its caller.
    EXPECT_LE(stats.entries, 1u);

    // Eviction must not corrupt results handed out before it.
    const auto got = loadTraceRange(path, 5, 5);
    for (size_t i = 0; i < got.size(); ++i)
        expectSameRecord(records[5 + i], got[i], 5 + i);

    cache.setBudget(default_budget);
    cache.clear();
}

std::vector<char>
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(TraceDecodeCacheContract, SameSizeRewriteWithRestoredMtimeIsNotStale)
{
    // A rewrite in place at the same size whose mtime is put back keeps
    // device, inode, size and mtime: only the ctime tells the decoded
    // blocks of the old bytes from the new file.
    const std::string path = tempPath("v2_rewrite.trc");
    const std::string other = tempPath("v2_rewrite_other.trc");
    std::vector<Record> before;
    for (size_t i = 0; i < 3000; ++i)
        before.push_back(makeRecord(i));
    saveTrace(path, before, TraceFormat::V2);
    const auto old_bytes = readWholeFile(path);

    // A different recording whose v2 file has exactly the same size.
    std::vector<Record> after;
    std::vector<char> new_bytes;
    for (size_t k = 0; k < before.size() && new_bytes.empty(); k += 7) {
        after = before;
        after[k].addr ^= 1;
        saveTrace(other, after, TraceFormat::V2);
        if (auto bytes = readWholeFile(other);
            bytes.size() == old_bytes.size() && bytes != old_bytes)
            new_bytes = std::move(bytes);
    }
    std::remove(other.c_str());
    ASSERT_FALSE(new_bytes.empty()) << "no same-size variant found";

    auto &cache = TraceDecodeCache::global();
    cache.clear();
    expectSameRecords(before, loadTraceRange(path, 0, before.size()));
    ASSERT_GE(cache.stats().entries, 1u);

    struct stat old_stat;
    ASSERT_EQ(::stat(path.c_str(), &old_stat), 0);
    // Long enough for the ctime to move even on a coarse kernel clock.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, new_bytes.data(), new_bytes.size(), 0),
              static_cast<ssize_t>(new_bytes.size()));
    ::close(fd);
    const struct timespec times[2] = {old_stat.st_atim, old_stat.st_mtim};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

    struct stat new_stat;
    ASSERT_EQ(::stat(path.c_str(), &new_stat), 0);
    ASSERT_EQ(new_stat.st_ino, old_stat.st_ino);
    ASSERT_EQ(new_stat.st_size, old_stat.st_size);
    ASSERT_EQ(new_stat.st_mtim.tv_sec, old_stat.st_mtim.tv_sec);
    ASSERT_EQ(new_stat.st_mtim.tv_nsec, old_stat.st_mtim.tv_nsec);

    expectSameRecords(after, loadTraceRange(path, 0, after.size()));
    cache.clear();
    std::remove(path.c_str());
}

/** A multi-block v2 recording of a machine run, with its symbols. */
struct BigV2Program
{
    Machine machine;
    std::string path = tempPath("v2_program.trc");

    BigV2Program()
    {
        const auto tid = machine.addThread("main");
        const auto fn = machine.registerFunction("big::work");
        const uint64_t heap = machine.alloc(64, "heap");
        const uint64_t pixels = machine.alloc(16, "tile");
        machine.post(tid, [&](Ctx &ctx) {
            TracedScope scope(ctx, fn);
            for (size_t i = 0; i < (1 << 16) + 4000; ++i) {
                Value v = ctx.imm(i & 0xFF);
                ctx.store(heap + 8 * (i % 8), 4, v);
            }
            Value color = ctx.load(heap, 4);
            ctx.store(pixels, 4, color);
            const MemRange ranges[] = {{pixels, 16}};
            ctx.marker(ranges);
        });
        machine.run();
        saveTrace(path, machine.records(), TraceFormat::V2);
    }

    ~BigV2Program() { std::remove(path.c_str()); }
};

TEST(TraceDecodeCacheContract, MappedTraceReusesTheForwardPassBlocks)
{
    // The forward pass leaves every block in the cache; a MappedTrace
    // of the same file afterwards copies them and decodes none.
    const BigV2Program program;
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    const auto cfgs =
        graph::buildCfgsFromFile(program.path, program.machine.symtab());
    EXPECT_EQ(cfgs.funcOf.size(), program.machine.records().size());
    const auto entries = cache.stats().entries;
    ASSERT_GE(entries, 2u);

    const uint64_t decoded = counterValue("trace.blocks_decoded");
    const MappedTrace mapped(program.path);
    EXPECT_EQ(counterValue("trace.blocks_decoded"), decoded);
    EXPECT_EQ(cache.stats().entries, entries);
    expectSameRecords(program.machine.records(),
                      {mapped.records().begin(), mapped.records().end()});
    cache.clear();
}

TEST(TraceDecodeCacheContract, MappedTraceOfAnUncachedFileInsertsNothing)
{
    // A MappedTrace holds the whole trace itself; caching its blocks
    // as well would hold every record twice.
    const BigV2Program program;
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    const auto before = cache.stats();
    const uint64_t decoded = counterValue("trace.blocks_decoded");
    const MappedTrace mapped(program.path);
    EXPECT_EQ(cache.stats().entries, before.entries);
    EXPECT_EQ(cache.stats().bytes, before.bytes);
    EXPECT_EQ(counterValue("trace.blocks_decoded"),
              decoded + mapped.blockIndex().blockCount());
    expectSameRecords(program.machine.records(),
                      {mapped.records().begin(), mapped.records().end()});
}

TEST(TraceDecodeCacheContract, ReverseReaderTakesCachedBlocksOnly)
{
    // The backward walk follows the forward pass: it decodes nothing
    // the forward pass cached, and caches nothing it had to decode.
    const BigV2Program program;
    const auto &records = program.machine.records();
    auto &cache = TraceDecodeCache::global();
    for (const bool forward_first : {false, true}) {
        cache.clear();
        if (forward_first)
            (void)graph::buildCfgsFromFile(program.path,
                                           program.machine.symtab());
        const auto entries = cache.stats().entries;
        const uint64_t decoded = counterValue("trace.blocks_decoded");
        ReverseTraceReader reader(program.path);
        Record rec;
        size_t i = records.size();
        while (reader.next(rec)) {
            --i;
            expectSameRecord(records[i], rec, i);
        }
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(cache.stats().entries, entries);
        const uint64_t blocks = loadTraceBlockIndex(program.path).blockCount();
        EXPECT_EQ(counterValue("trace.blocks_decoded") - decoded,
                  forward_first ? 0u : blocks);
    }
    cache.clear();
}

TEST(TraceDecodeCacheContract, ForwardReaderHandsOutBlocksWhole)
{
    // nextBlock() yields each block's unread records in one span; the
    // spans tile the trace in order.
    const BigV2Program program;
    const auto &records = program.machine.records();
    for (const bool prefetch : {false, true}) {
        ForwardTraceReader forward(program.path, 1 << 16, prefetch);
        Record first;
        ASSERT_TRUE(forward.next(first)); // part of block 0 is read
        std::vector<Record> seen{first};
        for (auto block = forward.nextBlock(); !block.empty();
             block = forward.nextBlock()) {
            EXPECT_LE(block.size(), kTraceIndexBlockRecords);
            seen.insert(seen.end(), block.begin(), block.end());
        }
        expectSameRecords(records, seen);
    }
}

// ---- corruption is loud ----------------------------------------------------

void
truncateFile(const std::string &path, uint64_t bytes)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> head(bytes);
    in.read(head.data(), static_cast<std::streamsize>(bytes));
    ASSERT_EQ(static_cast<uint64_t>(in.gcount()), bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(head.data(), static_cast<std::streamsize>(bytes));
}

void
flipByteAt(const std::string &path, uint64_t offset)
{
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    io.seekp(static_cast<std::streamoff>(offset));
    io.write(&byte, 1);
}

struct TraceV2Death : BigV2Trace
{
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        BigV2Trace::SetUp();
    }
};

TEST_F(TraceV2Death, TruncatedBelowHeaderIsFatal)
{
    truncateFile(path, sizeof(V2Header) - 4);
    EXPECT_DEATH(loadTrace(path), "too small for a v2 header");
}

TEST_F(TraceV2Death, TruncatedMidPayloadIsFatal)
{
    // The header survives but the index offset now points past EOF.
    truncateFile(path, sizeof(V2Header) + 100);
    EXPECT_DEATH(loadTrace(path), "corrupt trace block index in");
}

TEST_F(TraceV2Death, MissingIndexTailIsFatal)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<uint64_t>(in.tellg());
    in.close();
    truncateFile(path, bytes - sizeof(V2BlockEntry));
    EXPECT_DEATH(loadTrace(path), "corrupt");
}

TEST_F(TraceV2Death, CorruptColumnPayloadIsFatalWithContext)
{
    // Shred the front of block 0's compressed payload; the failure must
    // name the file, the block, and its byte offset.
    for (uint64_t off = 0; off < 16; ++off)
        flipByteAt(path, sizeof(V2Header) + off);
    EXPECT_DEATH(loadTrace(path),
                 "corrupt compressed trace block in .*block 0 at offset");
}

TEST_F(TraceV2Death, CorruptIndexGeometryIsFatal)
{
    // Overwrite the index's blockCount (third u64 of the index header).
    std::ifstream in(path, std::ios::binary);
    V2Header header;
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    in.close();
    const uint64_t corrupt_count = 999;
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(static_cast<std::streamoff>(header.indexOffset + 16));
    io.write(reinterpret_cast<const char *>(&corrupt_count),
             sizeof(corrupt_count));
    io.close();
    EXPECT_DEATH(loadTrace(path), "corrupt trace");
}

TEST_F(TraceV2Death, RangeBoundsAreChecked)
{
    EXPECT_DEATH(loadTraceRange(path, records.size(), 1), "out of bounds");
}

/**
 * Write a one-block v2 file around a given compressed block payload,
 * with an index entry that matches it in every field the file check
 * validates, so only the payload's own decode can fail.
 */
void
writeOneBlockV2(const std::string &path, const std::vector<uint8_t> &payload,
                uint32_t raw_bytes, uint32_t records)
{
    V2Header header;
    header.recordCount = records;
    header.indexOffset = sizeof(V2Header) + payload.size();
    V2IndexHeader index_header;
    index_header.blockRecords = kTraceIndexBlockRecords;
    index_header.blockCount = 1;
    V2BlockEntry entry;
    entry.fileOffset = sizeof(V2Header);
    entry.encodedBytes = static_cast<uint32_t>(payload.size());
    entry.rawBytes = raw_bytes;
    entry.records = records;
    entry.instructions = records;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char *>(&index_header),
              sizeof(index_header));
    out.write(reinterpret_cast<const char *>(&entry), sizeof(entry));
}

TEST_F(TraceV2Death, MatchOffsetBeyondOutputIsFatalWithContext)
{
    // Plenty of room on both sides, so the sequence would take the
    // word-copy fast path, but its offset reaches before the block.
    LzStream stream;
    stream.sequence(bytesFrom(12, 1), 13, 16);
    stream.finish(bytesFrom(40, 2));
    const uint32_t raw_bytes = 12 + 16 + 40;
    writeOneBlockV2(path, stream.bytes, raw_bytes, 1);
    EXPECT_DEATH(loadTrace(path),
                 "corrupt compressed trace block in .*block 0 at offset");
}

TEST_F(TraceV2Death, VarintOverrunningItsColumnIsFatalWithContext)
{
    // One record whose pc column holds a lone continuation byte: the
    // varint runs off its column into the address column's byte.
    std::vector<uint8_t> raw = {1};              // record count
    raw.insert(raw.end(), {1, 0x00});            // kind/flags
    raw.insert(raw.end(), {1, 0x80});            // pc: truncated varint
    for (int c = 0; c < 7; ++c)
        raw.insert(raw.end(), {1, 0x01});        // addr .. rw
    std::vector<uint8_t> payload;
    lzCompress(raw.data(), raw.size(), payload);
    writeOneBlockV2(path, payload, static_cast<uint32_t>(raw.size()), 1);
    EXPECT_DEATH(loadTrace(path),
                 "corrupt trace block in .*block 0 at offset .*column 1 "
                 "is truncated or malformed at record 0");
}

// ---- slice bit-identity across formats -------------------------------------

using graph::buildCfgs;
using graph::buildControlDeps;
using slicer::computeSlice;
using slicer::computeSliceFromFile;
using slicer::CriteriaMode;
using slicer::SlicerOptions;

/** Two threads of random traced work with markers and syscalls. */
Machine
randomProgram(uint64_t seed, bool value_log = false)
{
    Machine machine;
    if (value_log)
        machine.enableValueLog();
    Rng rng(seed);
    const auto t0 = machine.addThread("a");
    const auto t1 = machine.addThread("b");
    const auto fn_a = machine.registerFunction("fuzz::alpha");
    const auto fn_b = machine.registerFunction("fuzz::beta");
    const uint64_t heap = machine.alloc(256, "heap");
    const uint64_t pixels = machine.alloc(64, "tile");
    const uint64_t net = machine.alloc(32, "net");

    auto program = [&, fn_a, fn_b](Ctx &ctx, uint64_t thread_seed) {
        Rng r(thread_seed);
        TracedScope top(ctx, fn_a);
        std::vector<Value> vals;
        vals.push_back(ctx.imm(r.below(1000)));
        const size_t steps = 40 + r.below(60);
        for (size_t i = 0; i < steps; ++i) {
            auto pick = [&]() -> Value & {
                return vals[r.below(vals.size())];
            };
            switch (r.below(9)) {
              case 0:
                vals.push_back(ctx.imm(r.below(1 << 20)));
                break;
              case 1:
                vals.push_back(ctx.add(pick(), pick()));
                break;
              case 2:
                vals.push_back(
                    ctx.addi(pick(), static_cast<int64_t>(r.below(9))));
                break;
              case 3:
                ctx.store(heap + 8 * r.below(30), 4, pick());
                break;
              case 4:
                vals.push_back(ctx.load(heap + 8 * r.below(30), 4));
                break;
              case 5:
                ctx.store(pixels + 4 * r.below(15), 4, pick());
                break;
              case 6: {
                TracedScope scope(ctx, fn_b);
                Value flag = ctx.imm(r.below(2));
                Value color = ctx.imm(r.below(256));
                if (ctx.branchIf(flag))
                    ctx.store(pixels + 4 * r.below(15), 4, color);
                break;
              }
              case 7:
                if (r.chance(0.5)) {
                    ctx.store(net, 4, pick());
                    (void)sim::sysSendto(ctx, net, 16);
                } else {
                    ctx.machine().mem().write(net, 4, r.next());
                    (void)sim::sysRecvfrom(ctx, net, 16);
                }
                break;
              case 8: {
                const MemRange ranges[] = {{pixels, 64}};
                ctx.marker(ranges);
                break;
              }
            }
            if (vals.size() > 12)
                vals.erase(vals.begin(),
                           vals.begin() +
                               static_cast<long>(vals.size() - 6));
        }
        const MemRange ranges[] = {{pixels, 64}};
        ctx.marker(ranges);
    };
    machine.post(t0, [&](Ctx &ctx) { program(ctx, seed * 2 + 1); });
    machine.post(t1, [&](Ctx &ctx) { program(ctx, seed * 2 + 2); });
    machine.run();
    return machine;
}

TEST(TraceV2Fuzz, SlicesBitIdenticalAcrossFormats)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        const Machine machine = randomProgram(seed);
        const graph::CfgSet cfgs =
            buildCfgs(machine.records(), machine.symtab());
        const graph::ControlDepMap deps = buildControlDeps(cfgs);

        const std::string v1 = tempPath("fuzz_v1.trc");
        const std::string v2 = tempPath("fuzz_v2.trc");
        saveTrace(v1, machine.records(), TraceFormat::V1);
        saveTrace(v2, machine.records(), TraceFormat::V2);
        expectSameRecords(loadTrace(v1), loadTrace(v2));

        for (const auto mode :
             {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
            SlicerOptions options;
            options.mode = mode;
            const auto oracle =
                computeSlice(machine.records(), cfgs, deps,
                             machine.pixelCriteria(), options);
            for (const std::string &path : {v1, v2}) {
                const auto from_file = computeSliceFromFile(
                    path, cfgs, deps, machine.pixelCriteria(), options);
                EXPECT_EQ(oracle.inSlice, from_file.inSlice)
                    << "seed " << seed << " mode "
                    << static_cast<int>(mode) << " file " << path;
                EXPECT_EQ(oracle.sliceInstructions,
                          from_file.sliceInstructions);
                EXPECT_EQ(oracle.instructionsAnalyzed,
                          from_file.instructionsAnalyzed);
                EXPECT_EQ(oracle.criteriaBytesSeeded,
                          from_file.criteriaBytesSeeded);
            }
        }
        std::remove(v1.c_str());
        std::remove(v2.c_str());
    }
}

// ---- value log v2 ----------------------------------------------------------

TEST(ValueLogV2, SniffsBothFormats)
{
    const Machine machine = randomProgram(3, /*value_log=*/true);
    ASSERT_NE(machine.valueLog(), nullptr);
    const std::string v1 = tempPath("sniff_v1.val");
    const std::string v2 = tempPath("sniff_v2.val");
    machine.valueLog()->save(v1);
    machine.valueLog()->save(v2, ValueLogFormat::V2, machine.records(),
                             machine.pixelCriteria());
    EXPECT_EQ(sniffValueLogFormat(v1), ValueLogFormat::V1);
    EXPECT_EQ(sniffValueLogFormat(v2), ValueLogFormat::V2);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

TEST(ValueLogV2, ReconstructedSnapshotsMatchStoredBlobs)
{
    for (uint64_t seed = 0; seed < 4; ++seed) {
        const Machine machine = randomProgram(seed, /*value_log=*/true);
        const ValueLog *live = machine.valueLog();
        ASSERT_NE(live, nullptr);

        const std::string v1 = tempPath("vlog_v1.val");
        const std::string v2 = tempPath("vlog_v2.val");
        live->save(v1);
        live->save(v2, ValueLogFormat::V2, machine.records(),
                   machine.pixelCriteria());

        const uint64_t rebuilt_before =
            counterValue("value_log.snapshots_reconstructed") +
            counterValue("value_log.snapshot_fallbacks");

        ValueLog from_v1, from_v2;
        from_v1.load(v1, machine.records());
        from_v2.load(v2, machine.records());

        // Values and every blob — syscall effect ranges AND the marker
        // snapshots the v2 file rebuilt by replay — must be
        // bit-identical to the v1 (raw) load.
        EXPECT_EQ(from_v1.values, from_v2.values) << "seed " << seed;
        ASSERT_EQ(from_v1.blobs.size(), from_v2.blobs.size());
        for (const auto &kv : from_v1.blobs) {
            const auto *blob = from_v2.blobAt(kv.first);
            ASSERT_NE(blob, nullptr)
                << "seed " << seed << ": v2 lost blob at record "
                << kv.first;
            EXPECT_EQ(*blob, kv.second)
                << "seed " << seed << ": blob at record " << kv.first
                << " differs";
        }

        // Every marker snapshot came out of the reconstruction (or its
        // verified raw fallback), never silently skipped.
        size_t markers = 0;
        for (const auto &rec : machine.records())
            markers += rec.kind == RecordKind::Marker;
        EXPECT_GE(counterValue("value_log.snapshots_reconstructed") +
                      counterValue("value_log.snapshot_fallbacks"),
                  rebuilt_before + markers);

        std::remove(v1.c_str());
        std::remove(v2.c_str());
    }
}

TEST(ValueLogV2, CheckpointRestoresAreCounted)
{
    const Machine machine = randomProgram(1, /*value_log=*/true);
    const std::string v2 = tempPath("vlog_restore.val");
    machine.valueLog()->save(v2, ValueLogFormat::V2, machine.records(),
                             machine.pixelCriteria());
    const uint64_t restores_before =
        counterValue("trace.checkpoint_restores");
    ValueLog loaded;
    loaded.load(v2, machine.records());
    EXPECT_GT(counterValue("trace.checkpoint_restores"), restores_before);
    std::remove(v2.c_str());
}

TEST(ValueLogV2Death, V1OnlyLoadRefusesV2Files)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Machine machine = randomProgram(2, /*value_log=*/true);
    const std::string v2 = tempPath("vlog_refuse.val");
    machine.valueLog()->save(v2, ValueLogFormat::V2, machine.records(),
                             machine.pixelCriteria());
    ValueLog log;
    EXPECT_DEATH(log.load(v2), "use load\\(path, records\\)");
    std::remove(v2.c_str());
}

TEST(ValueLogV2Death, TruncationIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Machine machine = randomProgram(4, /*value_log=*/true);
    const std::string v2 = tempPath("vlog_trunc.val");
    machine.valueLog()->save(v2, ValueLogFormat::V2, machine.records(),
                             machine.pixelCriteria());
    std::ifstream in(v2, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<uint64_t>(in.tellg());
    in.close();
    truncateFile(v2, bytes / 2);
    ValueLog log;
    EXPECT_DEATH(log.load(v2, machine.records()), "value log");
    std::remove(v2.c_str());
}

} // namespace
} // namespace trace
} // namespace webslice
