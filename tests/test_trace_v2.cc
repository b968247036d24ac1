/**
 * @file
 * Tests of the columnar compressed trace format (v2) and its companions:
 * the LZ block codec, every reader's transparent v2 decode, the v1
 * block-index footer, the process-wide decode cache, the checkpointed
 * value-log sidecar, and — the contract the whole format hangs on —
 * bit-identical slices from v1 and v2 files of the same recording.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
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
expectSameRecords(const std::vector<Record> &a, const std::vector<Record> &b)
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

// ---- v2 write + whole-file load --------------------------------------------

TEST(TraceV2, SniffsBothFormats)
{
    const std::string v1 = tempPath("sniff_v1.trc");
    const std::string v2 = tempPath("sniff_v2.trc");
    saveTrace(v1, {makeRecord(0)}, TraceFormat::V1);
    saveTrace(v2, {makeRecord(0)}, TraceFormat::V2);
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
