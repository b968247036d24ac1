/**
 * @file
 * Unit tests for the support layer: strings, sparse byte set, stats,
 * tables, the deterministic RNG, and the content hash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <vector>

#include "support/content_hash.hh"
#include "support/rng.hh"
#include "support/sparse_byte_set.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace webslice {
namespace {

// ---- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField)
{
    const auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("v8::Parser", "v8"));
    EXPECT_FALSE(startsWith("v", "v8"));
    EXPECT_TRUE(endsWith("foo.cc", ".cc"));
    EXPECT_FALSE(endsWith("cc", "foo.cc"));
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, TopNamespace)
{
    EXPECT_EQ(topNamespace("v8::Parser::parse"), "v8");
    EXPECT_EQ(topNamespace("plainFunction"), "");
    EXPECT_EQ(topNamespace("cc::TileManager"), "cc");
}

TEST(Strings, NamespacePath)
{
    EXPECT_EQ(namespacePath("base::threading::Mutex::lock", 2),
              "base::threading");
    EXPECT_EQ(namespacePath("a::f", 2), "a");
    EXPECT_EQ(namespacePath("f", 1), "");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%.1f%%", 45.04), "45.0%");
}

TEST(Strings, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(955ull * 1024), "955 KB");
    EXPECT_EQ(humanBytes(1638ull * 1024), "1.6 MB");
}

TEST(Strings, HumanMillionsAndCommas)
{
    EXPECT_EQ(withCommas(6217000000ull), "6,217,000,000");
    EXPECT_EQ(humanMillions(6217000000ull), "6,217 M");
    EXPECT_EQ(humanMillions(500000ull), "500 K");
}

// ---- sparse byte set -------------------------------------------------------

TEST(SparseByteSet, InsertContains)
{
    SparseByteSet set;
    EXPECT_TRUE(set.empty());
    set.insert(100, 4);
    EXPECT_EQ(set.size(), 4u);
    EXPECT_TRUE(set.contains(100));
    EXPECT_TRUE(set.contains(103));
    EXPECT_FALSE(set.contains(104));
    EXPECT_FALSE(set.contains(99));
}

TEST(SparseByteSet, InsertIsIdempotent)
{
    SparseByteSet set;
    set.insert(10, 8);
    set.insert(12, 4);
    EXPECT_EQ(set.size(), 8u);
}

TEST(SparseByteSet, EraseRange)
{
    SparseByteSet set;
    set.insert(0, 128);
    set.erase(32, 64);
    EXPECT_EQ(set.size(), 64u);
    EXPECT_TRUE(set.contains(31));
    EXPECT_FALSE(set.contains(32));
    EXPECT_FALSE(set.contains(95));
    EXPECT_TRUE(set.contains(96));
}

TEST(SparseByteSet, IntersectsAcrossChunkBoundary)
{
    SparseByteSet set;
    set.insert(63, 2); // bytes 63 and 64 straddle a chunk boundary
    EXPECT_TRUE(set.intersects(64, 1));
    EXPECT_TRUE(set.intersects(0, 64));
    EXPECT_FALSE(set.intersects(65, 100));
}

TEST(SparseByteSet, TestAndErase)
{
    SparseByteSet set;
    set.insert(200, 8);
    EXPECT_TRUE(set.testAndErase(204, 8));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_FALSE(set.testAndErase(204, 8));
    EXPECT_TRUE(set.contains(203));
}

TEST(SparseByteSet, ChunksFreedOnErase)
{
    SparseByteSet set;
    set.insert(0, 64);
    EXPECT_EQ(set.chunkCount(), 1u);
    set.erase(0, 64);
    EXPECT_EQ(set.chunkCount(), 0u);
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, LargeRangeSpanningManyChunks)
{
    SparseByteSet set;
    set.insert(1000, 1000);
    EXPECT_EQ(set.size(), 1000u);
    EXPECT_TRUE(set.intersects(1999, 1));
    EXPECT_FALSE(set.intersects(2000, 1));
    set.erase(1000, 1000);
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, HighAddresses)
{
    SparseByteSet set;
    const uint64_t high = 0xFFFFFFFF00000000ull;
    set.insert(high, 16);
    EXPECT_TRUE(set.contains(high + 15));
    EXPECT_FALSE(set.contains(high + 16));
}

TEST(SparseByteSet, AlignedFullChunkUsesFullMask)
{
    // A 64-byte aligned span covers a whole chunk in one (base, ~0)
    // piece — the mask-building shortcut must still mean "all 64 bytes".
    SparseByteSet set;
    set.insert(128, 64);
    EXPECT_EQ(set.size(), 64u);
    EXPECT_EQ(set.chunkCount(), 1u);
    EXPECT_TRUE(set.contains(128));
    EXPECT_TRUE(set.contains(191));
    EXPECT_FALSE(set.contains(127));
    EXPECT_FALSE(set.contains(192));
    EXPECT_TRUE(set.testAndErase(128, 64));
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, CacheSurvivesEraseOfOtherChunk)
{
    // Regression guard for the one-entry chunk cache: erasing one chunk
    // can move *other* entries in an open-addressing interior, so a
    // cached pointer must not be trusted across it.
    SparseByteSet set;
    set.insert(0, 8);      // chunk 0 (cached)
    set.insert(640, 8);    // chunk 10
    set.insert(1280, 8);   // chunk 20
    set.erase(640, 8);     // frees chunk 10, may shift the others
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.contains(1287));
    EXPECT_FALSE(set.contains(640));
    set.insert(4, 8); // touches cached chunk 0 again
    EXPECT_EQ(set.size(), 8u + 8u + 4u);
}

TEST(SparseByteSet, ManyChunksSurviveRehash)
{
    // Enough distinct chunks to force several interior growths; every
    // byte must remain reachable and the population exact.
    SparseByteSet set;
    constexpr uint64_t kChunks = 3000;
    for (uint64_t c = 0; c < kChunks; ++c)
        set.insert(c * 64 + (c % 32), 2);
    EXPECT_EQ(set.size(), kChunks * 2);
    EXPECT_EQ(set.chunkCount(), kChunks);
    for (uint64_t c = 0; c < kChunks; ++c) {
        EXPECT_TRUE(set.contains(c * 64 + (c % 32)));
        EXPECT_TRUE(set.contains(c * 64 + (c % 32) + 1));
    }
    for (uint64_t c = 0; c < kChunks; c += 2)
        set.erase(c * 64 + (c % 32), 2);
    EXPECT_EQ(set.size(), kChunks);
    EXPECT_EQ(set.chunkCount(), kChunks / 2);
}

TEST(SparseByteSet, ClearResetsEverything)
{
    SparseByteSet set;
    set.insert(10, 100);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.chunkCount(), 0u);
    EXPECT_FALSE(set.intersects(0, 200));
    set.insert(10, 4); // usable after clear
    EXPECT_EQ(set.size(), 4u);
}

/** Byte-addressed reference model of SparseByteSet: one set entry per
 *  present byte, no chunking, no cache. */
struct ByteModel
{
    std::set<uint64_t> bytes;

    void
    insert(uint64_t addr, uint64_t size)
    {
        for (uint64_t b = addr; b < addr + size; ++b)
            bytes.insert(b);
    }

    /** Erase the range; returns whether any byte was present. */
    bool
    erase(uint64_t addr, uint64_t size)
    {
        bool hit = false;
        for (uint64_t b = addr; b < addr + size; ++b)
            hit |= bytes.erase(b) != 0;
        return hit;
    }

    bool
    intersects(uint64_t addr, uint64_t size) const
    {
        const auto it = bytes.lower_bound(addr);
        return it != bytes.end() && *it < addr + size;
    }

    /** Distinct 64-byte chunks (addr >> 6) holding a present byte. */
    size_t
    chunkCount() const
    {
        size_t chunks = 0;
        for (auto it = bytes.begin(); it != bytes.end();
             it = bytes.lower_bound(((*it >> 6) + 1) << 6))
            ++chunks;
        return chunks;
    }
};

TEST(SparseByteSet, MatchesByteModelOnRandomWorkload)
{
    // Drive the set and an independent byte-per-entry model with one
    // pseudo-random slicer-like workload (inserts, kills, probes over a
    // few hot pages) and require exact agreement after every op.
    SparseByteSet set;
    ByteModel model;
    Rng rng(2024);
    for (int op = 0; op < 30000; ++op) {
        const uint64_t addr = rng.below(4096);
        const uint64_t size = 1 + rng.below(16);
        switch (rng.below(4)) {
          case 0:
            set.insert(addr, size);
            model.insert(addr, size);
            break;
          case 1:
            set.erase(addr, size);
            model.erase(addr, size);
            break;
          case 2:
            ASSERT_EQ(set.testAndErase(addr, size),
                      model.erase(addr, size));
            break;
          default:
            ASSERT_EQ(set.intersects(addr, size),
                      model.intersects(addr, size));
        }
        ASSERT_EQ(set.size(), model.bytes.size());
        ASSERT_EQ(set.chunkCount(), model.chunkCount());
    }
}

// ---- stats -----------------------------------------------------------------

TEST(CounterSet, Accumulates)
{
    CounterSet counters;
    counters.add("a");
    counters.add("a", 4);
    counters.add("b", 2);
    EXPECT_EQ(counters.get("a"), 5u);
    EXPECT_EQ(counters.get("b"), 2u);
    EXPECT_EQ(counters.get("missing"), 0u);
    EXPECT_EQ(counters.total(), 7u);
}

TEST(TimeSeries, BucketsByPosition)
{
    TimeSeries series(10);
    series.add(0, 1.0);
    series.add(9, 2.0);
    series.add(10, 5.0);
    EXPECT_EQ(series.bucketCount(), 2u);
    EXPECT_DOUBLE_EQ(series.sum(0), 3.0);
    EXPECT_DOUBLE_EQ(series.sum(1), 5.0);
    EXPECT_EQ(series.count(0), 2u);
    EXPECT_DOUBLE_EQ(series.mean(0), 1.5);
    EXPECT_DOUBLE_EQ(series.sum(7), 0.0);
}

TEST(Summary, TracksMinMaxMean)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    s.add(2.0);
    s.add(6.0);
    s.add(4.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

// ---- table -----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table;
    table.setHeader({"Thread", "Slice"});
    table.addRow({"Main", "52%"});
    table.addRow({"Compositor", "34%"});
    std::ostringstream os;
    table.render(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("Thread"), std::string::npos);
    EXPECT_NE(text.find("Compositor  34%"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"only"});
    std::ostringstream os;
    table.render(os);
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 0);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_EQ(rng.range(9, 9), 9);
    EXPECT_EQ(rng.range(9, 2), 9);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

// ---- content hash ----------------------------------------------------------

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> bytes(n);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    return bytes;
}

uint64_t
hashInTwo(const std::vector<uint8_t> &bytes, size_t split)
{
    ContentHasher hasher;
    hasher.update(bytes.data(), split);
    hasher.update(bytes.data() + split, bytes.size() - split);
    return hasher.digest();
}

TEST(ContentHash, StreamingEqualsOneShotForEverySplit)
{
    for (size_t n = 0; n <= 97; ++n) {
        const auto bytes = randomBytes(n, n + 1);
        const uint64_t whole = contentHash64(bytes.data(), n);
        for (size_t split = 0; split <= n; ++split)
            ASSERT_EQ(hashInTwo(bytes, split), whole)
                << "length " << n << " split at " << split;
    }
    const auto big = randomBytes(1 << 20, 99);
    const uint64_t whole = contentHash64(big.data(), big.size());
    for (const size_t split : {1, 31, 32, 33, 65537})
        EXPECT_EQ(hashInTwo(big, split), whole) << "split at " << split;
}

TEST(ContentHash, DigestLeavesTheHasherUsable)
{
    const auto bytes = randomBytes(80, 5);
    ContentHasher hasher;
    hasher.update(bytes.data(), 40);
    EXPECT_EQ(hasher.digest(), contentHash64(bytes.data(), 40));
    hasher.update(bytes.data() + 40, 40);
    EXPECT_EQ(hasher.digest(), contentHash64(bytes.data(), 80));
}

TEST(ContentHash, EveryBitFlipChangesTheHash)
{
    for (size_t n = 0; n <= 97; ++n) {
        auto bytes = randomBytes(n, 1000 + n);
        const uint64_t base = contentHash64(bytes.data(), n);
        for (size_t i = 0; i < n; ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                bytes[i] ^= static_cast<uint8_t>(1u << bit);
                ASSERT_NE(contentHash64(bytes.data(), n), base)
                    << "length " << n << " byte " << i << " bit " << bit;
                bytes[i] ^= static_cast<uint8_t>(1u << bit);
            }
        }
    }
    auto big = randomBytes(1 << 20, 7);
    const uint64_t base = contentHash64(big.data(), big.size());
    Rng rng(2024);
    for (int probe = 0; probe < 4096; ++probe) {
        const size_t at = rng.below(big.size());
        const auto mask = static_cast<uint8_t>(1u << rng.below(8));
        big[at] ^= mask;
        ASSERT_NE(contentHash64(big.data(), big.size()), base)
            << "byte " << at << " mask " << int(mask);
        big[at] ^= mask;
    }
}

TEST(ContentHash, LengthIsPartOfTheHash)
{
    // Trailing zero bytes must not vanish into the lanes' state.
    const std::vector<uint8_t> zeros(64, 0);
    std::set<uint64_t> seen;
    for (size_t n = 0; n <= zeros.size(); ++n)
        seen.insert(contentHash64(zeros.data(), n));
    EXPECT_EQ(seen.size(), zeros.size() + 1);
}

TEST(ContentHash, HashFileMatchesTheOneShotHash)
{
    const std::string path =
        std::string(::testing::TempDir()) + "content_hash.bin";
    for (const size_t n : {0, 1, 31, 32, 65535, 65536, 65537,
                           3 * 65536 + 17}) {
        const auto bytes = randomBytes(n, n);
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        if (n > 0) { // an empty vector's data() may be null
            ASSERT_EQ(std::fwrite(bytes.data(), 1, n, file), n);
        }
        std::fclose(file);
        const FileHash hashed = hashFile(path);
        EXPECT_TRUE(hashed.ok);
        EXPECT_EQ(hashed.bytes, n);
        EXPECT_EQ(hashed.hash, contentHash64(bytes.data(), n))
            << "file of " << n << " bytes";
    }
    std::remove(path.c_str());
}

TEST(ContentHash, UnreadableFileIsNotOk)
{
    const std::string dir = ::testing::TempDir();
    EXPECT_FALSE(hashFile(dir + "no-such-content-hash.bin").ok);
    EXPECT_FALSE(hashFile(dir).ok); // a directory opens but cannot be read
}

TEST(ContentHash, GoldenValues)
{
    // Shards of a fleet route a recording by this hash: a change to the
    // function makes two builds disagree on who owns what.
    EXPECT_EQ(contentHash64(nullptr, 0), 0xc1620d0a2dcaa9d2ull);
    const char text[] = "webslice artifact identity";
    EXPECT_EQ(contentHash64(text, sizeof(text) - 1),
              0x0f2c0fcbc1e47705ull);
    std::vector<uint8_t> ramp(1000);
    for (size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<uint8_t>(i * 7 + 3);
    EXPECT_EQ(contentHash64(ramp.data(), ramp.size()),
              0x239e8554595b57c9ull);
}

} // namespace
} // namespace webslice
