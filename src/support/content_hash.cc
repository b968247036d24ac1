#include "support/content_hash.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace webslice {

namespace {

// Odd 64-bit constants (the xxHash64 primes): multiplying by an odd
// constant is a bijection mod 2^64.
constexpr uint64_t kK1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kK2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kK3 = 0x165667B19E3779F9ull;
constexpr uint64_t kK4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kK5 = 0x27D4EB2F165667C5ull;

constexpr size_t kStripe = 32;

inline uint64_t
rotl(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
}

inline uint64_t
mixWord(uint64_t lane, uint64_t word)
{
    return rotl(lane + word * kK2, 31) * kK1;
}

/** Run every whole stripe of [p, p + bytes); returns the bytes used. */
inline size_t
consumeStripes(uint64_t lanes[4], const uint8_t *p, size_t bytes)
{
    uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
    const uint8_t *const begin = p;
    const uint8_t *const end = p + (bytes - bytes % kStripe);
    for (; p != end; p += kStripe) {
        v0 = mixWord(v0, loadLe64(p));
        v1 = mixWord(v1, loadLe64(p + 8));
        v2 = mixWord(v2, loadLe64(p + 16));
        v3 = mixWord(v3, loadLe64(p + 24));
    }
    lanes[0] = v0;
    lanes[1] = v1;
    lanes[2] = v2;
    lanes[3] = v3;
    return static_cast<size_t>(p - begin);
}

} // namespace

ContentHasher::ContentHasher()
    : lanes_{kK1 + kK2, kK2, 0, 0 - kK1}
{
}

void
ContentHasher::update(const void *data, size_t bytes)
{
    if (bytes == 0) // data may be null
        return;
    const auto *p = static_cast<const uint8_t *>(data);
    total_ += bytes;
    if (pendingBytes_ > 0) {
        const size_t take = std::min(bytes, kStripe - pendingBytes_);
        std::memcpy(pending_ + pendingBytes_, p, take);
        pendingBytes_ += take;
        p += take;
        bytes -= take;
        if (pendingBytes_ < kStripe)
            return;
        consumeStripes(lanes_, pending_, kStripe);
        pendingBytes_ = 0;
    }
    const size_t used = consumeStripes(lanes_, p, bytes);
    pendingBytes_ = bytes - used;
    if (pendingBytes_ > 0)
        std::memcpy(pending_, p + used, pendingBytes_);
}

void
ContentHasher::addU64(uint64_t value)
{
    uint8_t le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<uint8_t>(value >> (8 * i));
    update(le, sizeof(le));
}

uint64_t
ContentHasher::digest() const
{
    // Fold the lanes one after another: each step is injective in its
    // lane for a fixed running value, so one changed lane changes h.
    uint64_t h = kK5;
    for (const uint64_t lane : lanes_) {
        h ^= mixWord(0, lane);
        h = h * kK1 + kK4;
    }
    h += total_;
    for (size_t i = 0; i < pendingBytes_; ++i) {
        h ^= pending_[i] * kK5;
        h = rotl(h, 11) * kK1;
    }
    // Bijective finalizer: xor-shifts and odd multiplies.
    h ^= h >> 33;
    h *= kK2;
    h ^= h >> 29;
    h *= kK3;
    h ^= h >> 32;
    return h;
}

uint64_t
contentHash64(const void *data, size_t bytes)
{
    ContentHasher hasher;
    hasher.update(data, bytes);
    return hasher.digest();
}

FileHash
hashFile(const std::string &path)
{
    FileHash result;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return result;
    // Unbuffered: reads land straight in `buf`, with no stdio copy.
    std::setvbuf(file, nullptr, _IONBF, 0);

    ContentHasher hasher;
    alignas(64) uint8_t buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
        hasher.update(buf, got);
        result.bytes += got;
    }
    result.hash = hasher.digest();
    result.ok = std::ferror(file) == 0;
    std::fclose(file);
    return result;
}

} // namespace webslice
