#include "support/lz.hh"

#include <cstring>

namespace webslice {

namespace {

// Stream shape (LZ4-flavoured): a sequence of
//   token byte: (literalLen:4 | matchLen:4)
//   [literalLen extension bytes of 255 while the nibble is 15]
//   literal bytes
//   2-byte LE match offset (absent after the final literals)
//   [matchLen extension bytes of 255 while the nibble is 15]
// Match length nibble encodes (length - kMinMatch).
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 0xFFFF;
constexpr unsigned kHashBits = 13;

uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

uint32_t
hash4(const uint8_t *p)
{
    return (load32(p) * 2654435761u) >> (32 - kHashBits);
}

uint8_t *
putLength(size_t len, uint8_t *op)
{
    while (len >= 255) {
        *op++ = 255;
        len -= 255;
    }
    *op++ = static_cast<uint8_t>(len);
    return op;
}

/**
 * Write one sequence at `op`; returns the new write position. A short
 * literal run is copied as one 16-byte word when `literals` has 16
 * readable bytes and `op` 16 writable ones (the caller's `wild` flag);
 * the bytes past the run are overwritten by what follows.
 */
uint8_t *
emitSequence(const uint8_t *literals, size_t literal_len, size_t offset,
             size_t match_len, uint8_t *op, bool wild)
{
    const uint8_t lit_nibble =
        static_cast<uint8_t>(literal_len < 15 ? literal_len : 15);
    size_t match_code = 0;
    uint8_t match_nibble = 0;
    if (match_len) {
        match_code = match_len - kMinMatch;
        match_nibble =
            static_cast<uint8_t>(match_code < 15 ? match_code : 15);
    }
    *op++ = static_cast<uint8_t>((lit_nibble << 4) | match_nibble);
    if (lit_nibble == 15)
        op = putLength(literal_len - 15, op);
    if (wild && literal_len <= 16)
        std::memcpy(op, literals, 16);
    else if (literal_len)
        std::memcpy(op, literals, literal_len);
    op += literal_len;
    if (!match_len)
        return op; // final literal run: no offset, no match extension
    *op++ = static_cast<uint8_t>(offset & 0xFF);
    *op++ = static_cast<uint8_t>(offset >> 8);
    if (match_nibble == 15)
        op = putLength(match_code - 15, op);
    return op;
}

/**
 * Length of the common prefix of `a` and `b` (a < b), starting at
 * `len` already-matched bytes, with `b + result` capped at `end`.
 * Compares a word at a time; the first differing byte is the lowest
 * set byte of the XOR on a little-endian target.
 */
size_t
extendMatch(const uint8_t *a, const uint8_t *b, size_t len,
            const uint8_t *end)
{
    while (b + len + 8 <= end) {
        const uint64_t diff = load64(a + len) ^ load64(b + len);
        if (diff)
            return len + (static_cast<size_t>(__builtin_ctzll(diff)) >> 3);
        len += 8;
    }
    while (b + len < end && a[len] == b[len])
        ++len;
    return len;
}

} // namespace

size_t
lzCompressBound(size_t size)
{
    // Every match sequence is no longer than the bytes it covers,
    // except for its literal-length extension (1 per 255 literals);
    // the final token plus its extension adds the constant.
    return size + size / 255 + 16;
}

void
lzCompress(const uint8_t *src, size_t size, std::vector<uint8_t> &out)
{
    const size_t base = out.size();
    out.resize(base + lzCompressBound(size));
    out.resize(base + lzCompress(src, size, out.data() + base));
}

size_t
lzCompress(const uint8_t *src, size_t size, uint8_t *dst)
{
    // Final-literals convention: the stream always ends with a
    // match-less token, so empty input encodes as a single zero token.
    const size_t bound = lzCompressBound(size);
    uint8_t *const begin = dst;
    uint8_t *op = begin;

    uint32_t table[1u << kHashBits];
    std::memset(table, 0xFF, sizeof(table)); // 0xFFFFFFFF = empty slot

    const uint8_t *const src_end = src + size;
    size_t pos = 0;
    size_t literal_start = 0;
    // Stop matching kMinMatch short of the end so hash4 stays in range.
    const size_t match_limit = size >= kMinMatch ? size - kMinMatch + 1 : 0;
    while (pos < match_limit) {
        const uint32_t h = hash4(src + pos);
        const uint32_t candidate = table[h];
        table[h] = static_cast<uint32_t>(pos);
        // An empty slot (0xFFFFFFFF) lies "ahead" of pos, so the
        // unsigned distance check rejects it too.
        if (pos - candidate <= kMaxOffset &&
            load32(src + candidate) == load32(src + pos)) {
            const size_t len =
                extendMatch(src + candidate, src + pos, kMinMatch, src_end);
            // A wild literal copy reads 16 bytes of input and writes
            // them after the token and at most one extension byte.
            const bool wild =
                size - literal_start >= 16 &&
                static_cast<size_t>(op - begin) + 18 <= bound;
            op = emitSequence(src + literal_start, pos - literal_start,
                              pos - candidate, len, op, wild);
            // Seed the table inside the match so the next search can
            // find overlapping repetitions (cheap, big win on the
            // near-periodic delta columns).
            const size_t end = pos + len;
            pos += 1;
            while (pos < end && pos < match_limit) {
                table[hash4(src + pos)] = static_cast<uint32_t>(pos);
                pos += 2;
            }
            pos = end;
            literal_start = pos;
        } else {
            ++pos;
        }
    }
    op = emitSequence(src + literal_start, size - literal_start, 0, 0, op,
                      false);
    return static_cast<size_t>(op - begin);
}

namespace {

/** Read a 255-extended length; false on truncation. */
bool
readLength(const uint8_t *&p, const uint8_t *end, size_t &len)
{
    while (true) {
        if (p >= end)
            return false;
        const uint8_t b = *p++;
        len += b;
        if (b != 255)
            return true;
    }
}

/**
 * Back-reference stride for offsets below 8: the smallest multiple of
 * the offset that is at least 8. The match is periodic in its offset,
 * so after its first 8 bytes it can be copied from that stride back in
 * whole non-overlapping words.
 */
constexpr uint8_t kPeriodStride[8] = {0, 8, 8, 9, 8, 10, 12, 14};

} // namespace

bool
lzDecompress(const uint8_t *src, size_t src_size, uint8_t *dst,
             size_t dst_size)
{
    const uint8_t *p = src;
    const uint8_t *const src_end = src + src_size;
    size_t out = 0;
    while (true) {
        if (p >= src_end)
            return false; // stream ended without a final-literals token
        const uint8_t token = *p++;
        size_t literal_len = token >> 4;
        if (literal_len == 15 && !readLength(p, src_end, literal_len))
            return false;
        if (literal_len > static_cast<size_t>(src_end - p) ||
            literal_len > dst_size - out)
            return false;
        if (static_cast<size_t>(src_end - p) >= 16 &&
            dst_size - out >= 16 && literal_len <= 16) {
            // Short run with room on both sides: one fixed-size copy;
            // bytes past the run are overwritten by what follows.
            std::memcpy(dst + out, p, 16);
        } else if (literal_len) {
            // Skip empty runs: dst and p may be null for empty buffers,
            // and memcpy requires valid pointers even for zero bytes.
            std::memcpy(dst + out, p, literal_len);
        }
        p += literal_len;
        out += literal_len;

        if (p == src_end) {
            // Stream end is only legal on a match-less final token.
            return (token & 0x0F) == 0 && out == dst_size;
        }
        if (src_end - p < 2)
            return false;
        const size_t offset = static_cast<size_t>(p[0]) |
                              (static_cast<size_t>(p[1]) << 8);
        p += 2;
        size_t match_len = (token & 0x0F);
        if (match_len == 15 && !readLength(p, src_end, match_len))
            return false;
        match_len += kMinMatch;
        if (offset == 0 || offset > out || match_len > dst_size - out)
            return false;
        const uint8_t *from = dst + out - offset;
        uint8_t *to = dst + out;
        out += match_len;
        if (dst_size - out >= 8) {
            // Room for an overshoot of up to 7 bytes past the match is
            // proven, so copy whole words; every word reads bytes at
            // least 8 behind the one it writes, all already final.
            uint8_t *const stop = to + match_len;
            if (offset < 8) {
                // Replay the first 8 bytes strictly forward, then
                // continue from a whole period at least 8 back.
                for (size_t i = 0; i < 8; ++i)
                    to[i] = from[i];
                to += 8;
                from = to - kPeriodStride[offset];
            }
            while (to < stop) {
                std::memcpy(to, from, 8);
                to += 8;
                from += 8;
            }
        } else {
            // Overlapping copy (offset < match_len) must replay bytes
            // as they are produced: copy strictly forward.
            for (size_t i = 0; i < match_len; ++i)
                to[i] = from[i];
        }
    }
}

} // namespace webslice
