#include "util/sha256.hpp"

#include <cstring>

#include "util/bytes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define CONCORD_SHA256_X86 1
#endif

namespace concord::util {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

std::string Hash256::to_hex() const { return util::to_hex(bytes); }

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Hash256 Sha256::finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Append the 0x80 terminator, zero-pad to 56 mod 64, then the 64-bit
  // big-endian message length. The padding is written into the buffer
  // directly: state roots hash many short messages (two-child trie
  // nodes), where feeding it byte by byte cost as much as the rounds.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Hash256 out;
  for (std::size_t i = 0; i < 8; ++i) {
    out.bytes[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

namespace detail {

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w{};
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0];
  std::uint32_t b = state[1];
  std::uint32_t c = state[2];
  std::uint32_t d = state[3];
  std::uint32_t e = state[4];
  std::uint32_t f = state[5];
  std::uint32_t g = state[6];
  std::uint32_t h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(CONCORD_SHA256_X86)
namespace {

/// SHA extensions plus the SSE levels the block function below uses.
bool cpu_has_sha_extensions() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1U << 9)) != 0;
  const bool sse41 = (ecx & (1U << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & (1U << 29)) != 0;
}

/// One block with the x86 SHA extensions: SHA256RNDS2 runs two rounds on
/// the state held as (ABEF, CDGH) lane pairs; SHA256MSG1/MSG2 expand the
/// message schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_extensions(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // words[g % 4] holds schedule words 4g..4g+3 while group g runs.
  __m128i words[4] = {};  // A std::array would drop __m128i's alignment attribute.
  for (std::size_t g = 0; g < 16; ++g) {
    __m128i& w = words[g % 4];
    if (g < 4) {
      w = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
                           byte_swap);
    } else {
      // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at once:
      // `w` still holds group g-4, words[(g+1) % 4] group g-3.
      const __m128i& prev = words[(g + 3) % 4];
      const __m128i t7 = _mm_alignr_epi8(prev, words[(g + 2) % 4], 4);
      w = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w, words[(g + 1) % 4]), t7),
                               prev);
    }
    __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

const bool kHasShaExtensions = cpu_has_sha_extensions();

}  // namespace

bool compress_hardware(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) noexcept {
  if (!kHasShaExtensions) return false;
  compress_sha_extensions(state, block);
  return true;
}
#else
bool compress_hardware(std::array<std::uint32_t, 8>&, const std::uint8_t*) noexcept {
  return false;
}
#endif

}  // namespace detail

void Sha256::process_block(const std::uint8_t* block) noexcept {
  if (!detail::compress_hardware(state_, block)) detail::compress_portable(state_, block);
}

Hash256 sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 sha256(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace concord::util
