#pragma once

#include <algorithm>
#include <concepts>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bytes.hpp"
#include "vm/types.hpp"

namespace concord::vm {

/// Deterministic value encoding used for two purposes that must agree
/// byte-for-byte between miners and validators on different machines:
/// state-root hashing (every storage value is folded into the root) and
/// transaction-argument serialization.
///
/// Built-in overloads cover integers, bool, strings and Address; struct
/// values stored in boosted maps (e.g. Ballot's Voter) provide a member
/// `void encode(util::ByteWriter&) const`, which the generic overload
/// picks up.
template <typename T>
concept MemberEncodable = requires(const T& v, util::ByteWriter& w) {
  { v.encode(w) };
};

inline void encode_value(util::ByteWriter& w, bool v) { w.put_u8(v ? 1 : 0); }

template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void encode_value(util::ByteWriter& w, T v) {
  w.put_varint(static_cast<std::uint64_t>(v));
}

template <std::signed_integral T>
void encode_value(util::ByteWriter& w, T v) {
  // Zigzag so small negative values stay compact and encoding is bijective.
  const auto wide = static_cast<std::int64_t>(v);
  w.put_varint((static_cast<std::uint64_t>(wide) << 1) ^
               static_cast<std::uint64_t>(wide >> 63));
}

inline void encode_value(util::ByteWriter& w, const std::string& v) { w.put_string(v); }

inline void encode_value(util::ByteWriter& w, const Address& v) { w.put_raw(v.bytes); }

template <MemberEncodable T>
void encode_value(util::ByteWriter& w, const T& v) {
  v.encode(w);
}

template <typename T>
void encode_value(util::ByteWriter& w, const std::vector<T>& v) {
  w.put_varint(v.size());
  for (const T& item : v) encode_value(w, item);
}

/// Canonical byte-string form of a value (what the state root hashes).
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encoded_bytes(const T& v) {
  util::ByteWriter w;
  encode_value(w, v);
  return std::move(w).take();
}

/// Decode counterparts, exact inverses of encode_value over the same
/// ByteReader stream position. Every path rejects malformed input with
/// util::DecodeError instead of silently truncating or wrapping: the
/// bytes come from untrusted peers on the wire, and the net layer's
/// decode→re-encode byte-identity guarantee needs a bijection — a value
/// that decodes must re-encode to the exact bytes it came from.
template <typename T>
concept MemberDecodable = requires(util::ByteReader& r) {
  { T::decode(r) } -> std::same_as<T>;
};

inline void decode_value(util::ByteReader& r, bool& v) {
  const std::uint8_t byte = r.get_u8();
  if (byte > 1) throw util::DecodeError("bool byte out of range");
  v = byte != 0;
}

template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void decode_value(util::ByteReader& r, T& v) {
  const std::uint64_t wide = r.get_varint();
  if (wide > std::numeric_limits<T>::max()) {
    throw util::DecodeError("varint exceeds field width");
  }
  v = static_cast<T>(wide);
}

template <std::signed_integral T>
void decode_value(util::ByteReader& r, T& v) {
  const std::uint64_t zz = r.get_varint();
  const auto wide = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  if (wide < std::numeric_limits<T>::min() || wide > std::numeric_limits<T>::max()) {
    throw util::DecodeError("zigzag varint exceeds field width");
  }
  v = static_cast<T>(wide);
}

inline void decode_value(util::ByteReader& r, std::string& v) { v = r.get_string(); }

inline void decode_value(util::ByteReader& r, Address& v) {
  const auto raw = r.get_raw(v.bytes.size());
  std::copy(raw.begin(), raw.end(), v.bytes.begin());
}

template <MemberDecodable T>
void decode_value(util::ByteReader& r, T& v) {
  v = T::decode(r);
}

template <typename T>
void decode_value(util::ByteReader& r, std::vector<T>& v) {
  // Element floor of 1 byte: every encode_value emits at least one byte,
  // so a forged count larger than the remaining input dies here instead
  // of in reserve().
  const std::uint64_t n = r.get_count(/*min_item_bytes=*/1);
  v.clear();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    T item{};
    decode_value(r, item);
    v.push_back(std::move(item));
  }
}

/// One-expression flavor for default-constructible values.
template <typename T>
[[nodiscard]] T decoded_value(util::ByteReader& r) {
  T v{};
  decode_value(r, v);
  return v;
}

}  // namespace concord::vm
