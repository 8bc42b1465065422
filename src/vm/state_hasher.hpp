#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace concord::vm {

/// Folds the world's persistent state into one digest, the block's state
/// root: validators compare it with the root the miner published ("the
/// block's initial and final states"). World::state_root() opens with a
/// format label, then contracts fold their fields in a fixed order.
///
/// The fold itself is small. A scalar contributes its encoded value; a
/// collection contributes (label, size, root), where the root is a Merkle
/// trie its copy-on-write store keeps cached per page and per directory
/// (cow.hpp). That trie is what makes a root incremental: a block rehashes
/// only the pages it dirtied and their paths, not the whole state. The
/// root depends on content alone, never on the order of writes or on how
/// the stores happen to be laid out, so miner, validator and follower
/// agree byte for byte.
class StateHasher {
 public:
  StateHasher() = default;

  /// Opens the fold with a format label (World: "concord/state-root/v2").
  explicit StateHasher(std::string_view format) {
    writer_.reserve(kInitialCapacity);
    begin_section(format);
  }

  /// Starts a named section (contract address, field name); the label is
  /// folded into the digest so that structurally different states cannot
  /// collide by concatenation.
  void begin_section(std::string_view label) {
    writer_.put_string(label);
  }

  void put_bytes(std::span<const std::uint8_t> bytes) { writer_.put_bytes(bytes); }
  void put_u64(std::uint64_t v) { writer_.put_varint(v); }

  /// One collection: its label, entry count and trie root.
  void put_collection(std::string_view label, std::uint64_t size, const util::Hash256& root) {
    begin_section(label);
    put_u64(size);
    put_bytes(root.bytes);
  }

  /// Finishes and returns the state root.
  [[nodiscard]] util::Hash256 finish() const {
    return util::sha256(std::span<const std::uint8_t>(writer_.bytes()));
  }

 private:
  /// Room for a small world's fold without regrowing.
  static constexpr std::size_t kInitialCapacity = 256;

  util::ByteWriter writer_;
};

}  // namespace concord::vm
