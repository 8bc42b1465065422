#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/sha256.hpp"
#include "vm/arena.hpp"
#include "vm/codec.hpp"

namespace concord::vm {

/// Copy-on-write backing stores for the boosted collections.
///
/// Every collection keeps its committed state behind one of these value
/// types. Copying one is the *fork* operation: it shares the underlying
/// pages through shared_ptr handles in O(1), and the first mutation after
/// a fork detaches only what it touches (ensure-unique on write). That is
/// what makes `World::fork()` an O(contracts) operation and a block-
/// boundary `WorldSnapshot` O(dirty set since the last boundary) instead
/// of O(state) — the frozen side of a fork keeps reading the shared pages
/// while the mutable side peels off private copies entry by entry.
///
/// State hashing lives here too. Each page (and each CowChunks chunk)
/// caches the digest of its own entries, each directory caches the upper
/// levels of a Merkle trie over those digests, and `root()` rehashes only
/// what writes invalidated since the last call: the dirty pages and their
/// paths to the root. The ensure-unique-on-write detach is where digests
/// drop — a copied page starts without one, a private page loses its own
/// before it is mutated, and every write clears the cached path above it.
///
/// Memory layer: every allocation these types make — page payloads and
/// their control blocks, entry buffers, directories — is routed through
/// an optional World-scoped PageArena (see arena.hpp); only the state-
/// trie caches (digest records, trie slots) use the global heap, see
/// PageDigest. The arena handle
/// travels with the value on copy/fork, so an entire World lineage
/// (snapshots, ring entries, validator replicas) recycles pages from one
/// pool; a null handle (the default) reproduces the plain-heap baseline
/// byte for byte. set_arena() only steers *future* allocations — already
/// shared pages keep their original backing, which is what lets a lineage
/// adopt an arena mid-life without touching shared state.
///
/// Concurrency contract (matches the collections' existing one): all
/// access to a *given* CowPages/CowChunks/CowBox instance must be
/// externally serialized (the collections hold their short physical mutex
/// across every call). Distinct instances that *share pages* may be used
/// from different threads freely: shared pages are never mutated in
/// place — a writer first proves sole ownership (sole_owner below) or
/// copies. The uniqueness check is sound because gaining a new reference
/// to a page requires copying a handle that owns it, which the owning
/// instance's external lock serializes; a concurrent *release* elsewhere
/// can only make a page spuriously look shared, forcing a harmless copy.
/// The arena slots freed by that releasing thread re-enter circulation
/// through PageArena's internal lock, so recycled memory is equally
/// ordered. Digest caches are the one thing written into shared pages and
/// directories: root() on two forks may fill the same slot at once, which
/// PageDigest and DigestSlot make race-free (see there).

namespace cow_detail {

/// splitmix64 finalizer (local copy — cow.hpp stays dependency-light).
/// Page indices must stay well-distributed even when the caller's hash is
/// only mixed in the high bits.
[[nodiscard]] constexpr std::uint64_t remix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// True when `handle` is the only owner, with the memory ordering that
/// makes in-place mutation after the check sound. use_count() loads
/// relaxed, so observing 1 alone does not synchronize with the thread
/// that just *released* the other reference — its reads of the page
/// could still race with our upcoming writes (the reason
/// shared_ptr::unique() was deprecated). The acquire fence pairs with
/// the release semantics of that final refcount decrement, ordering the
/// releaser's accesses before ours. Arena-backed pages use the standard
/// shared_ptr control block (allocate_shared), so this protocol is
/// identical with the arena on or off.
template <typename T>
[[nodiscard]] inline bool sole_owner(const std::shared_ptr<T>& handle) noexcept {
  if (handle.use_count() != 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
}

// ── State trie ─────────────────────────────────────────────────────────
//
// The root of a collection is a function of its contents alone — never of
// its directory size, which differs between lineages holding the same
// entries (reserve() pre-sizes, the directory never shrinks, and insert/
// erase order decides where a doubling falls). The shape is a binary trie
// over the low bits of remix64(hash(key)) — the same bits page_index
// reads — so page i of a 2^D directory is exactly trie node (D, i), and
// its parent is (D−1, i mod 2^(D−1)). digest(S, d) of the entries S below
// a depth-d node is:
//   - the fixed empty digest (all zero) when S is empty;
//   - a bucket, SHA-256(0x01 ‖ |S| ‖ entries sorted by encoded key), when
//     |S| ≤ the bucket limit or every entry in S has the same 64-bit hash;
//   - otherwise a node, SHA-256(0x02 ‖ digest(S0, d+1) ‖ digest(S1, d+1)),
//     splitting S on hash bit d.
// So a subtree holding one small bucket collapses to it at any depth, and
// the digest of a page equals the digest of that trie node however many
// pages the directory has.

/// One trie subtree as its parent needs it: the digest, how many entries
/// lie below (capped one past the bucket limit — combine() only asks
/// "within the limit or not"), and whether the digest hashes entries
/// directly (a bucket) or two children (a node).
struct SubtreeDigest {
  util::Hash256 digest{};  ///< All-zero for the empty subtree.
  std::uint8_t count = 0;
  bool bucket = false;
};

inline constexpr std::uint8_t kBucketTag = 0x01;
inline constexpr std::uint8_t kNodeTag = 0x02;
inline constexpr std::uint8_t kChunkTag = 0x03;

/// A directory's cached trie node, which forks may fill concurrently.
/// Directories (like pages) are shared between lineages, so the miner's
/// world, the validator's replica and any retained snapshot can hash one
/// node at the same moment; each computes the same bytes. The first to
/// claim the slot publishes (CAS empty→busy, store the words, release-
/// store ready), and readers acquire `ready` before reading the words.
/// Every field is an atomic, so no interleaving is a data race. Only an
/// instance that proved sole ownership of the directory invalidates, and
/// it does so with an RMW that orders it after the last publisher.
class DigestSlot {
 public:
  DigestSlot() = default;
  DigestSlot(const DigestSlot&) = delete;
  DigestSlot& operator=(const DigestSlot&) = delete;

  [[nodiscard]] bool load(SubtreeDigest& out) const noexcept {
    const std::uint32_t tag = tag_.load(std::memory_order_acquire);
    if ((tag & kStateMask) != kReady) return false;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t word = words_[i].load(std::memory_order_relaxed);
      std::memcpy(out.digest.bytes.data() + 8 * i, &word, 8);
    }
    out.count = static_cast<std::uint8_t>(tag >> 8);
    out.bucket = ((tag >> 16) & 1U) != 0;
    return true;
  }

  /// Publishes `value` unless another thread already claimed the slot
  /// (it is publishing the same bytes). Const: a cache fill, not a write
  /// to the state the slot describes.
  void publish(const SubtreeDigest& value) const noexcept {
    std::uint32_t expected = kEmpty;
    if (!tag_.compare_exchange_strong(expected, kBusy, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return;
    }
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, value.digest.bytes.data() + 8 * i, 8);
      words_[i].store(word, std::memory_order_relaxed);
    }
    tag_.store(kReady | (std::uint32_t{value.count} << 8) | (value.bucket ? 1U << 16 : 0U),
               std::memory_order_release);
  }

  /// Whether a digest is published. Exact for a sole owner (no publisher
  /// can be in flight); a hint otherwise.
  [[nodiscard]] bool ready() const noexcept {
    return (tag_.load(std::memory_order_relaxed) & kStateMask) == kReady;
  }

  /// Drops the digest. Caller is the sole owner of the page/directory.
  void invalidate() noexcept {
    if (tag_.load(std::memory_order_relaxed) != kEmpty) {
      tag_.exchange(kEmpty, std::memory_order_acq_rel);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kBusy = 1;
  static constexpr std::uint32_t kReady = 2;
  static constexpr std::uint32_t kStateMask = 0xff;

  mutable std::atomic<std::uint32_t> tag_{kEmpty};  ///< state | count << 8 | bucket << 16
  mutable std::array<std::atomic<std::uint64_t>, 4> words_{};
};

/// A page's (or chunk's) cached digest, held out of line so the slot is
/// one pointer: control block, entry vector and slot then fit one 64-byte
/// arena block, as the page did before it cached anything — genesis
/// seeding allocates a page per 8 entries and pays for every byte. The
/// record lives on the global heap, not in the page's arena: whichever
/// thread computes a root allocates it and whichever drops the page frees
/// it, and the arena strands such cross-thread frees in the freeing
/// thread's stripe (records in the arena doubled paper-mixed's peak RSS
/// over a 30 s nodebench run). Publishing builds the record, then CASes
/// it in (null → record, release); the loser frees its own, and readers
/// acquire the pointer before reading the record. Only a sole owner of
/// the page resets it, so no reader holds the record it frees.
class PageDigest {
 public:
  PageDigest() = default;
  PageDigest(const PageDigest&) = delete;
  PageDigest& operator=(const PageDigest&) = delete;
  ~PageDigest() { reset(); }

  [[nodiscard]] bool load(SubtreeDigest& out) const noexcept {
    const SubtreeDigest* record = record_.load(std::memory_order_acquire);
    if (record == nullptr) return false;
    out = *record;
    return true;
  }

  /// Const for the same reason as DigestSlot::publish.
  void publish(const SubtreeDigest& value) const {
    auto record = std::make_unique<SubtreeDigest>(value);
    SubtreeDigest* expected = nullptr;
    if (record_.compare_exchange_strong(expected, record.get(), std::memory_order_release,
                                        std::memory_order_relaxed)) {
      record.release();
    }
  }

  /// Drops the digest. Caller is the sole owner of the page (or is
  /// destroying it).
  void reset() noexcept {
    if (record_.load(std::memory_order_relaxed) == nullptr) return;
    delete record_.exchange(nullptr, std::memory_order_acquire);
  }

 private:
  mutable std::atomic<SubtreeDigest*> record_{nullptr};
};

[[nodiscard]] inline SubtreeDigest node_digest(const SubtreeDigest& lo, const SubtreeDigest& hi,
                                               std::size_t bucket_limit) {
  std::array<std::uint8_t, 1 + 2 * sizeof(util::Hash256::bytes)> message{kNodeTag};
  std::memcpy(message.data() + 1, lo.digest.bytes.data(), lo.digest.bytes.size());
  std::memcpy(message.data() + 1 + lo.digest.bytes.size(), hi.digest.bytes.data(),
              hi.digest.bytes.size());
  return SubtreeDigest{util::sha256(message), static_cast<std::uint8_t>(bucket_limit + 1), false};
}

/// The digest of a subtree from its two halves. `gather()` hashes every
/// entry below as one bucket; it runs only when both halves are non-empty
/// and together fit the bucket limit.
template <typename Gather>
[[nodiscard]] SubtreeDigest combine(const SubtreeDigest& lo, const SubtreeDigest& hi,
                                    std::size_t bucket_limit, const Gather& gather) {
  if (lo.count == 0 && (hi.count == 0 || hi.bucket)) return hi;
  if (hi.count == 0 && lo.bucket) return lo;
  if (lo.count != 0 && hi.count != 0 && lo.count + hi.count <= bucket_limit) return gather();
  return node_digest(lo, hi, bucket_limit);
}

/// A map entry with its trie hash (remix64 of the key hash).
template <typename Entry>
struct HashedEntry {
  std::uint64_t hash;
  const Entry* entry;
};

/// Per-thread encoding buffers for bucket and chunk digests: a root hashes
/// thousands of small buckets, and allocating fresh buffers for each was
/// a measurable share of it. Neither digest calls back into root(), so
/// one set per thread suffices.
struct BucketScratch {
  struct Item {
    std::size_t key, value, end;  ///< Offsets into `flat`.
  };
  util::ByteWriter flat;     ///< Encoded keys and values (elements).
  std::vector<Item> items;
  util::ByteWriter message;  ///< The framed bytes one digest hashes.
};

[[nodiscard]] inline BucketScratch& bucket_scratch() {
  thread_local BucketScratch scratch;
  return scratch;
}

/// The bucket digest of `entries`, in any order: sorted by encoded key,
/// each key and value length-prefixed in its encode_value form.
template <typename Entry>
[[nodiscard]] SubtreeDigest bucket_digest(std::span<const HashedEntry<Entry>> entries,
                                          std::size_t bucket_limit) {
  using Item = BucketScratch::Item;
  BucketScratch& scratch = bucket_scratch();
  util::ByteWriter& flat = scratch.flat;
  std::vector<Item>& items = scratch.items;
  flat.clear();
  items.clear();
  for (const HashedEntry<Entry>& e : entries) {
    const std::size_t key = flat.size();
    encode_value(flat, e.entry->first);
    const std::size_t value = flat.size();
    encode_value(flat, e.entry->second);
    items.push_back(Item{key, value, flat.size()});
  }
  const std::uint8_t* buf = flat.bytes().data();
  std::sort(items.begin(), items.end(), [buf](const Item& a, const Item& b) {
    return std::lexicographical_compare(buf + a.key, buf + a.value, buf + b.key, buf + b.value);
  });
  util::ByteWriter& message = scratch.message;
  message.clear();
  message.put_u8(kBucketTag);
  message.put_varint(items.size());
  for (const Item& item : items) {
    message.put_bytes(std::span(buf + item.key, item.value - item.key));
    message.put_bytes(std::span(buf + item.value, item.end - item.value));
  }
  return SubtreeDigest{util::sha256(message.bytes()),
                       static_cast<std::uint8_t>(std::min(entries.size(), bucket_limit + 1)), true};
}

/// digest(S, depth) of a span of entries that share their low `depth`
/// hash bits (see the trie comment above). Reorders `entries`.
template <typename Entry>
[[nodiscard]] SubtreeDigest entries_digest(std::span<HashedEntry<Entry>> entries, unsigned depth,
                                           std::size_t bucket_limit) {
  if (entries.empty()) return SubtreeDigest{};
  const std::uint64_t first = entries.front().hash;
  const bool collided = std::all_of(entries.begin(), entries.end(),
                                    [first](const HashedEntry<Entry>& e) { return e.hash == first; });
  const std::span<const HashedEntry<Entry>> all(entries);
  if (entries.size() <= bucket_limit || collided) {
    return bucket_digest(all, bucket_limit);
  }
  // Entries differ in some bit >= depth (they agree below it), so
  // depth < 64 here.
  const auto mid = std::partition(entries.begin(), entries.end(), [depth](const auto& e) {
    return ((e.hash >> depth) & 1U) == 0;
  });
  const auto split = static_cast<std::size_t>(mid - entries.begin());
  const SubtreeDigest lo = entries_digest(entries.first(split), depth + 1, bucket_limit);
  const SubtreeDigest hi = entries_digest(entries.subspan(split), depth + 1, bucket_limit);
  return combine(lo, hi, bucket_limit, [&] { return bucket_digest(all, bucket_limit); });
}

/// The cached upper levels of one directory's trie: node (d, j) of a
/// 2^depth-leaf directory lives at slot 2^d + j. The two levels right
/// above the leaves are not cached — they are most of the nodes, every
/// retained snapshot holds its own copy of this cache, and rebuilding
/// them from the leaves' cached digests costs a few hashes per dirty
/// leaf — so a directory of P leaves carries P/4 slots. Like the page
/// digest records, the slots live on the global heap, not in the arena.
class TrieCache {
 public:
  explicit TrieCache(unsigned depth)
      : depth_(depth),
        cached_(depth > kUncachedLevels ? depth - kUncachedLevels : 0),
        slots_(cached_ == 0 ? 0 : std::size_t{1} << cached_) {}

  /// A copy for a detached directory: keeps the digests `other` has
  /// published so far (the detaching writer then clears its own path).
  /// Copied deepest level first, and a node only above two copied
  /// children: another fork may be publishing into `other` right now, and
  /// a parent whose child is still in flight would break the invariant
  /// invalidate_path() leans on.
  TrieCache(const TrieCache& other)
      : depth_(other.depth_), cached_(other.cached_), slots_(other.slots_.size()) {
    SubtreeDigest value;
    for (unsigned d = cached_; d-- > 0;) {
      const std::size_t width = std::size_t{1} << d;
      for (std::size_t j = 0; j < width; ++j) {
        // Children of node (d, j): (d+1, j) and (d+1, j | 2^d).
        const bool children = d + 1 == cached_ || (slots_[2 * width + j].ready() &&
                                                   slots_[3 * width + j].ready());
        if (children && other.slots_[width + j].load(value)) slots_[width + j].publish(value);
      }
    }
  }

  TrieCache& operator=(const TrieCache&) = delete;

  [[nodiscard]] unsigned depth() const noexcept { return depth_; }

  /// Starts over at `depth` with nothing cached. Sole owner only.
  void reset(unsigned depth) {
    depth_ = depth;
    cached_ = depth > kUncachedLevels ? depth - kUncachedLevels : 0;
    std::vector<DigestSlot> fresh(cached_ == 0 ? 0 : std::size_t{1} << cached_);
    slots_.swap(fresh);
  }

  /// Drops every cached node above `leaf`. Sole owner only. Walks up
  /// from the leaf and stops at the first empty slot: in a directory no
  /// other fork holds, an empty node has only empty ancestors. root()
  /// publishes children before parents, a publish that loses its CAS
  /// defers to one that completes, this walk clears whole paths, and the
  /// copy constructor keeps no parent above a missing child. So writes
  /// between two roots (genesis seeding, a block) pay one load each
  /// after the first write on a path.
  void invalidate_path(std::size_t leaf) noexcept {
    for (unsigned d = cached_; d-- > 0;) {
      DigestSlot& slot = slots_[(std::size_t{1} << d) | (leaf & ((std::size_t{1} << d) - 1))];
      if (!slot.ready()) return;
      slot.invalidate();
    }
  }

  /// The root: leaf(i) is leaf i's digest, gather(d, j) the bucket digest
  /// of every entry below node (d, j). Recomputes only uncached nodes.
  template <typename Leaf, typename Gather>
  [[nodiscard]] SubtreeDigest root(std::size_t bucket_limit, const Leaf& leaf,
                                   const Gather& gather) const {
    return node(0, 0, bucket_limit, leaf, gather);
  }

 private:
  static constexpr unsigned kUncachedLevels = 2;

  template <typename Leaf, typename Gather>
  [[nodiscard]] SubtreeDigest node(unsigned d, std::size_t j, std::size_t bucket_limit,
                                   const Leaf& leaf, const Gather& gather) const {
    if (d == depth_) return leaf(j);
    const DigestSlot* slot = d < cached_ ? &slots_[(std::size_t{1} << d) | j] : nullptr;
    SubtreeDigest out;
    if (slot != nullptr && slot->load(out)) return out;
    const SubtreeDigest lo = node(d + 1, j, bucket_limit, leaf, gather);
    const SubtreeDigest hi = node(d + 1, j | (std::size_t{1} << d), bucket_limit, leaf, gather);
    out = combine(lo, hi, bucket_limit, [&] { return gather(d, j); });
    if (slot != nullptr) slot->publish(out);
    return out;
  }

  unsigned depth_;
  unsigned cached_;  ///< Depths [0, cached_) have slots.
  std::vector<DigestSlot> slots_;
};

}  // namespace cow_detail

/// A paged COW hash table: the map form all three boosted maps build on.
///
/// Two-level structure, copy-on-write at both levels:
///   directory (shared_ptr) ──▶ [ page*, page*, … ]  each page (shared_ptr)
///                                                    ──▶ small vector of
///                                                        (key, value)
/// Copying a CowPages copies one shared_ptr. The first write after a fork
/// copies the directory (a vector of page handles, ~size/kTargetFill
/// entries, plus its trie cache) and the one touched page (≤
/// ~2·kTargetFill entries); every further write to an already-private
/// page is as cheap as before the fork. Pages are small unsorted vectors
/// searched linearly — at the target fill that beats a per-page hash
/// table on both copy cost and memory, and iteration order never matters
/// because buckets hash sorted by encoded key.
template <typename K, typename V, typename Hash>
class CowPages {
 public:
  CowPages() : CowPages(ArenaHandle{}) {}

  /// All allocations (pages, buffers, directories) go through `arena`;
  /// null = global heap.
  explicit CowPages(ArenaHandle arena) : arena_(std::move(arena)) {
    dir_ = make_dir(1);
    dir_->pages.push_back(make_page());
  }

  /// Copying IS forking: O(1), shares the directory and every page (and
  /// the arena they live in).
  CowPages(const CowPages&) = default;
  CowPages& operator=(const CowPages&) = default;
  CowPages(CowPages&&) noexcept = default;
  CowPages& operator=(CowPages&&) noexcept = default;

  /// Named fork for call-site readability.
  [[nodiscard]] CowPages fork() const { return *this; }

  /// Routes future allocations through `arena` (existing pages keep the
  /// backing they were allocated from). Call while externally
  /// serialized, like every other mutation — and only before the first
  /// arena-backed page exists (World binds at construction): the handle
  /// stored here is what keeps the arena alive for this collection's
  /// pages, so swapping it later could orphan them.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const ArenaHandle& arena() const noexcept { return arena_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Number of pages in the directory (diagnostic; forks copy this many
  /// handles on their first post-fork write).
  [[nodiscard]] std::size_t page_count() const noexcept { return dir_->pages.size(); }

  /// Pre-sizes the directory for `expected_entries` total entries, so a
  /// large genesis seed (the million-account workloads) runs without the
  /// doubling walk — each doubling is O(size) and reallocates every page,
  /// which is exactly the repeated-rehash traffic reserve() removes.
  /// Never shrinks. Safe at any fill (entries are rehashed once); like
  /// every mutation it detaches from any fork sharing the directory.
  void reserve(std::size_t expected_entries) {
    std::size_t target = 1;
    while (target * kTargetFill < expected_entries &&
           target < (std::size_t{1} << 62)) {
      target <<= 1;
    }
    if (target > dir_->pages.size()) rehash_to(target);
  }

  [[nodiscard]] const V* find(const K& key) const {
    const Page& page = *dir_->pages[page_index(key)];
    for (const auto& entry : page.entries) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(const K& key) const { return find(key) != nullptr; }

  void insert_or_assign(const K& key, V value) {
    Page& page = mutable_page_for(key);
    for (auto& entry : page.entries) {
      if (entry.first == key) {
        entry.second = std::move(value);
        return;
      }
    }
    if (grow_if_needed()) {
      // The directory was rebuilt; the old page reference is stale.
      mutable_page_for(key).entries.emplace_back(key, std::move(value));
    } else {
      page.entries.emplace_back(key, std::move(value));
    }
    ++size_;
  }

  /// Returns whether a binding existed.
  bool erase(const K& key) {
    Page& page = mutable_page_for(key);
    auto& entries = page.entries;
    for (auto& entry : entries) {
      if (entry.first == key) {
        // Swap-remove; order within a page is free (buckets sort).
        if (&entry != &entries.back()) entry = std::move(entries.back());
        entries.pop_back();
        --size_;
        return true;
      }
    }
    return false;
  }

  /// The read-modify-write primitive behind BoostedMap::update: detaches
  /// the page, binds `fallback` when the key is absent, and returns a
  /// mutable reference valid until the next call on this instance.
  /// `inserted` (optional) reports whether the fallback was used.
  V& get_or_emplace(const K& key, V fallback, bool* inserted = nullptr) {
    Page& page = mutable_page_for(key);
    for (auto& entry : page.entries) {
      if (entry.first == key) {
        if (inserted != nullptr) *inserted = false;
        return entry.second;
      }
    }
    if (inserted != nullptr) *inserted = true;
    ++size_;
    if (grow_if_needed()) {
      Page& fresh = mutable_page_for(key);
      return fresh.entries.emplace_back(key, std::move(fallback)).second;
    }
    return page.entries.emplace_back(key, std::move(fallback)).second;
  }

  /// Visits every entry as fn(const K&, const V&); unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& page : dir_->pages) {
      for (const auto& entry : page->entries) fn(entry.first, entry.second);
    }
  }

  /// The state-trie root of the current contents (all-zero when empty):
  /// a function of the entries alone, whatever the directory size.
  /// Rehashes only the pages written since the last call and their
  /// paths; caches what it computes in the (possibly shared) pages and
  /// directory.
  [[nodiscard]] util::Hash256 root() const {
    const Dir& dir = *dir_;
    const unsigned depth = dir.trie.depth();
    const auto leaf = [&dir, depth](std::size_t i) { return page_digest(*dir.pages[i], depth); };
    const auto gather = [&dir](unsigned d, std::size_t j) {
      std::vector<Hashed>& below = hashed_scratch();
      below.clear();
      for (std::size_t i = j; i < dir.pages.size(); i += std::size_t{1} << d) {
        for (const Entry& entry : dir.pages[i]->entries) below.push_back(hashed(entry));
      }
      return cow_detail::bucket_digest(std::span<const Hashed>(below), kBucketLimit);
    };
    return dir.trie.root(kBucketLimit, leaf, gather).digest;
  }

 private:
  using Entry = std::pair<K, V>;
  using Hashed = cow_detail::HashedEntry<Entry>;

  /// One page: its entries plus the cached digest of its trie node.
  struct Page {
    explicit Page(const ArenaHandle& arena) : entries(ArenaAllocator<Entry>(arena)) {}
    /// A detached copy: same entries, no digest (the copy is about to
    /// be written).
    Page(const Page& src, const ArenaHandle& arena)
        : entries(src.entries, ArenaAllocator<Entry>(arena)) {}
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;

    std::vector<Entry, ArenaAllocator<Entry>> entries;
    cow_detail::PageDigest digest;
  };

  using PageHandle = std::shared_ptr<Page>;

  /// The directory: 2^D page handles plus the cached trie above them.
  struct Dir {
    Dir(std::size_t pages_hint, const ArenaHandle& arena)
        : pages(ArenaAllocator<PageHandle>(arena)),
          trie(static_cast<unsigned>(std::countr_zero(pages_hint))) {
      pages.reserve(pages_hint);
    }
    Dir(const Dir& src, const ArenaHandle& arena)
        : pages(src.pages, ArenaAllocator<PageHandle>(arena)),
          trie(src.trie) {}

    std::vector<PageHandle, ArenaAllocator<PageHandle>> pages;
    cow_detail::TrieCache trie;
  };

  /// Average entries per page before the directory doubles. Small enough
  /// that a post-fork detach copies a handful of entries; large enough
  /// that the directory (copied wholesale on the first post-fork write)
  /// stays a fraction of the entry count.
  static constexpr std::size_t kTargetFill = 8;

  /// Trie subtrees holding at most this many entries hash as one bucket.
  /// At the target fill a typical page is a single bucket.
  static constexpr std::size_t kBucketLimit = kTargetFill;

  [[nodiscard]] static std::uint64_t trie_hash(const K& key) noexcept {
    return cow_detail::remix64(Hash{}(key));
  }

  [[nodiscard]] static Hashed hashed(const Entry& entry) noexcept {
    return Hashed{trie_hash(entry.first), &entry};
  }

  /// Per-thread buffer for the entries of one page or one gathered
  /// bucket (see cow_detail::BucketScratch).
  [[nodiscard]] static std::vector<Hashed>& hashed_scratch() {
    thread_local std::vector<Hashed> scratch;
    return scratch;
  }

  [[nodiscard]] static cow_detail::SubtreeDigest page_digest(const Page& page, unsigned depth) {
    cow_detail::SubtreeDigest digest;
    if (page.digest.load(digest)) return digest;
    std::vector<Hashed>& entries = hashed_scratch();
    entries.clear();
    for (const Entry& entry : page.entries) entries.push_back(hashed(entry));
    digest = cow_detail::entries_digest(std::span<Hashed>(entries), depth, kBucketLimit);
    page.digest.publish(digest);
    return digest;
  }

  [[nodiscard]] PageHandle make_page() const { return arena_make_shared<Page>(arena_, arena_); }

  [[nodiscard]] PageHandle copy_page(const Page& src) const {
    return arena_make_shared<Page>(arena_, src, arena_);
  }

  [[nodiscard]] std::shared_ptr<Dir> make_dir(std::size_t pages) const {
    return arena_make_shared<Dir>(arena_, pages, arena_);
  }

  [[nodiscard]] std::shared_ptr<Dir> copy_dir(const Dir& src) const {
    return arena_make_shared<Dir>(arena_, src, arena_);
  }

  [[nodiscard]] std::size_t page_index(const K& key) const noexcept {
    return static_cast<std::size_t>(trie_hash(key)) & (dir_->pages.size() - 1);
  }

  /// Ensure-unique on write, both levels: private directory, then a
  /// private copy of the page the key lands in. Either way the page's
  /// digest and the cached path above it are gone before the caller
  /// writes.
  Page& mutable_page_for(const K& key) {
    if (!cow_detail::sole_owner(dir_)) dir_ = copy_dir(*dir_);
    const std::size_t index = page_index(key);
    auto& slot = dir_->pages[index];
    if (cow_detail::sole_owner(slot)) {
      slot->digest.reset();
    } else {
      slot = copy_page(*slot);
    }
    dir_->trie.invalidate_path(index);
    return *slot;
  }

  /// Doubles the directory when the average fill exceeds the target.
  /// Returns true when pages moved (references into them are stale).
  /// O(size) when it fires, amortized O(1) per insert — and it only runs
  /// on a *growing* lineage, never as part of fork or snapshot.
  bool grow_if_needed() {
    if (size_ < dir_->pages.size() * kTargetFill) return false;
    rehash_to(dir_->pages.size() * 2);
    return true;
  }

  /// Rebuilds the directory at `new_pages` slots (a power of two),
  /// redistributing every entry. Shared by the doubling path and
  /// reserve(). Every digest starts over (the next root() is a cold one).
  void rehash_to(std::size_t new_pages) {
    auto grown = make_dir(new_pages);
    for (std::size_t i = 0; i < new_pages; ++i) {
      grown->pages.push_back(make_page());
    }
    for (const auto& page : dir_->pages) {
      for (const auto& entry : page->entries) {
        const std::size_t idx = static_cast<std::size_t>(trie_hash(entry.first)) & (new_pages - 1);
        grown->pages[idx]->entries.push_back(entry);
      }
    }
    dir_ = std::move(grown);
  }

  /// Owns the arena on behalf of every page below. Must stay declared
  /// before dir_: ArenaAllocator is non-owning, so the pages have to be
  /// destroyed (and their memory returned) before the handle drops.
  ArenaHandle arena_;
  std::shared_ptr<Dir> dir_;
  std::size_t size_ = 0;
};

/// A chunked COW vector: BoostedArray's backing store. Same two-level
/// scheme as CowPages with fixed-capacity chunks, so set/push/pop after a
/// fork detach one chunk (≤ kChunkCapacity elements), not the array.
///
/// Hashing mirrors CowPages: each chunk caches a digest of its elements,
/// and the directory caches a trie over chunk indices (low bits first,
/// 2^D ≥ chunk count leaves, missing chunks empty). The chunk count is a
/// function of the size, so this shape is content-only too; a push or pop
/// that changes D restarts the trie cache, chunk digests survive.
template <typename T>
class CowChunks {
 public:
  static constexpr std::size_t kChunkCapacity = 64;

  CowChunks() : CowChunks(ArenaHandle{}) {}

  explicit CowChunks(ArenaHandle arena) : arena_(std::move(arena)) {
    dir_ = arena_make_shared<Dir>(arena_, arena_);
  }

  CowChunks(const CowChunks&) = default;
  CowChunks& operator=(const CowChunks&) = default;
  CowChunks(CowChunks&&) noexcept = default;
  CowChunks& operator=(CowChunks&&) noexcept = default;

  [[nodiscard]] CowChunks fork() const { return *this; }

  /// See CowPages::set_arena.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const ArenaHandle& arena() const noexcept { return arena_; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Bounds-checked, like std::vector::at (the callers' safety nets —
  /// BoostedArray's revert-on-out-of-range contract — lean on it).
  [[nodiscard]] const T& at(std::size_t index) const {
    if (index >= size_) throw std::out_of_range("CowChunks::at");
    return dir_->chunks[index / kChunkCapacity]->values[index % kChunkCapacity];
  }

  [[nodiscard]] const T& back() const { return at(size_ - 1); }

  void set(std::size_t index, T value) {
    if (index >= size_) throw std::out_of_range("CowChunks::set");
    mutable_chunk(index / kChunkCapacity)[index % kChunkCapacity] = std::move(value);
  }

  /// In-place read-modify-write of one element (commutative adds).
  template <typename Fn>
  void mutate(std::size_t index, Fn&& fn) {
    if (index >= size_) throw std::out_of_range("CowChunks::mutate");
    fn(mutable_chunk(index / kChunkCapacity)[index % kChunkCapacity]);
  }

  void push_back(T value) {
    ensure_unique_dir();
    if (size_ % kChunkCapacity == 0) {
      auto chunk = arena_make_shared<Chunk>(arena_, arena_);
      chunk->values.reserve(kChunkCapacity);
      dir_->chunks.push_back(std::move(chunk));
      fit_trie();
    }
    mutable_chunk(size_ / kChunkCapacity).push_back(std::move(value));
    ++size_;
  }

  /// Precondition: !empty().
  void pop_back() {
    ensure_unique_dir();
    const std::size_t last = size_ - 1;
    mutable_chunk(last / kChunkCapacity).pop_back();
    if (last % kChunkCapacity == 0) {  // Chunk emptied out.
      dir_->chunks.pop_back();
      fit_trie();
    }
    --size_;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : dir_->chunks) {
      for (const T& value : chunk->values) fn(value);
    }
  }

  /// The state-trie root of the elements (all-zero when empty); see
  /// CowPages::root.
  [[nodiscard]] util::Hash256 root() const {
    const Dir& dir = *dir_;
    const auto leaf = [&dir](std::size_t i) {
      return i < dir.chunks.size() ? chunk_digest(*dir.chunks[i]) : cow_detail::SubtreeDigest{};
    };
    // Chunks never merge: with a bucket limit of 0 two non-empty halves
    // always form a node, so gather() is unreachable.
    const auto gather = [](unsigned, std::size_t) { return cow_detail::SubtreeDigest{}; };
    return dir.trie.root(0, leaf, gather).digest;
  }

 private:
  struct Chunk {
    explicit Chunk(const ArenaHandle& arena) : values(ArenaAllocator<T>(arena)) {}
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;

    std::vector<T, ArenaAllocator<T>> values;
    cow_detail::PageDigest digest;
  };

  using ChunkHandle = std::shared_ptr<Chunk>;

  struct Dir {
    explicit Dir(const ArenaHandle& arena)
        : chunks(ArenaAllocator<ChunkHandle>(arena)),
          trie(0) {}
    Dir(const Dir& src, const ArenaHandle& arena)
        : chunks(src.chunks, ArenaAllocator<ChunkHandle>(arena)),
          trie(src.trie) {}

    std::vector<ChunkHandle, ArenaAllocator<ChunkHandle>> chunks;
    cow_detail::TrieCache trie;
  };

  [[nodiscard]] static cow_detail::SubtreeDigest chunk_digest(const Chunk& chunk) {
    cow_detail::SubtreeDigest digest;
    if (chunk.digest.load(digest)) return digest;
    cow_detail::BucketScratch& scratch = cow_detail::bucket_scratch();
    util::ByteWriter& message = scratch.message;
    message.clear();
    message.put_u8(cow_detail::kChunkTag);
    message.put_varint(chunk.values.size());
    for (const T& value : chunk.values) {
      scratch.flat.clear();
      encode_value(scratch.flat, value);
      message.put_bytes(scratch.flat.bytes());
    }
    digest = cow_detail::SubtreeDigest{util::sha256(message.bytes()), 1, true};
    chunk.digest.publish(digest);
    return digest;
  }

  /// Leaves of the chunk trie: the smallest power of two covering them.
  [[nodiscard]] static unsigned trie_depth(std::size_t chunks) noexcept {
    return chunks <= 1 ? 0U : static_cast<unsigned>(std::bit_width(chunks - 1));
  }

  void fit_trie() {
    const unsigned depth = trie_depth(dir_->chunks.size());
    if (depth != dir_->trie.depth()) dir_->trie.reset(depth);
  }

  void ensure_unique_dir() {
    if (!cow_detail::sole_owner(dir_)) dir_ = arena_make_shared<Dir>(arena_, *dir_, arena_);
  }

  /// Ensure-unique on write: private directory, private chunk, and its
  /// digest plus the cached path above it dropped.
  std::vector<T, ArenaAllocator<T>>& mutable_chunk(std::size_t chunk_index) {
    ensure_unique_dir();
    auto& slot = dir_->chunks[chunk_index];
    if (cow_detail::sole_owner(slot)) {
      slot->digest.reset();
    } else {
      auto copy = arena_make_shared<Chunk>(arena_, arena_);
      copy->values.reserve(kChunkCapacity);
      copy->values.assign(slot->values.begin(), slot->values.end());
      slot = std::move(copy);
    }
    dir_->trie.invalidate_path(chunk_index);
    return slot->values;
  }

  ArenaHandle arena_;  ///< Before dir_ — pages must die first (see CowPages).
  std::shared_ptr<Dir> dir_;
  std::size_t size_ = 0;
};

/// A single COW value: BoostedScalar's backing store. One level — the
/// value itself is the page.
template <typename T>
class CowBox {
 public:
  explicit CowBox(T initial) : value_(std::make_shared<T>(std::move(initial))) {}

  CowBox(const CowBox&) = default;
  CowBox& operator=(const CowBox&) = default;
  CowBox(CowBox&&) noexcept = default;
  CowBox& operator=(CowBox&&) noexcept = default;

  [[nodiscard]] CowBox fork() const { return *this; }

  /// See CowPages::set_arena: future detaches allocate from `arena`.
  void set_arena(ArenaHandle arena) { arena_ = std::move(arena); }

  [[nodiscard]] const T& get() const noexcept { return *value_; }

  /// Ensure-unique, then expose the private value. Valid until the next
  /// fork of this instance.
  [[nodiscard]] T& mutable_ref() {
    if (!cow_detail::sole_owner(value_)) value_ = arena_make_shared<T>(arena_, *value_);
    return *value_;
  }

  void set(T value) { mutable_ref() = std::move(value); }

 private:
  ArenaHandle arena_;  ///< Before value_ — the box must die first (see CowPages).
  std::shared_ptr<T> value_;
};

}  // namespace concord::vm
