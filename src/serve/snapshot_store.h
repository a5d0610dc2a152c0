#ifndef CSD_SERVE_SNAPSHOT_STORE_H_
#define CSD_SERVE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>
#include <version>

#include "serve/snapshot.h"

// Detect ThreadSanitizer on both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature).
#if defined(__SANITIZE_THREAD__)
#define CSD_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CSD_SERVE_TSAN 1
#endif
#endif

namespace csd::serve {

/// RCU-style holder of the serving generations: one global slot (the
/// full-city snapshot — pattern queries, admission's "is anything
/// published" check, the source dataset of rebuilds) plus K ≥ 1 lanes,
/// one per spatial shard, that geo-routed annotation reads. Monolithic
/// serving is K = 1: one lane holding the same generation as the global
/// slot.
///
/// Readers acquire a generation as a shared_ptr copy through
/// std::atomic<std::shared_ptr> (no store-wide lock, never blocked by a
/// publish). In-flight requests keep annotating against the generation
/// they acquired, and an old generation is reclaimed by the shared_ptr
/// control block the moment its last reader releases it — there is no
/// quiescence wait and no epoch bookkeeping to leak.
///
/// Every slot shares one monotonic version counter, so "shard 3 is newer
/// than the global snapshot" is a meaningful comparison; a snapshot is
/// stamped exactly once, by this store, then fanned out. Publishes are
/// serialized by a mutex (they are rare — one per rebuild); Acquire never
/// takes it.
class SnapshotStore {
 public:
  /// An empty store with `num_shards` lanes (version 0, Acquire() ==
  /// nullptr until the first PublishAll).
  explicit SnapshotStore(size_t num_shards = 1);

  /// A K = 1 store with `initial` published as version 1.
  explicit SnapshotStore(std::shared_ptr<CsdSnapshot> initial);

  size_t num_shards() const { return lanes_.size(); }

  /// The global generation, or nullptr before the first publish. The
  /// returned pointer pins the snapshot: hold it for the duration of one
  /// request (or one batch) and let it go.
  std::shared_ptr<const CsdSnapshot> Acquire() const {
    return global_.Load();
  }
  std::shared_ptr<const CsdSnapshot> AcquireShard(size_t s) const {
    return lanes_[s].Load();
  }

  /// Stamps `next` once and publishes it to every lane and then the
  /// global slot (the bootstrap and full-rebuild path). Returns the
  /// stamped version. Lanes go first so that a reader that has seen a
  /// global version (admission checks it) finds every lane at that
  /// version or newer — no lane is ever empty once the store admits.
  uint64_t PublishAll(std::shared_ptr<CsdSnapshot> next);

  /// Stamps `next` once and publishes it to lane `s` only — the tile
  /// rebuild path. The global slot and the other lanes keep serving
  /// their current generations.
  uint64_t PublishShard(size_t s, std::shared_ptr<CsdSnapshot> next);

  /// Version of the global generation (0 before the first PublishAll).
  uint64_t current_version() const { return global_.version(); }
  uint64_t shard_version(size_t s) const { return lanes_[s].version(); }

 private:
  /// One RCU slot: a generation and the version it was stamped with.
  class Slot {
   public:
    std::shared_ptr<const CsdSnapshot> Load() const;
    void Store(std::shared_ptr<const CsdSnapshot> next, uint64_t version);
    uint64_t version() const {
      return version_.load(std::memory_order_acquire);
    }

   private:
    std::atomic<uint64_t> version_{0};
// Under ThreadSanitizer, use the free-function atomic shared_ptr protocol
// (a mutex pool tsan understands) instead of std::atomic<shared_ptr>:
// libstdc++'s _Sp_atomic::load releases its embedded spinlock with
// memory_order_relaxed, which is mutually exclusive on real hardware (the
// lock bit is an RMW) but carries no happens-before edge, so tsan reports
// the guarded _M_ptr accesses as racing.
#if defined(__cpp_lib_atomic_shared_ptr) && !defined(CSD_SERVE_TSAN)
#define CSD_SERVE_ATOMIC_SHARED_PTR 1
    std::atomic<std::shared_ptr<const CsdSnapshot>> current_;
#else
    // Pre-C++20 libraries and tsan builds: free-function protocol.
    std::shared_ptr<const CsdSnapshot> current_;
#endif
  };

  std::mutex publish_mutex_;
  uint64_t last_version_ = 0;  // guarded by publish_mutex_
  Slot global_;
  // vector<Slot> is fine: lanes are constructed in place once and never
  // moved (Slot is not movable).
  std::vector<Slot> lanes_;
};

/// The benchmark tool's sources (perfbench/) name the K-lane store this
/// way; the alias keeps them compiling.
using ShardedSnapshotStore = SnapshotStore;

}  // namespace csd::serve

#endif  // CSD_SERVE_SNAPSHOT_STORE_H_
