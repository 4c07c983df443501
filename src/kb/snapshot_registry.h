#ifndef AIDA_KB_SNAPSHOT_REGISTRY_H_
#define AIDA_KB_SNAPSHOT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aida.h"
#include "core/ned_system.h"
#include "core/relatedness_cache.h"
#include "kb/knowledge_base.h"
#include "util/function_effects.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace aida::kb {

class KbSnapshot;

/// How a snapshot assembles its disambiguation stack from a loaded
/// knowledge base. The defaults reproduce the canonical serving setup:
/// Milne-Witten relatedness, evaluated directly, driving a full Aida
/// system. Factories let callers swap in KORE / LSH measures or an
/// entirely different NedSystem (baselines, test doubles) without
/// bypassing the snapshot lifecycle. A measure whose worth_caching() is
/// true (KORE and its LSH variants) is served behind a per-snapshot
/// RelatednessCache; Milne-Witten, whose evaluation is cheaper than a
/// cache probe, is not.
struct SnapshotOptions {
  /// Builds the base relatedness measure over the snapshot's KB. When
  /// null, MilneWittenRelatedness is used.
  std::function<std::unique_ptr<core::RelatednessMeasure>(
      const KnowledgeBase& kb)>
      relatedness_factory;
  /// Builds the NED system over the snapshot's candidate models and its
  /// relatedness measure (cache-decorated when the measure is worth
  /// caching). When null, core::Aida with `aida` options is used.
  std::function<std::unique_ptr<core::NedSystem>(
      const core::CandidateModelStore* models,
      const core::RelatednessMeasure* relatedness)>
      system_factory;
  /// Options for the default Aida system (ignored when system_factory is
  /// set).
  core::AidaOptions aida;
  /// Sizing of the per-snapshot relatedness cache, for a measure that is
  /// worth caching; unused otherwise. Each generation gets a fresh cache:
  /// entity ids are only stable within one KB build, so carrying cached
  /// pair values across generations would serve values computed against a
  /// different link graph.
  core::RelatednessCacheOptions cache;
};

/// One immutable, generation-numbered knowledge-base snapshot: the KB
/// itself plus every derived serving structure built over it — candidate
/// model store (dictionary/keyphrase views), relatedness measure (behind
/// a per-snapshot cache when the measure is worth caching), and the NED
/// system that serves requests against this generation. All members are
/// constructed together and destruct together, so a request that pins
/// the snapshot via shared_ptr can use any part of the stack without
/// lifetime checks.
///
/// Snapshots are created by SnapshotRegistry (or the static factories
/// below) and are immutable afterwards; sharing one across threads needs
/// no synchronization beyond the shared_ptr itself.
class KbSnapshot {
 public:
  /// Builds a full snapshot over `kb`. Fails (without side effects) when
  /// the KB does not pass ValidateKnowledgeBase.
  static util::StatusOr<std::shared_ptr<const KbSnapshot>> Create(
      std::shared_ptr<const KnowledgeBase> kb, uint64_t generation,
      std::string source, const SnapshotOptions& options = {});

  /// Wraps an externally owned NED system (no KB, no cache) so services
  /// and tests can use the snapshot API with custom systems. The snapshot
  /// shares ownership of `system`.
  static std::shared_ptr<const KbSnapshot> WrapSystem(
      std::shared_ptr<const core::NedSystem> system, std::string source,
      uint64_t generation = 1);

  /// Like WrapSystem for a system the caller keeps owning; `system` must
  /// outlive every holder of the returned snapshot.
  static std::shared_ptr<const KbSnapshot> WrapUnowned(
      const core::NedSystem& system, std::string source,
      uint64_t generation = 1);

  /// Monotonic generation number; assigned by the registry at publish
  /// time (1 for the first generation).
  uint64_t generation() const { return generation_; }

  /// Human-readable provenance ("file:/path/world.fkb", "builder:regrow",
  /// ...), for logs and service introspection.
  const std::string& source() const { return source_; }

  /// False for wrapped systems without a KB.
  bool has_knowledge_base() const { return kb_ != nullptr; }
  const KnowledgeBase& knowledge_base() const { return *kb_; }

  /// Convenience views into the snapshot's KB (valid only when
  /// has_knowledge_base()).
  const Dictionary& dictionary() const { return kb_->dictionary(); }
  const KeyphraseStore& keyphrases() const { return kb_->keyphrases(); }
  const LinkGraph& links() const { return kb_->links(); }

  /// Null for wrapped systems.
  const core::CandidateModelStore* models() const { return models_.get(); }
  /// Null for wrapped systems and for a measure not worth caching (the
  /// default Milne-Witten stack).
  const core::RelatednessCache* relatedness_cache() const {
    return cache_.get();
  }

  /// The NED system serving this generation. Never null.
  const core::NedSystem& system() const { return *system_; }

 private:
  KbSnapshot() = default;

  // Members are destroyed in reverse declaration order: the system
  // references the measure, the cached measure references the cache and
  // the base measure, the measure and models reference the KB. The cache
  // and the cached measure are null for a measure not worth caching.
  std::shared_ptr<const KnowledgeBase> kb_;
  std::unique_ptr<const core::CandidateModelStore> models_;
  std::unique_ptr<core::RelatednessCache> cache_;
  std::unique_ptr<const core::RelatednessMeasure> base_measure_;
  std::unique_ptr<const core::CachedRelatednessMeasure> cached_measure_;
  std::shared_ptr<const core::NedSystem> system_;
  uint64_t generation_ = 0;
  std::string source_;
};

/// Structural sanity checks a KB must pass before it can be published:
/// non-null, at least one entity, and a dictionary that resolves at least
/// one name to a valid entity id. Catches the realistic failure modes of
/// hot reload — an empty builder result, a file from a different corpus
/// whose sections deserialized but describe nothing servable.
util::Status ValidateKnowledgeBase(const KnowledgeBase* kb);

/// Point-in-time registry statistics, returned by value.
struct SnapshotRegistryStats {
  /// Generation currently served (0 before the first publish).
  uint64_t active_generation = 0;
  /// Source string of the active snapshot.
  std::string active_source;
  /// Older generations still alive because in-flight requests pin them.
  std::vector<uint64_t> retiring_generations;
  /// Successful publishes, including the first.
  uint64_t publishes = 0;
  /// Successful reloads (publishes after the first).
  uint64_t reloads = 0;
  /// Publish/reload attempts rejected by validation or load errors; the
  /// previously active snapshot kept serving through each failure.
  uint64_t reload_failures = 0;
  /// Wall-clock duration of the most recent successful publish (build +
  /// validate + swap), and the sum over all of them.
  double last_reload_seconds = 0.0;
  double total_reload_seconds = 0.0;
};

/// RCU-style publication point for KbSnapshot generations.
///
/// Readers (serving threads) call Current() — one atomic shared_ptr load,
/// no lock — and pin the returned snapshot for the duration of a request;
/// a generation's heap footprint is freed when the registry has moved on
/// AND the last pinned request drops its handle. Writers (reload paths)
/// serialize on an internal mutex, build and validate the incoming KB
/// completely before the swap, and leave the active snapshot untouched on
/// any failure — a bad reload is observable only as a bumped
/// reload_failures counter.
class SnapshotRegistry {
 public:
  explicit SnapshotRegistry(SnapshotOptions options = {});

  /// Builds a snapshot over `kb` and atomically makes it the current
  /// generation. Returns the published snapshot.
  util::StatusOr<std::shared_ptr<const KbSnapshot>> Publish(
      std::shared_ptr<const KnowledgeBase> kb, std::string source)
      AIDA_EXCLUDES(publish_mutex_);

  /// Publishes a snapshot wrapping an externally built NED system (test
  /// doubles, custom stacks). Skips KB validation — there is no KB.
  std::shared_ptr<const KbSnapshot> PublishSystem(
      std::shared_ptr<const core::NedSystem> system, std::string source)
      AIDA_EXCLUDES(publish_mutex_);

  /// Reload from a flat KB snapshot file (flat::SaveFlatSnapshot), loaded
  /// by LoadKnowledgeBase.
  util::StatusOr<std::shared_ptr<const KbSnapshot>> ReloadFromFile(
      const std::string& path) AIDA_EXCLUDES(publish_mutex_);

  /// Reload from an in-process builder callback (WorldGenerator regrowth,
  /// NED-EE harvest merge, ...). The callback runs outside the hot path
  /// but under the publish lock, serializing concurrent reloads.
  util::StatusOr<std::shared_ptr<const KbSnapshot>> ReloadFromBuilder(
      const std::function<util::StatusOr<std::unique_ptr<KnowledgeBase>>()>&
          builder,
      std::string source) AIDA_EXCLUDES(publish_mutex_);

  /// The currently published snapshot; null before the first publish.
  /// One atomic load — wait-free, safe from any thread.
  std::shared_ptr<const KbSnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Generation number of the currently published snapshot (0 before the
  /// first publish) as one relaxed uint64 load — the cheap "did anything
  /// change?" probe of the serving hot path. Unlike Current(), this never
  /// touches the shared_ptr control block, so workers polling it on every
  /// dequeue do not ping-pong a refcount cache line between cores; they
  /// call Current() (and pay the acquire + refcount) only when the value
  /// moved. The counter is stored after current_, so a reader that
  /// observes generation G is guaranteed to get generation >= G from
  /// Current().
  uint64_t current_generation() const AIDA_NONBLOCKING {
    return current_generation_.load(std::memory_order_relaxed);
  }

  SnapshotRegistryStats Stats() const AIDA_EXCLUDES(publish_mutex_);

 private:
  /// Builds, validates, and swaps in a snapshot; the caller holds the
  /// publish lock for the whole build-validate-swap sequence (the
  /// requirement the old pass-the-unique_lock parameter expressed by
  /// convention is now compile-time checked).
  util::StatusOr<std::shared_ptr<const KbSnapshot>> PublishLocked(
      std::shared_ptr<const KnowledgeBase> kb, std::string source,
      double build_seconds_so_far) AIDA_REQUIRES(publish_mutex_);

  /// Drops history entries whose snapshots have fully died.
  void CompactHistoryLocked() AIDA_REQUIRES(publish_mutex_);

  SnapshotOptions options_;
  std::atomic<std::shared_ptr<const KbSnapshot>> current_{nullptr};
  /// Mirrors current_->generation(); see current_generation().
  std::atomic<uint64_t> current_generation_{0};

  /// Serializes publishes/reloads; readers never take it (Current() is
  /// one atomic load). Ranked after the service stop lock so a service
  /// owner may reload while stopping, never the reverse.
  mutable util::Mutex publish_mutex_{util::lock_rank::kSnapshotPublish};
  uint64_t next_generation_ AIDA_GUARDED_BY(publish_mutex_) = 1;
  uint64_t publishes_ AIDA_GUARDED_BY(publish_mutex_) = 0;
  uint64_t reload_failures_ AIDA_GUARDED_BY(publish_mutex_) = 0;
  double last_reload_seconds_ AIDA_GUARDED_BY(publish_mutex_) = 0.0;
  double total_reload_seconds_ AIDA_GUARDED_BY(publish_mutex_) = 0.0;
  /// Weak handles to every generation ever published, compacted as they
  /// die; used to report retiring generations still pinned by requests.
  std::vector<std::pair<uint64_t, std::weak_ptr<const KbSnapshot>>>
      history_ AIDA_GUARDED_BY(publish_mutex_);
};

}  // namespace aida::kb

#endif  // AIDA_KB_SNAPSHOT_REGISTRY_H_
