#include "kb/snapshot_registry.h"

#include <utility>

#include "core/relatedness.h"
#include "kb/kb_serialization.h"
#include "util/stopwatch.h"

namespace aida::kb {

util::Status ValidateKnowledgeBase(const KnowledgeBase* kb) {
  if (kb == nullptr) {
    return util::Status::InvalidArgument("knowledge base is null");
  }
  if (kb->entity_count() == 0) {
    return util::Status::InvalidArgument("knowledge base has no entities");
  }
  if (kb->dictionary().NameCount() == 0) {
    return util::Status::InvalidArgument(
        "knowledge base dictionary is empty: no mention could ever "
        "resolve to a candidate");
  }
  return util::Status::Ok();
}

util::StatusOr<std::shared_ptr<const KbSnapshot>> KbSnapshot::Create(
    std::shared_ptr<const KnowledgeBase> kb, uint64_t generation,
    std::string source, const SnapshotOptions& options) {
  util::Status valid = ValidateKnowledgeBase(kb.get());
  if (!valid.ok()) return valid;

  auto snapshot = std::shared_ptr<KbSnapshot>(new KbSnapshot());
  snapshot->kb_ = std::move(kb);
  snapshot->generation_ = generation;
  snapshot->source_ = std::move(source);
  snapshot->models_ = std::make_unique<core::CandidateModelStore>(
      snapshot->kb_.get());
  snapshot->base_measure_ =
      options.relatedness_factory
          ? options.relatedness_factory(*snapshot->kb_)
          : std::make_unique<core::MilneWittenRelatedness>(
                snapshot->kb_.get());
  if (snapshot->base_measure_ == nullptr) {
    return util::Status::InvalidArgument("relatedness_factory returned null");
  }
  const core::RelatednessMeasure* measure = snapshot->base_measure_.get();
  if (measure->worth_caching()) {
    snapshot->cache_ = std::make_unique<core::RelatednessCache>(options.cache);
    snapshot->cached_measure_ =
        std::make_unique<core::CachedRelatednessMeasure>(
            measure, snapshot->cache_.get());
    measure = snapshot->cached_measure_.get();
  }
  std::unique_ptr<core::NedSystem> system =
      options.system_factory
          ? options.system_factory(snapshot->models_.get(), measure)
          : std::make_unique<core::Aida>(snapshot->models_.get(), measure,
                                         options.aida);
  if (system == nullptr) {
    return util::Status::InvalidArgument("system_factory returned null");
  }
  snapshot->system_ = std::move(system);
  return std::shared_ptr<const KbSnapshot>(std::move(snapshot));
}

std::shared_ptr<const KbSnapshot> KbSnapshot::WrapSystem(
    std::shared_ptr<const core::NedSystem> system, std::string source,
    uint64_t generation) {
  AIDA_CHECK(system != nullptr);
  auto snapshot = std::shared_ptr<KbSnapshot>(new KbSnapshot());
  snapshot->system_ = std::move(system);
  snapshot->generation_ = generation;
  snapshot->source_ = std::move(source);
  return snapshot;
}

std::shared_ptr<const KbSnapshot> KbSnapshot::WrapUnowned(
    const core::NedSystem& system, std::string source, uint64_t generation) {
  // Aliasing constructor: share nothing, point at the caller's system.
  return WrapSystem(
      std::shared_ptr<const core::NedSystem>(
          std::shared_ptr<const void>(), &system),
      std::move(source), generation);
}

SnapshotRegistry::SnapshotRegistry(SnapshotOptions options)
    : options_(std::move(options)) {}

util::StatusOr<std::shared_ptr<const KbSnapshot>> SnapshotRegistry::Publish(
    std::shared_ptr<const KnowledgeBase> kb, std::string source) {
  util::MutexLock lock(&publish_mutex_);
  return PublishLocked(std::move(kb), std::move(source),
                       /*build_seconds_so_far=*/0.0);
}

std::shared_ptr<const KbSnapshot> SnapshotRegistry::PublishSystem(
    std::shared_ptr<const core::NedSystem> system, std::string source) {
  util::MutexLock lock(&publish_mutex_);
  std::shared_ptr<const KbSnapshot> snapshot = KbSnapshot::WrapSystem(
      std::move(system), std::move(source), next_generation_);
  ++next_generation_;
  ++publishes_;
  history_.emplace_back(snapshot->generation(), snapshot);
  CompactHistoryLocked();
  current_.store(snapshot, std::memory_order_release);
  current_generation_.store(snapshot->generation(),
                            std::memory_order_release);
  return snapshot;
}

util::StatusOr<std::shared_ptr<const KbSnapshot>>
SnapshotRegistry::ReloadFromFile(const std::string& path) {
  util::MutexLock lock(&publish_mutex_);
  util::Stopwatch watch;
  util::StatusOr<std::unique_ptr<KnowledgeBase>> loaded =
      LoadKnowledgeBase(path);
  if (!loaded.ok()) {
    ++reload_failures_;
    return loaded.status();
  }
  return PublishLocked(std::shared_ptr<const KnowledgeBase>(
                           std::move(loaded).value()),
                       "file:" + path, watch.ElapsedSeconds());
}

util::StatusOr<std::shared_ptr<const KbSnapshot>>
SnapshotRegistry::ReloadFromBuilder(
    const std::function<util::StatusOr<std::unique_ptr<KnowledgeBase>>()>&
        builder,
    std::string source) {
  util::MutexLock lock(&publish_mutex_);
  util::Stopwatch watch;
  util::StatusOr<std::unique_ptr<KnowledgeBase>> built = builder();
  if (!built.ok()) {
    ++reload_failures_;
    return built.status();
  }
  return PublishLocked(std::shared_ptr<const KnowledgeBase>(
                           std::move(built).value()),
                       std::move(source), watch.ElapsedSeconds());
}

util::StatusOr<std::shared_ptr<const KbSnapshot>>
SnapshotRegistry::PublishLocked(std::shared_ptr<const KnowledgeBase> kb,
                                std::string source,
                                double build_seconds_so_far) {
  AIDA_ASSERT_HELD(publish_mutex_);
  util::Stopwatch watch;
  util::StatusOr<std::shared_ptr<const KbSnapshot>> created =
      KbSnapshot::Create(std::move(kb), next_generation_, std::move(source),
                         options_);
  if (!created.ok()) {
    // Rollback is implicit: current_ was never touched, so the previous
    // generation keeps serving.
    ++reload_failures_;
    return created.status();
  }
  std::shared_ptr<const KbSnapshot> snapshot = std::move(created).value();
  ++next_generation_;
  ++publishes_;
  last_reload_seconds_ = build_seconds_so_far + watch.ElapsedSeconds();
  total_reload_seconds_ += last_reload_seconds_;
  history_.emplace_back(snapshot->generation(), snapshot);
  CompactHistoryLocked();
  // The swap readers race against: one release store. Requests already
  // holding the old snapshot keep it alive until they finish. The
  // generation counter is published second: a worker that sees the new
  // counter value is guaranteed to find (at least) this snapshot behind
  // Current().
  current_.store(snapshot, std::memory_order_release);
  current_generation_.store(snapshot->generation(),
                            std::memory_order_release);
  return snapshot;
}

void SnapshotRegistry::CompactHistoryLocked() {
  std::erase_if(history_, [](const auto& entry) {
    return entry.second.expired();
  });
}

SnapshotRegistryStats SnapshotRegistry::Stats() const {
  SnapshotRegistryStats stats;
  std::shared_ptr<const KbSnapshot> current = Current();
  if (current != nullptr) {
    stats.active_generation = current->generation();
    stats.active_source = current->source();
  }
  util::MutexLock lock(&publish_mutex_);
  stats.publishes = publishes_;
  stats.reloads = publishes_ > 0 ? publishes_ - 1 : 0;
  stats.reload_failures = reload_failures_;
  stats.last_reload_seconds = last_reload_seconds_;
  stats.total_reload_seconds = total_reload_seconds_;
  for (const auto& [generation, weak] : history_) {
    if (generation == stats.active_generation) continue;
    if (!weak.expired()) stats.retiring_generations.push_back(generation);
  }
  return stats;
}

}  // namespace aida::kb
