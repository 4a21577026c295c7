#include "bem/monitor.h"

#include "common/logging.h"

namespace dynaprox::bem {

Result<std::unique_ptr<BackEndMonitor>> BackEndMonitor::Create(
    BemOptions options) {
  if (options.capacity == 0) {
    return Status::InvalidArgument("BEM capacity must be > 0");
  }
  std::unique_ptr<ReplacementPolicy> policy;
  DYNAPROX_ASSIGN_OR_RETURN(policy,
                            MakeReplacementPolicy(options.replacement_policy));
  const Clock* clock =
      options.clock != nullptr ? options.clock : SystemClock::Default();
  return std::unique_ptr<BackEndMonitor>(
      new BackEndMonitor(options.capacity, clock, std::move(policy),
                         options.default_ttl_micros));
}

BackEndMonitor::BackEndMonitor(DpcKey capacity, const Clock* clock,
                               std::unique_ptr<ReplacementPolicy> policy,
                               MicroTime default_ttl_micros)
    : directory_(capacity, clock, std::move(policy)),
      default_ttl_micros_(default_ttl_micros) {}

BackEndMonitor::~BackEndMonitor() { DetachRepository(); }

LookupResult BackEndMonitor::LookupFragment(const FragmentId& id) {
  CacheDirectory::EndedList ended;
  LookupResult result = directory_.Lookup(id, &ended);
  DropDependencies(ended);
  if (FragmentEventObserver* obs = observer(); obs != nullptr) {
    obs->OnLookup(id.Canonical(), result.hit());
  }
  return result;
}

Result<DpcKey> BackEndMonitor::InsertFragment(const FragmentId& id,
                                              MicroTime ttl_micros) {
  if (ttl_micros < 0) ttl_micros = default_ttl_micros_;
  CacheDirectory::EndedList ended;
  uint64_t generation = 0;
  Result<DpcKey> key = directory_.Insert(id, ttl_micros, &ended, &generation);
  DropDependencies(ended);
  if (key.ok()) {
    // A fresh insert supersedes any dependencies registered for the
    // previous incarnation of this fragment; the generating code block
    // re-declares them as it runs.
    registry_.BeginIncarnation(id.Canonical(), generation);
    if (FragmentEventObserver* obs = observer(); obs != nullptr) {
      obs->OnInsert(id.Canonical(), *key);
    }
  }
  return key;
}

void BackEndMonitor::AddDependency(const FragmentId& id,
                                   const std::string& table,
                                   const std::string& row_key) {
  registry_.Add(id.Canonical(), table, row_key);
}

Status BackEndMonitor::Invalidate(const FragmentId& id) {
  CacheDirectory::EndedList ended;
  Status status = directory_.Invalidate(id, &ended);
  DropDependencies(ended);
  if (status.ok()) {
    if (FragmentEventObserver* obs = observer(); obs != nullptr) {
      obs->OnInvalidate(id.Canonical());
    }
  }
  return status;
}

Status BackEndMonitor::InvalidateKey(DpcKey key) {
  CacheDirectory::EndedList ended;
  Result<std::string> owner =
      directory_.InvalidateKey(key, /*pin_key=*/false, &ended);
  if (!owner.ok()) return owner.status();
  DropDependencies(ended);
  if (FragmentEventObserver* obs = observer(); obs != nullptr) {
    obs->OnInvalidate(*owner);
  }
  return Status::Ok();
}

Result<std::string> BackEndMonitor::RefreshKey(DpcKey key) {
  CacheDirectory::EndedList ended;
  Result<std::string> owner =
      directory_.InvalidateKey(key, /*pin_key=*/true, &ended);
  DropDependencies(ended);
  return owner;
}

size_t BackEndMonitor::InvalidateAll() {
  CacheDirectory::EndedList ended;
  size_t count = directory_.InvalidateAll(&ended);
  DropDependencies(ended);
  return count;
}

size_t BackEndMonitor::SweepExpired() {
  CacheDirectory::EndedList ended;
  size_t count = directory_.SweepExpired(&ended);
  DropDependencies(ended);
  return count;
}

void BackEndMonitor::DropDependencies(const CacheDirectory::EndedList& ended) {
  for (const CacheDirectory::Ended& entry : ended) {
    registry_.RemoveFragment(entry.canonical, entry.generation);
  }
}

DirectoryStats BackEndMonitor::stats() const { return directory_.stats(); }

std::vector<CacheDirectory::EntryView> BackEndMonitor::SnapshotEntries(
    size_t limit) const {
  return directory_.SnapshotEntries(limit);
}

BackEndMonitor::ConcurrencyStats BackEndMonitor::concurrency_stats() const {
  CacheDirectory::ConcurrencyStats dir = directory_.concurrency_stats();
  ConcurrencyStats stats;
  stats.stripe_contentions = dir.stripe_contentions;
  stats.policy_contentions = dir.policy_contentions;
  stats.free_list_contentions = dir.free_list_contentions;
  stats.registry_contentions = registry_.contentions();
  stats.insert_races = dir.insert_races;
  return stats;
}

void BackEndMonitor::AttachRepository(storage::ContentRepository* repository) {
  DetachRepository();
  std::lock_guard<std::mutex> lock(attach_mu_);
  repository_ = repository;
  subscription_ = repository_->bus().Subscribe(
      [this](const storage::UpdateEvent& event) { OnDataSourceUpdate(event); });
}

void BackEndMonitor::DetachRepository() {
  std::lock_guard<std::mutex> lock(attach_mu_);
  if (repository_ == nullptr) return;
  repository_->bus().Unsubscribe(subscription_);
  repository_ = nullptr;
  subscription_ = 0;
}

size_t BackEndMonitor::OnDataSourceUpdate(const storage::UpdateEvent& event) {
  size_t count = 0;
  for (const std::string& canonical : registry_.Affected(event)) {
    CacheDirectory::EndedList ended;
    Status status = directory_.InvalidateCanonical(canonical, &ended);
    DropDependencies(ended);
    if (status.ok()) {
      ++count;
      if (FragmentEventObserver* obs = observer(); obs != nullptr) {
        obs->OnInvalidate(canonical);
      }
      DYNAPROX_LOG(kDebug, "bem")
          << "data-source invalidation: " << canonical << " (table "
          << event.table << ")";
    }
  }
  return count;
}

}  // namespace dynaprox::bem
