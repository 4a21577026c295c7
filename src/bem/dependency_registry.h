#ifndef DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
#define DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/contended_mutex.h"
#include "storage/update_bus.h"

namespace dynaprox::bem {

// Tracks which cached fragments depend on which data-source rows, enabling
// the cache invalidation manager's "updates to the underlying data sources"
// trigger (paper 4.3.3). A dependency is (table) or (table, row-key); a
// table-level dependency is invalidated by any mutation of that table.
//
// Dependencies live exactly as long as the directory entry they belong to:
// BackEndMonitor begins an incarnation when it inserts a fragment and ends
// it whenever the directory reports that entry's validity ended (eviction,
// TTL expiry, invalidation). Each incarnation carries the directory's
// insert generation, so a late end report for an old incarnation never
// drops the dependencies of a newer one registered concurrently.
//
// Thread-safe behind one internal mutex: parallel block generators Add
// concurrently while data-source updates fan out through Affected. The
// two index maps must stay mutually consistent, so a single mutex (not
// striping) is the right shape; contentions() shows whether it matters.
// It is a leaf lock: the registry never calls out while holding it, and
// no caller holds a directory lock while calling in.
class DependencyRegistry {
 public:
  static constexpr uint64_t kAnyGeneration =
      std::numeric_limits<uint64_t>::max();

  // Starts incarnation `generation` of `canonical`: drops the dependencies
  // of any older incarnation. No-op if a newer incarnation already began.
  void BeginIncarnation(const std::string& canonical, uint64_t generation);

  // Declares that fragment `canonical` depends on `table` (whole table when
  // `row_key` is empty). Adds to the current incarnation.
  void Add(const std::string& canonical, const std::string& table,
           const std::string& row_key = "");

  // Drops all dependencies of `canonical` if its current incarnation is no
  // newer than `generation` (the incarnation that ended).
  void RemoveFragment(const std::string& canonical,
                      uint64_t generation = kAnyGeneration);

  // Fragments affected by `event`, in deterministic (sorted) order.
  std::vector<std::string> Affected(const storage::UpdateEvent& event) const;

  size_t fragment_count() const {
    std::lock_guard<common::ContendedMutex> lock(mu_);
    return by_fragment_.size();
  }

  // Contended acquisitions of the internal mutex.
  uint64_t contentions() const { return mu_.contended_acquisitions(); }

 private:
  struct Dep {
    std::string table;
    std::string row_key;  // Empty: whole table.
    bool operator<(const Dep& other) const {
      if (table != other.table) return table < other.table;
      return row_key < other.row_key;
    }
  };

  struct Incarnation {
    uint64_t generation = 0;
    std::set<Dep> deps;
  };

  // Unlinks `canonical` from by_source_ for each of `deps`. Caller holds mu_.
  void UnlinkLocked(const std::string& canonical, const std::set<Dep>& deps);

  mutable common::ContendedMutex mu_;
  // (table, row_key) -> fragments; row_key "" holds table-level deps.
  // Both maps guarded by mu_.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      by_source_;
  std::map<std::string, Incarnation> by_fragment_;
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
