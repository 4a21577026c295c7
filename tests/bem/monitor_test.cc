#include "bem/monitor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "storage/table.h"

namespace dynaprox::bem {
namespace {

BemOptions Options(const Clock* clock, DpcKey capacity = 16) {
  BemOptions options;
  options.capacity = capacity;
  options.clock = clock;
  return options;
}

TEST(MonitorTest, CreateRejectsBadConfig) {
  BemOptions zero;
  zero.capacity = 0;
  EXPECT_FALSE(BackEndMonitor::Create(zero).ok());
  BemOptions bad_policy;
  bad_policy.replacement_policy = "magic";
  EXPECT_FALSE(BackEndMonitor::Create(bad_policy).ok());
}

TEST(MonitorTest, LookupInsertHitCycle) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  FragmentId id("navbar");
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DefaultTtlApplies) {
  SimClock clock;
  BemOptions options = Options(&clock);
  options.default_ttl_micros = 10 * kMicrosPerSecond;
  auto monitor = *BackEndMonitor::Create(options);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());  // ttl = default.
  clock.AdvanceSeconds(11);
  EXPECT_EQ(monitor->LookupFragment(id).outcome,
            LookupOutcome::kMissExpired);
}

TEST(MonitorTest, ExplicitTtlOverridesDefault) {
  SimClock clock;
  BemOptions options = Options(&clock);
  options.default_ttl_micros = 1 * kMicrosPerSecond;
  auto monitor = *BackEndMonitor::Create(options);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id, 0).ok());  // 0 = no expiry.
  clock.AdvanceSeconds(100);
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DataSourceUpdateInvalidatesDependents) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* products = repository.GetOrCreateTable("products");
  products->Upsert("p1", {});

  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("reco", {{"user", "bob"}});
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "products", "p1");
  ASSERT_TRUE(monitor->LookupFragment(id).hit());

  // Mutating the row the fragment depends on invalidates it.
  products->Upsert("p1", {{"title", storage::Value(std::string("new"))}});
  EXPECT_EQ(monitor->LookupFragment(id).outcome,
            LookupOutcome::kMissInvalid);
}

TEST(MonitorTest, UnrelatedUpdateDoesNotInvalidate) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* products = repository.GetOrCreateTable("products");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("reco");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "products", "p1");
  products->Upsert("p2", {});
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, TableLevelDependency) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* headlines = repository.GetOrCreateTable("headlines");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("headlines");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "headlines");  // Any row.
  headlines->Upsert("h99", {});
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DetachStopsInvalidation) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "t");
  monitor->DetachRepository();
  t->Upsert("row", {});
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, ReinsertSupersedesOldDependencies) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "t", "old-row");
  // Regenerate with a different dependency set.
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  monitor->AddDependency(id, "t", "new-row");

  t->Upsert("old-row", {});  // Stale dependency must not fire.
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
  t->Upsert("new-row", {});
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, InvalidateKeyRemovesDependencies) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("f");
  DpcKey key = *monitor->InsertFragment(id);
  monitor->AddDependency(id, "t");
  ASSERT_TRUE(monitor->InvalidateKey(key).ok());
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
  EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
  // Re-running the update is harmless.
  t->Upsert("x", {});
}

TEST(MonitorTest, RefreshKeyKeepsTheKeyStable) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  FragmentId a("a"), b("b");
  ASSERT_TRUE(monitor->InsertFragment(a).ok());
  DpcKey key = *monitor->InsertFragment(b);
  ASSERT_TRUE(monitor->RefreshKey(key).ok());
  EXPECT_FALSE(monitor->LookupFragment(b).hit());
  // The refresh re-render re-caches the fragment under the SAME key — the
  // DPC's in-flight `GET key` stays resolvable.
  EXPECT_EQ(*monitor->InsertFragment(b), key);
}

TEST(MonitorTest, InvalidateAllClearsDirectoryAndDeps) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  for (int i = 0; i < 5; ++i) {
    FragmentId id("f" + std::to_string(i));
    ASSERT_TRUE(monitor->InsertFragment(id).ok());
    monitor->AddDependency(id, "t");
  }
  EXPECT_EQ(monitor->InvalidateAll(), 5u);
  EXPECT_EQ(monitor->directory().valid_count(), 0u);
  EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
}

TEST(MonitorTest, SnapshotEntriesReflectsDirectoryState) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("a"), 0).ok());
  ASSERT_TRUE(
      monitor->InsertFragment(FragmentId("b"), 5 * kMicrosPerSecond).ok());
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(monitor->Invalidate(FragmentId("a")).ok());

  auto entries = monitor->SnapshotEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fragment_id, "a");
  EXPECT_FALSE(entries[0].is_valid);
  EXPECT_EQ(entries[1].fragment_id, "b");
  EXPECT_TRUE(entries[1].is_valid);
  EXPECT_EQ(entries[1].age_micros, 2 * kMicrosPerSecond);
  EXPECT_EQ(entries[1].ttl_micros, 5 * kMicrosPerSecond);

  EXPECT_EQ(monitor->SnapshotEntries(1).size(), 1u);
}

TEST(MonitorTest, SweepExpiredCountsOnlyExpired) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  ASSERT_TRUE(
      monitor->InsertFragment(FragmentId("a"), kMicrosPerSecond).ok());
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("b"), 0).ok());
  clock.AdvanceSeconds(2);
  EXPECT_EQ(monitor->SweepExpired(), 1u);
}

// Inserts a fresh fragment "f<i>" depending on row "r<i>" of table "t".
FragmentId InsertWithDependency(BackEndMonitor& monitor, int i,
                                MicroTime ttl_micros = 0) {
  FragmentId id("f" + std::to_string(i));
  EXPECT_TRUE(monitor.InsertFragment(id, ttl_micros).ok());
  monitor.AddDependency(id, "t", "r" + std::to_string(i));
  return id;
}

TEST(MonitorTest, DependenciesLiveOnlyWhileResidentUnderEviction) {
  constexpr DpcKey kCapacity = 8;
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* table = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock, kCapacity));
  monitor->AttachRepository(&repository);

  for (int i = 0; i < 200; ++i) {
    InsertWithDependency(*monitor, i);
    ASSERT_LE(monitor->dependencies().fragment_count(), kCapacity)
        << "after insert " << i;
  }
  EXPECT_EQ(monitor->stats().evictions, 200u - kCapacity);
  // An evicted fragment's row no longer reaches the directory...
  EXPECT_EQ(monitor->OnDataSourceUpdate(
                {"t", "r0", storage::UpdateKind::kUpdate}),
            0u);
  // ...while a resident fragment's row still invalidates it.
  FragmentId resident("f199");
  ASSERT_TRUE(monitor->LookupFragment(resident).hit());
  table->Upsert("r199", {});
  EXPECT_EQ(monitor->LookupFragment(resident).outcome,
            LookupOutcome::kMissInvalid);
  EXPECT_EQ(monitor->dependencies().fragment_count(), kCapacity - 1);
}

TEST(MonitorTest, DependenciesLiveOnlyWhileResidentUnderTtlExpiry) {
  constexpr DpcKey kCapacity = 8;
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock, kCapacity));
  // Lookup expiry: each round's fragments expire before the next round,
  // and the lookup that notices drops their dependencies.
  for (int round = 0; round < 10; ++round) {
    std::vector<FragmentId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(
          InsertWithDependency(*monitor, round * 4 + i, kMicrosPerSecond));
    }
    ASSERT_LE(monitor->dependencies().fragment_count(), kCapacity);
    clock.AdvanceSeconds(2);
    for (const FragmentId& id : ids) {
      EXPECT_EQ(monitor->LookupFragment(id).outcome,
                LookupOutcome::kMissExpired);
    }
    EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
  }
  // SweepExpired: the sweep drops them without any lookup.
  for (int i = 100; i < 100 + static_cast<int>(kCapacity); ++i) {
    InsertWithDependency(*monitor, i, kMicrosPerSecond);
  }
  EXPECT_EQ(monitor->dependencies().fragment_count(), kCapacity);
  clock.AdvanceSeconds(2);
  EXPECT_EQ(monitor->SweepExpired(), kCapacity);
  EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
}

TEST(MonitorTest, InsertsIntoAFullDirectoryAreNotRaces) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock, 4));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(monitor->InsertFragment(FragmentId("f" + std::to_string(i)))
                    .ok());
  }
  EXPECT_EQ(monitor->stats().evictions, 96u);
  EXPECT_EQ(monitor->concurrency_stats().insert_races, 0u);
}

}  // namespace
}  // namespace dynaprox::bem
