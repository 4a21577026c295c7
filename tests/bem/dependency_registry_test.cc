#include "bem/dependency_registry.h"

#include <gtest/gtest.h>

namespace dynaprox::bem {
namespace {

storage::UpdateEvent Event(const std::string& table, const std::string& key) {
  return {table, key, storage::UpdateKind::kUpdate};
}

TEST(DependencyRegistryTest, RowLevelDependency) {
  DependencyRegistry registry;
  registry.Add("frag1", "products", "p1");
  EXPECT_EQ(registry.Affected(Event("products", "p1")),
            std::vector<std::string>{"frag1"});
  EXPECT_TRUE(registry.Affected(Event("products", "p2")).empty());
  EXPECT_TRUE(registry.Affected(Event("users", "p1")).empty());
}

TEST(DependencyRegistryTest, TableLevelDependencyMatchesAnyRow) {
  DependencyRegistry registry;
  registry.Add("frag1", "products");  // Whole table.
  EXPECT_EQ(registry.Affected(Event("products", "anything")).size(), 1u);
  EXPECT_EQ(registry.Affected(Event("products", "")).size(), 1u);
}

TEST(DependencyRegistryTest, MultipleFragmentsOneSource) {
  DependencyRegistry registry;
  registry.Add("b-frag", "quotes", "IBM");
  registry.Add("a-frag", "quotes", "IBM");
  std::vector<std::string> affected = registry.Affected(Event("quotes", "IBM"));
  ASSERT_EQ(affected.size(), 2u);
  // Deterministic sorted order.
  EXPECT_EQ(affected[0], "a-frag");
  EXPECT_EQ(affected[1], "b-frag");
}

TEST(DependencyRegistryTest, RowAndTableDepsCombineWithoutDuplicates) {
  DependencyRegistry registry;
  registry.Add("frag", "products", "p1");
  registry.Add("frag", "products");  // Same fragment, table-level too.
  EXPECT_EQ(registry.Affected(Event("products", "p1")).size(), 1u);
}

TEST(DependencyRegistryTest, RemoveFragmentDropsAllItsDeps) {
  DependencyRegistry registry;
  registry.Add("frag", "products", "p1");
  registry.Add("frag", "users", "u1");
  registry.Add("other", "products", "p1");
  EXPECT_EQ(registry.fragment_count(), 2u);
  registry.RemoveFragment("frag");
  EXPECT_EQ(registry.fragment_count(), 1u);
  EXPECT_EQ(registry.Affected(Event("products", "p1")),
            std::vector<std::string>{"other"});
  EXPECT_TRUE(registry.Affected(Event("users", "u1")).empty());
}

TEST(DependencyRegistryTest, RemoveUnknownFragmentIsIgnored) {
  DependencyRegistry registry;
  registry.RemoveFragment("ghost");
  EXPECT_EQ(registry.fragment_count(), 0u);
}

TEST(DependencyRegistryTest, DuplicateAddIsIdempotent) {
  DependencyRegistry registry;
  registry.Add("frag", "t", "k");
  registry.Add("frag", "t", "k");
  EXPECT_EQ(registry.Affected(Event("t", "k")).size(), 1u);
  registry.RemoveFragment("frag");
  EXPECT_TRUE(registry.Affected(Event("t", "k")).empty());
}

TEST(DependencyRegistryTest, LateEndReportSparesANewerIncarnation) {
  // The registry guards each incarnation by its insert generation: ending
  // an old incarnation after the fragment was re-inserted must leave the
  // new incarnation's dependencies alone.
  DependencyRegistry registry;
  registry.BeginIncarnation("f", 1);
  registry.Add("f", "t", "old");
  registry.BeginIncarnation("f", 2);
  registry.Add("f", "t", "new");
  registry.RemoveFragment("f", 1);  // Late report for generation 1.
  EXPECT_EQ(registry.fragment_count(), 1u);
  EXPECT_TRUE(registry.Affected(Event("t", "old")).empty());
  EXPECT_EQ(registry.Affected(Event("t", "new")),
            std::vector<std::string>{"f"});
  registry.BeginIncarnation("f", 1);  // Stale begin: ignored.
  EXPECT_EQ(registry.Affected(Event("t", "new")).size(), 1u);
  registry.RemoveFragment("f", 2);
  EXPECT_EQ(registry.fragment_count(), 0u);
}

}  // namespace
}  // namespace dynaprox::bem
