// Direct unit coverage of the AffinityHierarchy container (the dendrogram),
// independent of the analyses that build it.
#include <gtest/gtest.h>

#include "affinity/hierarchy.hpp"

namespace codelayout {
namespace {

/// Hand-built forest mirroring the paper's Figure 1(b):
///   node0..node4 = leaves B1,B4,B2,B3,B5 (ids 0..4)
///   node5 = (B3,B5) @ w=2; node6 = (B1,B4) @ w=3;
///   node7 = (B2,B3,B5) @ w=4; node8 = all @ w=5.
AffinityHierarchy fig1_forest() {
  std::vector<AffinityGroup> nodes(9);
  const Symbol syms[5] = {1, 4, 2, 3, 5};
  const std::uint64_t first[5] = {0, 1, 2, 5, 6};
  for (std::uint32_t i = 0; i < 5; ++i) {
    nodes[i] = AffinityGroup{.id = i,
                             .formed_at_w = 1,
                             .members = {syms[i]},
                             .children = {},
                             .first_occurrence = first[i]};
  }
  nodes[5] = AffinityGroup{.id = 5,
                           .formed_at_w = 2,
                           .members = {3, 5},
                           .children = {3, 4},
                           .first_occurrence = 5};
  nodes[6] = AffinityGroup{.id = 6,
                           .formed_at_w = 3,
                           .members = {1, 4},
                           .children = {0, 1},
                           .first_occurrence = 0};
  nodes[7] = AffinityGroup{.id = 7,
                           .formed_at_w = 4,
                           .members = {2, 3, 5},
                           .children = {2, 5},
                           .first_occurrence = 2};
  nodes[8] = AffinityGroup{.id = 8,
                           .formed_at_w = 5,
                           .members = {1, 4, 2, 3, 5},
                           .children = {6, 7},
                           .first_occurrence = 0};
  return AffinityHierarchy(std::move(nodes), {8});
}

TEST(HierarchyContainer, PartitionDescendsToLevel) {
  const AffinityHierarchy h = fig1_forest();
  EXPECT_EQ(h.partition_at(1).size(), 5u);
  EXPECT_EQ(h.partition_at(2).size(), 4u);
  EXPECT_EQ(h.partition_at(3).size(), 3u);
  EXPECT_EQ(h.partition_at(4).size(), 2u);
  EXPECT_EQ(h.partition_at(5).size(), 1u);
  EXPECT_EQ(h.partition_at(100).size(), 1u);
}

TEST(HierarchyContainer, PartitionOrderedByFirstOccurrence) {
  const AffinityHierarchy h = fig1_forest();
  const auto p4 = h.partition_at(4);
  ASSERT_EQ(p4.size(), 2u);
  EXPECT_EQ(h.node(p4[0]).members, (std::vector<Symbol>{1, 4}));
  EXPECT_EQ(h.node(p4[1]).members, (std::vector<Symbol>{2, 3, 5}));
}

TEST(HierarchyContainer, LayoutOrderBottomUp) {
  const AffinityHierarchy h = fig1_forest();
  EXPECT_EQ(h.layout_order(), (std::vector<Symbol>{1, 4, 2, 3, 5}));
}

TEST(HierarchyContainer, SymbolCountSumsRoots) {
  EXPECT_EQ(fig1_forest().symbol_count(), 5u);
}

TEST(HierarchyContainer, MultiRootForest) {
  std::vector<AffinityGroup> nodes(2);
  nodes[0] = AffinityGroup{.id = 0,
                           .formed_at_w = 1,
                           .members = {7},
                           .children = {},
                           .first_occurrence = 10};
  nodes[1] = AffinityGroup{.id = 1,
                           .formed_at_w = 1,
                           .members = {3},
                           .children = {},
                           .first_occurrence = 2};
  const AffinityHierarchy h(std::move(nodes), {0, 1});
  // Roots ordered by first occurrence in the layout: 3 before 7.
  EXPECT_EQ(h.layout_order(), (std::vector<Symbol>{3, 7}));
  EXPECT_EQ(h.partition_at(1).size(), 2u);
  EXPECT_EQ(h.symbol_count(), 2u);
}

TEST(HierarchyContainer, BadRootRejected) {
  std::vector<AffinityGroup> nodes(1);
  nodes[0].id = 0;
  nodes[0].members = {1};
  EXPECT_THROW(AffinityHierarchy(std::move(nodes), {5}), ContractError);
}

TEST(HierarchyContainer, NodeAccessorBoundsChecked) {
  const AffinityHierarchy h = fig1_forest();
  EXPECT_THROW((void)h.node(99), ContractError);
  EXPECT_EQ(h.node(8).members.size(), 5u);
}

TEST(HierarchyContainer, ToStringShowsNesting) {
  const std::string s = fig1_forest().to_string();
  EXPECT_NE(s.find("(w=5)"), std::string::npos);
  EXPECT_NE(s.find("  (w=3)"), std::string::npos);  // indented child
}

}  // namespace
}  // namespace codelayout
