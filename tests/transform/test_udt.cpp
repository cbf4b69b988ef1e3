/**
 * @file
 * Tests of the UDT transformation (Algorithm 1) and its paper-stated
 * properties: uniform member degrees, at most one residual node,
 * logarithmic tree height, unique ownership of original edges.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "transform/udt.hpp"

namespace tigr::transform {
namespace {

/** Outdegree of each plan member: owned edges + internal out-edges. */
std::vector<EdgeIndex>
memberDegrees(const SplitPlan &plan)
{
    std::vector<EdgeIndex> degree(plan.memberCount, 0);
    for (std::uint32_t owner : plan.ownerOfEdge)
        ++degree[owner];
    for (auto [from, to] : plan.internalEdges) {
        (void)to;
        ++degree[from];
    }
    return degree;
}

TEST(Udt, Figure6Example)
{
    // Degree-5 node with K=3: one new node, no residual members
    // (the star transformation leaves two — Figure 6 of the paper).
    UdtTransform udt;
    SplitPlan plan = udt.plan(5, 3);
    EXPECT_EQ(plan.memberCount, 2u);
    auto degree = memberDegrees(plan);
    EXPECT_EQ(degree[0], 3u); // root: 2 edges + link to new node
    EXPECT_EQ(degree[1], 3u); // new node: 3 edges
}

TEST(Udt, EntryStaysAtRoot)
{
    EXPECT_TRUE(UdtTransform{}.entryAtRoot());
}

class UdtPlanSweep
    : public ::testing::TestWithParam<std::tuple<EdgeIndex, NodeId>>
{
  protected:
    void
    SetUp() override
    {
        if (degree() <= bound())
            GTEST_SKIP() << "node not high-degree; nothing to split";
    }

    EdgeIndex degree() const { return std::get<0>(GetParam()); }
    NodeId bound() const { return std::get<1>(GetParam()); }
};

TEST_P(UdtPlanSweep, EveryEdgeOwnedExactlyOnce)
{
    SplitPlan plan = UdtTransform{}.plan(degree(), bound());
    ASSERT_EQ(plan.ownerOfEdge.size(), degree());
    for (std::uint32_t owner : plan.ownerOfEdge)
        EXPECT_LT(owner, plan.memberCount);
}

TEST_P(UdtPlanSweep, NonRootMembersHaveDegreeExactlyK)
{
    SplitPlan plan = UdtTransform{}.plan(degree(), bound());
    auto member_degree = memberDegrees(plan);
    for (std::uint32_t m = 1; m < plan.memberCount; ++m)
        EXPECT_EQ(member_degree[m], bound()) << "member " << m;
    EXPECT_GE(member_degree[0], 1u);
    EXPECT_LE(member_degree[0], bound());
}

TEST_P(UdtPlanSweep, NewNodeCountMatchesClosedForm)
{
    SplitPlan plan = UdtTransform{}.plan(degree(), bound());
    std::uint64_t expected =
        (degree() - bound() + bound() - 2) / (bound() - 1);
    EXPECT_EQ(plan.memberCount - 1, expected);
    // Each new member is adopted exactly once -> one internal edge each.
    EXPECT_EQ(plan.internalEdges.size(), expected);
}

TEST_P(UdtPlanSweep, EveryMemberAdoptedExactlyOnce)
{
    SplitPlan plan = UdtTransform{}.plan(degree(), bound());
    std::vector<unsigned> adopted(plan.memberCount, 0);
    for (auto [from, to] : plan.internalEdges) {
        (void)from;
        ++adopted[to];
    }
    EXPECT_EQ(adopted[0], 0u); // nothing points at the root
    for (std::uint32_t m = 1; m < plan.memberCount; ++m)
        EXPECT_EQ(adopted[m], 1u) << "member " << m;
}

TEST_P(UdtPlanSweep, TreeHeightLogarithmic)
{
    unsigned height = UdtTransform::treeHeight(degree(), bound());
    // P3: height grows as O(log_K d); pin it to ceil(log_K d) + 1.
    double log_bound = std::log(static_cast<double>(degree())) /
                       std::log(static_cast<double>(bound()));
    EXPECT_LE(height, static_cast<unsigned>(std::ceil(log_bound)) + 1)
        << "d=" << degree() << " K=" << bound();
    EXPECT_GE(height, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    DegreeByBound, UdtPlanSweep,
    ::testing::Combine(
        ::testing::Values<EdgeIndex>(5, 7, 16, 33, 100, 1000, 4097,
                                     100000),
        ::testing::Values<NodeId>(2, 3, 4, 8, 10, 32)),
    [](const auto &info) {
        std::ostringstream name;
        name << 'd' << std::get<0>(info.param) << "_K"
             << std::get<1>(info.param);
        return name.str();
    });

TEST(Udt, HeightOneWhenSingleSplitSuffices)
{
    // d = K+1 .. needs exactly one new node; height 1.
    EXPECT_EQ(UdtTransform::treeHeight(5, 4), 1u);
    EXPECT_EQ(UdtTransform::treeHeight(8, 4), 1u);
}

TEST(Udt, HeightZeroWhenNotSplit)
{
    EXPECT_EQ(UdtTransform::treeHeight(4, 4), 0u);
    EXPECT_EQ(UdtTransform::treeHeight(1, 4), 0u);
}

TEST(Udt, HeightGrowsWithDegree)
{
    unsigned prev = 0;
    for (EdgeIndex d : {10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL}) {
        unsigned h = UdtTransform::treeHeight(d, 8);
        EXPECT_GE(h, prev);
        prev = h;
    }
    // log_8(100000) ~ 5.5; expect height in a tight band around it.
    EXPECT_GE(prev, 5u);
    EXPECT_LE(prev, 7u);
}

} // namespace
} // namespace tigr::transform
