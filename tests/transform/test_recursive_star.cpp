/**
 * @file
 * Tests of the recursive star transformation — Section 3.2's design
 * foil: degrees are bounded like UDT, but residual members accumulate
 * at every grouping level, which is exactly why the paper prefers UDT.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "ref/oracles.hpp"
#include "transform/basic_topologies.hpp"
#include "transform/udt.hpp"

namespace tigr::transform {
namespace {

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

unsigned
residualMembers(const SplitPlan &plan, NodeId k)
{
    auto degree = memberDegrees(plan);
    unsigned residual = 0;
    for (std::uint32_t m = 1; m < plan.memberCount; ++m)
        if (degree[m] < k)
            ++residual;
    return residual;
}

class RecursiveStarSweep
    : public ::testing::TestWithParam<std::tuple<EdgeIndex, NodeId>>
{
  protected:
    void
    SetUp() override
    {
        if (degree() <= bound())
            GTEST_SKIP() << "node not high-degree";
    }
    EdgeIndex degree() const { return std::get<0>(GetParam()); }
    NodeId bound() const { return std::get<1>(GetParam()); }
};

TEST_P(RecursiveStarSweep, AllDegreesBounded)
{
    SplitPlan plan = RecursiveStarTransform{}.plan(degree(), bound());
    auto member_degree = memberDegrees(plan);
    for (std::uint32_t m = 0; m < plan.memberCount; ++m)
        EXPECT_LE(member_degree[m], bound()) << "member " << m;
}

TEST_P(RecursiveStarSweep, EveryEdgeOwnedExactlyOnce)
{
    SplitPlan plan = RecursiveStarTransform{}.plan(degree(), bound());
    ASSERT_EQ(plan.ownerOfEdge.size(), degree());
    for (std::uint32_t owner : plan.ownerOfEdge)
        EXPECT_LT(owner, plan.memberCount);
}

TEST_P(RecursiveStarSweep, EveryMemberAdoptedExactlyOnce)
{
    SplitPlan plan = RecursiveStarTransform{}.plan(degree(), bound());
    std::vector<unsigned> adopted(plan.memberCount, 0);
    for (auto [from, to] : plan.internalEdges) {
        (void)from;
        ++adopted[to];
    }
    EXPECT_EQ(adopted[0], 0u);
    for (std::uint32_t m = 1; m < plan.memberCount; ++m)
        EXPECT_EQ(adopted[m], 1u) << "member " << m;
}

TEST_P(RecursiveStarSweep, NeverFewerResidualsThanUdt)
{
    SplitPlan star = RecursiveStarTransform{}.plan(degree(), bound());
    SplitPlan udt = UdtTransform{}.plan(degree(), bound());
    EXPECT_GE(residualMembers(star, bound()),
              residualMembers(udt, bound()));
    // UDT's defining guarantee, for contrast: zero residual members.
    EXPECT_EQ(residualMembers(udt, bound()), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DegreeByBound, RecursiveStarSweep,
    ::testing::Combine(
        ::testing::Values<EdgeIndex>(5, 14, 100, 1000, 10007),
        ::testing::Values<NodeId>(3, 4, 10, 32)),
    [](const auto &info) {
        std::ostringstream name;
        name << 'd' << std::get<0>(info.param) << "_K"
             << std::get<1>(info.param);
        return name.str();
    });

TEST(RecursiveStar, Figure6CaseLeavesResiduals)
{
    // d = 5, K = 3: satellites own 3 and 2 edges — one residual, where
    // UDT has none (Figure 6 of the paper).
    SplitPlan plan = RecursiveStarTransform{}.plan(5, 3);
    EXPECT_GE(residualMembers(plan, 3), 1u);
}

TEST(RecursiveStar, WholeGraphCorollariesStillHold)
{
    // It is still a valid split transformation: connectivity and
    // distances survive (Theorem 1 applies — unique root-to-edge
    // paths through the hub hierarchy).
    graph::BuildOptions build;
    build.randomizeWeights = true;
    build.maxWeight = 20;
    build.weightSeed = 5;
    graph::Csr g = graph::GraphBuilder(build).build(
        graph::rmat({.nodes = 400, .edges = 5000, .seed = 5}));

    RecursiveStarTransform rstar;
    SplitOptions options{.degreeBound = 6,
                         .weightPolicy = DumbWeightPolicy::Zero};
    auto result = rstar.apply(g, options);
    EXPECT_LE(result.graph.maxOutDegree(), 6u);

    auto original = ref::dijkstra(g, 0);
    auto transformed = ref::dijkstra(result.graph, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(transformed[v], original[v]) << "node " << v;

    auto cc_orig = ref::connectedComponents(g);
    auto cc_new = ref::connectedComponents(result.graph);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(cc_new[v], cc_orig[v]) << "node " << v;
}

TEST(RecursiveStar, MoreNodesThanUdtOnLargeFanouts)
{
    // The residual waste compounds: across a whole power-law graph the
    // recursive star never creates fewer split nodes than UDT.
    graph::Csr g = graph::GraphBuilder().build(
        graph::rmat({.nodes = 1024, .edges = 20000, .seed = 9}));
    auto rstar = RecursiveStarTransform{}.apply(g, {.degreeBound = 4});
    auto udt = UdtTransform{}.apply(g, {.degreeBound = 4});
    EXPECT_GE(rstar.stats.newNodes, udt.stats.newNodes);
}

} // namespace
} // namespace tigr::transform
