// Pib::Observe between moves makes no heap allocation: the estimator's
// completion and scratch buffers are sized once per graph, and a
// neighbourhood is rebuilt only when the learner moves. This binary
// replaces the global operator new to count allocations, so it holds no
// other test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/pib.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace {
long long allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace stratlearn {
namespace {

TEST(PibAllocationTest, ObserveAllocatesNothingBetweenMoves) {
  for (int depth : {3, 5}) {
    Rng tree_rng(42 + static_cast<uint64_t>(depth));
    RandomTreeOptions options;
    options.depth = depth;
    options.min_branch = 2;
    options.max_branch = 3;
    options.early_leaf_prob = 0.1;
    RandomTree tree = MakeRandomTree(tree_rng, options);
    Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.5});
    // Only the last retrieval is likely to succeed, so PIB climbs.
    std::vector<double> probs(tree.probs.size(), 0.03);
    probs.back() = 0.9;
    IndependentOracle oracle(probs);
    QueryProcessor qp(&tree.graph);
    Rng rng(9);
    int observed = 0, moves = 0;
    for (int i = 0; i < 4000; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle.Next(rng));
      const long long before = allocations;
      const bool moved = pib.Observe(trace);
      if (moved) {
        ++moves;
        continue;
      }
      ++observed;
      ASSERT_EQ(allocations, before)
          << "depth " << depth << ", context " << i;
    }
    EXPECT_GT(observed, 3000);
    EXPECT_GT(moves, 0) << "depth " << depth;
  }
}

}  // namespace
}  // namespace stratlearn
