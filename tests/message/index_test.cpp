#include "message/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace bdps {
namespace {

Message make_message(std::vector<Attribute> head) {
  return Message(1, 0, 0.0, 50.0, std::move(head));
}

/// match() reports each id once in unspecified order; compare as sets.
std::vector<SubscriptionIndex::EntryId> sorted_match(
    const SubscriptionIndex& index, const Message& m) {
  std::vector<SubscriptionIndex::EntryId> ids = index.match(m);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Brute-force reference: evaluate every registered filter directly.
std::vector<SubscriptionIndex::EntryId> brute_force(
    const std::vector<Filter>& filters, const Message& m) {
  std::vector<SubscriptionIndex::EntryId> out;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    if (filters[i].matches(m)) out.push_back(i);
  }
  return out;
}

TEST(SubscriptionIndex, BasicLessThan) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kLt, Value(5.0));
  index.add(f);
  EXPECT_EQ(index.match(make_message({{"A1", Value(4.0)}})).size(), 1u);
  EXPECT_TRUE(index.match(make_message({{"A1", Value(5.0)}})).empty());
  EXPECT_TRUE(index.match(make_message({{"A1", Value(6.0)}})).empty());
}

TEST(SubscriptionIndex, InclusiveBoundaries) {
  SubscriptionIndex index;
  Filter le;
  le.where("A1", Op::kLe, Value(5.0));
  Filter ge;
  ge.where("A1", Op::kGe, Value(5.0));
  index.add(le);
  index.add(ge);
  const auto at_boundary = index.match(make_message({{"A1", Value(5.0)}}));
  EXPECT_EQ(at_boundary.size(), 2u);  // Both <=5 and >=5 match exactly 5.
}

TEST(SubscriptionIndex, WildcardMatchesEverything) {
  SubscriptionIndex index;
  index.add(Filter{});
  EXPECT_EQ(index.match(make_message({})).size(), 1u);
  EXPECT_EQ(index.match(make_message({{"A9", Value(1.0)}})).size(), 1u);
}

TEST(SubscriptionIndex, StringEquality) {
  SubscriptionIndex index;
  Filter f;
  f.where("sym", Op::kEq, Value("GOOG"));
  index.add(f);
  EXPECT_EQ(index.match(make_message({{"sym", Value("GOOG")}})).size(), 1u);
  EXPECT_TRUE(index.match(make_message({{"sym", Value("MSFT")}})).empty());
  EXPECT_TRUE(index.match(make_message({{"sym", Value(1.0)}})).empty());
}

TEST(SubscriptionIndex, NonIndexableOpsFallBackCorrectly) {
  SubscriptionIndex index;
  Filter ne;
  ne.where("A1", Op::kNe, Value(3.0));
  Filter range;
  range.where("A1", Op::kInRange, Value(2.0), Value(4.0));
  index.add(ne);
  index.add(range);
  const auto at2 = index.match(make_message({{"A1", Value(2.0)}}));
  ASSERT_EQ(at2.size(), 2u);  // ne(3) and in[2,4] both match 2.
  const auto at3 = index.match(make_message({{"A1", Value(3.0)}}));
  ASSERT_EQ(at3.size(), 1u);  // Only the range.
  EXPECT_EQ(at3[0], 1u);
}

TEST(SubscriptionIndex, MixedIndexableAndDirectPredicates) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kLt, Value(5.0)).where("A2", Op::kNe, Value(1.0));
  index.add(f);
  EXPECT_EQ(
      index.match(make_message({{"A1", Value(2.0)}, {"A2", Value(3.0)}}))
          .size(),
      1u);
  EXPECT_TRUE(
      index.match(make_message({{"A1", Value(2.0)}, {"A2", Value(1.0)}}))
          .empty());
  EXPECT_TRUE(
      index.match(make_message({{"A1", Value(7.0)}, {"A2", Value(3.0)}}))
          .empty());
}

TEST(SubscriptionIndex, MatchesEntryEvaluatesOneFilter) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kGt, Value(5.0));
  const auto id = index.add(f);
  EXPECT_TRUE(index.matches_entry(id, make_message({{"A1", Value(6.0)}})));
  EXPECT_FALSE(index.matches_entry(id, make_message({{"A1", Value(4.0)}})));
}

TEST(SubscriptionIndex, IncrementalAddsKeepMatching) {
  SubscriptionIndex index;
  std::vector<Filter> filters;
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    Filter f;
    f.where("A1", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    filters.push_back(f);
    index.add(f);
    // After each add the whole index must agree with brute force.
    const Message probe = make_message({{"A1", Value(rng.uniform(0.0, 10.0))}});
    ASSERT_EQ(sorted_match(index, probe), brute_force(filters, probe));
  }
}

/// Property test: the index is exactly equivalent to brute force on random
/// workloads mixing every operator.
class IndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalence, MatchesBruteForceOnRandomWorkload) {
  Rng rng(GetParam());
  SubscriptionIndex index;
  std::vector<Filter> filters;

  const Op ops[] = {Op::kLt, Op::kLe, Op::kGt, Op::kGe,
                    Op::kEq, Op::kNe, Op::kInRange};
  const char* attrs[] = {"A1", "A2", "A3"};

  for (int i = 0; i < 120; ++i) {
    Filter f;
    const int predicates = 1 + static_cast<int>(rng.uniform_index(3));
    for (int p = 0; p < predicates; ++p) {
      const Op op = ops[rng.uniform_index(7)];
      const char* attr = attrs[rng.uniform_index(3)];
      // Coarse grid so equality predicates actually hit sometimes.
      const double a = std::floor(rng.uniform(0.0, 10.0));
      if (op == Op::kInRange) {
        f.where(attr, op, Value(a), Value(a + 1.0 + rng.uniform_index(3)));
      } else {
        f.where(attr, op, Value(a));
      }
    }
    filters.push_back(f);
    index.add(f);
  }
  // A few wildcards too.
  for (int i = 0; i < 3; ++i) {
    filters.push_back(Filter{});
    index.add(Filter{});
  }

  for (int probe = 0; probe < 300; ++probe) {
    const Message m = make_message(
        {{"A1", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A2", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A3", Value(std::floor(rng.uniform(0.0, 10.0)))}});
    ASSERT_EQ(sorted_match(index, m), brute_force(filters, m))
        << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u, 1234u,
                                           0xdeadbeefu));

/// One Scratch serves indexes of 1, 64, 65 and 1000 ids in turn, each with
/// and without wildcards and disjuncts.  Every match, as ascending ids and
/// as a bitmap (match_bits), must be exact, and must leave the hit bitmap
/// all zero for the next index.
TEST(SubscriptionIndex, OneScratchServesIndexesOfEverySize) {
  struct Case {
    SubscriptionIndex index;
    // Disjuncts of id i: its filter plus any extra ones.
    std::vector<std::vector<Filter>> filters;
  };
  Rng rng(7);
  const char* attrs[] = {"A1", "A2", "A3"};
  const auto random_filter = [&] {
    Filter f;
    const int predicates = 1 + static_cast<int>(rng.uniform_index(2));
    for (int p = 0; p < predicates; ++p) {
      const Op op = rng.uniform() < 0.5 ? Op::kLt : Op::kGe;
      f.where(attrs[rng.uniform_index(3)], op,
              Value(std::floor(rng.uniform(0.0, 10.0))));
    }
    return f;
  };
  std::vector<Case> cases;
  for (const std::size_t size : {1u, 64u, 65u, 1000u}) {
    for (const bool extras : {false, true}) {
      Case& c = cases.emplace_back();
      for (std::size_t i = 0; i < size; ++i) {
        // With extras on, every 7th id is a wildcard and every 5th carries
        // a second disjunct (which may fire together with the first).
        const Filter f = extras && i % 7 == 3 ? Filter{} : random_filter();
        c.filters.push_back({f});
        ASSERT_EQ(c.index.add(f), i);
        if (extras && i % 5 == 1) {
          c.filters.back().push_back(random_filter());
          c.index.add_disjunct(i, c.filters.back().back());
        }
      }
      c.index.finalize();
    }
  }

  SubscriptionIndex::Scratch scratch;
  std::vector<std::uint64_t> bits;
  const auto hits_clear = [&] {
    return std::all_of(scratch.hits.begin(), scratch.hits.end(),
                       [](std::uint64_t w) { return w == 0; });
  };
  for (int probe = 0; probe < 60; ++probe) {
    const Message m = make_message(
        {{"A1", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A2", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A3", Value(std::floor(rng.uniform(0.0, 10.0)))}});
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const Case& c = cases[(k * 5 + static_cast<std::size_t>(probe)) %
                            cases.size()];
      std::vector<SubscriptionIndex::EntryId> expect;
      std::vector<std::uint64_t> expect_bits((c.filters.size() + 63) / 64, 0);
      for (std::size_t i = 0; i < c.filters.size(); ++i) {
        const bool hit =
            std::any_of(c.filters[i].begin(), c.filters[i].end(),
                        [&](const Filter& f) { return f.matches(m); });
        if (!hit) continue;
        expect.push_back(i);
        expect_bits[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      ASSERT_EQ(c.index.match(m, scratch), expect)
          << "probe " << probe << " size " << c.filters.size();
      ASSERT_TRUE(hits_clear());
      c.index.match_bits(m, scratch, bits);
      ASSERT_EQ(bits, expect_bits)
          << "probe " << probe << " size " << c.filters.size() << " (bits)";
      ASSERT_TRUE(hits_clear());
    }
  }
}

}  // namespace
}  // namespace bdps
