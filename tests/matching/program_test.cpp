// PredicateProgram unit suite: the compiled tier's equivalence contract
// against Filter::matches, pinned at the places it could plausibly break —
// nextafter boundary folds (kLt/kGt vs kLe/kGe at shared thresholds),
// +-inf message values against inclusive bounds, kInRange, string
// equality interning, fallback members (kNe, string orderings, non-finite
// operands), contradictory members, and slot sharing across members.
#include "matching/program/program.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "matching/program/simd.h"
#include "workload/generator.h"

namespace bdps::matching::program {
namespace {

Message make_message(std::vector<Attribute> head) {
  return Message(1, 0, 0.0, 50.0, std::move(head));
}

Filter where(const std::string& attr, Op op, Value v, Value v2 = Value()) {
  Filter f;
  f.where(attr, op, std::move(v), std::move(v2));
  return f;
}

/// Compiles `members` and checks evaluate() against Filter::matches for
/// every probe — the contract the fabric's differential fuzz relies on.
void expect_equivalent(const std::vector<Filter>& members,
                       const std::vector<Message>& probes) {
  std::vector<const Filter*> pointers;
  for (const Filter& f : members) pointers.push_back(&f);
  const PredicateProgram program = PredicateProgram::compile(pointers);
  ASSERT_EQ(program.member_count(), members.size());
  ProgramEval eval;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    program.evaluate(probes[p], eval);
    for (std::size_t m = 0; m < members.size(); ++m) {
      ASSERT_EQ(eval.matched[m] != 0, members[m].matches(probes[p]))
          << "member " << m << " (" << members[m].to_string() << ") probe "
          << p;
    }
  }
}

TEST(PredicateProgram, StrictBoundsFoldExactlyAtSharedThresholds) {
  // All four comparison shapes on one threshold: the nextafter folds must
  // reproduce the strict/inclusive split at c exactly, including one ulp
  // on either side.
  const double c = 5.0;
  const std::vector<Filter> members = {
      where("A", Op::kLt, Value(c)), where("A", Op::kLe, Value(c)),
      where("A", Op::kGt, Value(c)), where("A", Op::kGe, Value(c)),
      where("A", Op::kEq, Value(c))};
  std::vector<Message> probes;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {c, std::nextafter(c, -inf), std::nextafter(c, inf), 0.0, -inf, inf,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min()}) {
    probes.push_back(make_message({{"A", Value(v)}}));
  }
  probes.push_back(make_message({}));  // Missing attribute: nothing matches.
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, InfiniteMessageValuesAgainstFiniteBounds) {
  // The inclusive-bound representation exists for exactly this case: a
  // half-open fold would misclassify v = +inf under an unbounded-above
  // interval.  kLe DBL_MAX must reject +inf, kGe lowest() must reject
  // -inf's complement, etc.
  const std::vector<Filter> members = {
      where("A", Op::kLe, Value(std::numeric_limits<double>::max())),
      where("A", Op::kGe, Value(std::numeric_limits<double>::lowest())),
      where("A", Op::kLt, Value(std::numeric_limits<double>::max())),
      where("A", Op::kGt, Value(std::numeric_limits<double>::lowest()))};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Message> probes;
  for (const double v : {inf, -inf, 0.0, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()}) {
    probes.push_back(make_message({{"A", Value(v)}}));
  }
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, InRangeIsInclusiveBothEnds) {
  const std::vector<Filter> members = {
      where("A", Op::kInRange, Value(2.0), Value(4.0)),
      where("A", Op::kInRange, Value(3.0), Value(3.0)),   // Point range.
      where("A", Op::kInRange, Value(4.0), Value(2.0))};  // Empty range.
  std::vector<Message> probes;
  for (const double v : {1.0, 2.0, 2.5, 3.0, 4.0, 4.5}) {
    probes.push_back(make_message({{"A", Value(v)}}));
  }
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, ConjunctionsCountAcrossSharedSlots) {
  // Members constraining overlapping attribute sets: slots are shared,
  // counts must land on the right member.
  std::vector<Filter> members;
  {
    Filter f;
    f.where("A", Op::kGe, Value(1.0));
    f.where("B", Op::kLt, Value(5.0));
    members.push_back(std::move(f));
  }
  {
    Filter f;
    f.where("A", Op::kLt, Value(3.0));
    f.where("C", Op::kGt, Value(0.0));
    members.push_back(std::move(f));
  }
  {
    Filter f;  // Same attribute twice: both predicates must hold.
    f.where("A", Op::kGe, Value(1.0));
    f.where("A", Op::kLe, Value(2.0));
    members.push_back(std::move(f));
  }
  members.push_back(Filter{});  // Wildcard member: required count 0.
  std::vector<Message> probes = {
      make_message({{"A", Value(2.0)}, {"B", Value(1.0)}, {"C", Value(1.0)}}),
      make_message({{"A", Value(2.5)}, {"B", Value(9.0)}}),
      make_message({{"A", Value(0.5)}, {"C", Value(1.0)}}),
      make_message({{"B", Value(1.0)}}),
      make_message({})};
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, StringEqualityComparesInternedIds) {
  const std::vector<Filter> members = {
      where("S", Op::kEq, Value(std::string("alpha"))),
      where("S", Op::kEq, Value(std::string("beta"))),
      where("T", Op::kEq, Value(std::string("alpha")))};
  const std::vector<Message> probes = {
      make_message({{"S", Value(std::string("alpha"))}}),
      make_message({{"S", Value(std::string("beta"))},
                    {"T", Value(std::string("alpha"))}}),
      make_message({{"S", Value(std::string("gamma"))}}),  // Never interned.
      make_message({{"S", Value(7.0)}}),  // Type mismatch on a string slot.
      make_message({})};
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, UncompilablePredicatesFallBackToInterpreter) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Filter> members = {
      where("A", Op::kNe, Value(3.0)),                      // kNe.
      where("S", Op::kLt, Value(std::string("m"))),         // String order.
      where("A", Op::kLe, Value(nan)),                      // NaN operand.
      where("A", Op::kGe,
            Value(std::numeric_limits<double>::infinity())),  // Inf operand.
      where("A", Op::kLt, Value(3.0))};                     // Compiled peer.
  std::vector<const Filter*> pointers;
  for (const Filter& f : members) pointers.push_back(&f);
  const PredicateProgram program = PredicateProgram::compile(pointers);
  EXPECT_GE(program.fallback_count(), 4u);
  const std::vector<Message> probes = {
      make_message({{"A", Value(2.0)}, {"S", Value(std::string("a"))}}),
      make_message({{"A", Value(3.0)}, {"S", Value(std::string("z"))}}),
      make_message({{"A", Value(std::numeric_limits<double>::infinity())}}),
      make_message({})};
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, ContradictoryMembersNeverMatch) {
  std::vector<Filter> members;
  {
    Filter f;  // Empty numeric interval.
    f.where("A", Op::kGt, Value(5.0));
    f.where("A", Op::kLt, Value(5.0));
    members.push_back(std::move(f));
  }
  {
    Filter f;  // Clashing string equalities.
    f.where("S", Op::kEq, Value(std::string("x")));
    f.where("S", Op::kEq, Value(std::string("y")));
    members.push_back(std::move(f));
  }
  {
    Filter f;  // Number-equality vs string-equality on one attribute.
    f.where("A", Op::kEq, Value(2.0));
    f.where("A", Op::kEq, Value(std::string("two")));
    members.push_back(std::move(f));
  }
  const std::vector<Message> probes = {
      make_message({{"A", Value(5.0)}, {"S", Value(std::string("x"))}}),
      make_message({{"A", Value(2.0)}, {"S", Value(std::string("y"))}}),
      make_message({{"A", Value(std::string("two"))}})};
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, DuplicateMessageAttributesUseFirstOccurrence) {
  // Message::find returns the first occurrence; the program resolves each
  // slot through the same lookup, so duplicate-name heads stay equivalent.
  const std::vector<Filter> members = {where("A", Op::kGe, Value(3.0)),
                                       where("A", Op::kLt, Value(3.0))};
  const std::vector<Message> probes = {
      make_message({{"A", Value(5.0)}, {"A", Value(1.0)}}),
      make_message({{"A", Value(1.0)}, {"A", Value(5.0)}})};
  expect_equivalent(members, probes);
}

TEST(PredicateProgram, ZipfCorpusEquivalenceSweep) {
  // Randomized closure over the generator the fabric benches use: every
  // (member, probe) verdict must agree with the interpreter.
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    ChurnWorkloadConfig config;
    config.seed = seed;
    config.attribute_pool = 10;
    config.threshold_pool = 6;
    ChurnWorkload workload(config);
    std::vector<Filter> members;
    for (int i = 0; i < 96; ++i) members.push_back(workload.next_filter());
    std::vector<Message> probes;
    for (int i = 0; i < 64; ++i) probes.push_back(workload.next_message());
    expect_equivalent(members, probes);
  }
}

// ---- SIMD kernel differential suite ---------------------------------------
//
// The hard gate of the SIMD tier: every kernel in the dispatch table,
// forced in turn, must produce byte-identical count and verdict buffers —
// on ±1ulp boundary probes, ±inf/NaN/denormal heads, and member counts
// that leave a partial final vector lane.

/// Restores auto-dispatch (CPU detection) however a test exits.
struct KernelGuard {
  ~KernelGuard() { simd::force_kernel(nullptr); }
};

/// Deterministic member mix for one program width: dense interval runs on
/// shared slots, conjunctions, string equalities, fallbacks (kNe),
/// contradictions and wildcards — every compiled shape in one program.
std::vector<Filter> adversarial_members(std::size_t n, double c) {
  std::vector<Filter> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double step = static_cast<double>(i / 8);
    switch (i % 8) {
      case 0:
        members.push_back(where("A", Op::kLt, Value(c + step)));
        break;
      case 1:
        members.push_back(where("A", Op::kGe, Value(c - step)));
        break;
      case 2: {
        Filter f;
        f.where("A", Op::kGe, Value(c - step));
        f.where("B", Op::kLe, Value(c + step));
        members.push_back(std::move(f));
        break;
      }
      case 3:
        members.push_back(
            where("B", Op::kInRange, Value(c - step), Value(c + step)));
        break;
      case 4:
        members.push_back(where(
            "S", Op::kEq, Value(std::string("s") + std::to_string(i % 3))));
        break;
      case 5:
        members.push_back(where("A", Op::kNe, Value(c)));  // Fallback.
        break;
      case 6: {
        Filter f;  // Contradiction: required count is unreachable.
        f.where("A", Op::kGt, Value(c));
        f.where("A", Op::kLt, Value(c));
        members.push_back(std::move(f));
        break;
      }
      default:
        members.push_back(Filter{});  // Wildcard.
        break;
    }
  }
  return members;
}

/// (probe, head contains NaN) — NaN probes stay in the kernel-vs-kernel
/// bitwise comparison but out of the interpreter check (program.h: NaN
/// heads sit outside the Filter::matches equivalence contract).
std::vector<std::pair<Message, bool>> adversarial_probes(double c) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<Message, bool>> probes;
  for (const double v :
       {c, std::nextafter(c, -inf), std::nextafter(c, inf), c - 1.0, c + 1.0,
        0.0, -0.0, inf, -inf, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min()}) {
    probes.emplace_back(make_message({{"A", Value(v)}, {"B", Value(v)}}),
                        false);
    probes.emplace_back(
        make_message({{"A", Value(v)}, {"S", Value(std::string("s1"))}}),
        false);
  }
  probes.emplace_back(make_message({{"A", Value(nan)}, {"B", Value(nan)}}),
                      true);
  probes.emplace_back(make_message({{"A", Value(nan)}, {"B", Value(c)}}),
                      true);
  probes.emplace_back(
      make_message({{"S", Value(std::string("s0"))}, {"B", Value(c)}}), false);
  probes.emplace_back(make_message({{"S", Value(std::string("zz"))}}), false);
  probes.emplace_back(make_message({{"A", Value(std::string("s1"))}}),
                      false);  // Type mismatch on a numeric slot.
  probes.emplace_back(make_message({}), false);
  return probes;
}

TEST(PredicateProgramSimd, DispatchTableAlwaysResolvesPortableLast) {
  const std::vector<const simd::Kernel*> kernels = simd::available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back()->name, "portable");
  EXPECT_NE(simd::active_kernel_name(), nullptr);
  EXPECT_FALSE(simd::force_kernel("no-such-isa"));
}

TEST(PredicateProgramSimd, AllKernelsBitwiseAgreeOnAdversarialWidths) {
  KernelGuard guard;
  const std::vector<const simd::Kernel*> kernels = simd::available_kernels();
  ASSERT_FALSE(kernels.empty());
  const double c = 1.5;
  const auto probes = adversarial_probes(c);
  // Odd widths leave partial final lanes at every vector width (2/4/8/16);
  // the larger ones cover the full unrolled blocks.
  for (const std::size_t width : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 15u,
                                  16u, 17u, 31u, 33u, 64u, 100u, 255u}) {
    const std::vector<Filter> members = adversarial_members(width, c);
    std::vector<const Filter*> pointers;
    for (const Filter& f : members) pointers.push_back(&f);
    const PredicateProgram program = PredicateProgram::compile(pointers);
    ProgramEval eval;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<std::uint16_t> baseline_counts;
      std::vector<std::uint8_t> baseline_matched;
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        ASSERT_TRUE(simd::force_kernel(kernels[k]->name));
        program.evaluate(probes[p].first, eval);
        if (k == 0) {
          baseline_counts = eval.counts;
          baseline_matched = eval.matched;
          continue;
        }
        ASSERT_EQ(eval.counts, baseline_counts)
            << "kernel " << kernels[k]->name << " vs " << kernels[0]->name
            << " width " << width << " probe " << p;
        ASSERT_EQ(eval.matched, baseline_matched)
            << "kernel " << kernels[k]->name << " vs " << kernels[0]->name
            << " width " << width << " probe " << p;
      }
      if (probes[p].second) continue;  // NaN head: kernels-only comparison.
      for (std::size_t m = 0; m < members.size(); ++m) {
        ASSERT_EQ(baseline_matched[m] != 0,
                  members[m].matches(probes[p].first))
            << "member " << m << " (" << members[m].to_string() << ") width "
            << width << " probe " << p;
      }
    }
  }
}

TEST(PredicateProgramSimd, EveryKernelPassesTheZipfEquivalenceSweep) {
  KernelGuard guard;
  for (const simd::Kernel* kernel : simd::available_kernels()) {
    ASSERT_TRUE(simd::force_kernel(kernel->name));
    ChurnWorkloadConfig config;
    config.seed = 29;
    config.attribute_pool = 10;
    config.threshold_pool = 6;
    ChurnWorkload workload(config);
    std::vector<Filter> members;
    for (int i = 0; i < 96; ++i) members.push_back(workload.next_filter());
    std::vector<Message> probes;
    for (int i = 0; i < 64; ++i) probes.push_back(workload.next_message());
    expect_equivalent(members, probes);
  }
}

TEST(PredicateProgramSimd, BatchOverloadMatchesConvenienceOverload) {
  // The fabric's batch entry point: one SlotValues view shared across
  // programs must produce the verdicts of the per-call overload.
  const double c = 1.5;
  const std::vector<Filter> members = adversarial_members(33, c);
  std::vector<const Filter*> pointers;
  for (const Filter& f : members) pointers.push_back(&f);
  const PredicateProgram program = PredicateProgram::compile(pointers);
  SlotValues values;
  ProgramEval plain;
  ProgramEval batch;
  for (const auto& [probe, has_nan] : adversarial_probes(c)) {
    (void)has_nan;  // Bitwise overload parity holds for NaN heads too.
    program.evaluate(probe, plain);
    values.reset(probe);
    program.evaluate(probe, values, batch);
    ASSERT_EQ(batch.counts, plain.counts);
    ASSERT_EQ(batch.matched, plain.matched);
  }
}

TEST(PredicateProgram, EvaluateIsReentrantAcrossScratches) {
  // One immutable program, two scratches, interleaved evaluations.
  const std::vector<Filter> members = {where("A", Op::kLt, Value(5.0)),
                                       where("A", Op::kGe, Value(5.0))};
  std::vector<const Filter*> pointers;
  for (const Filter& f : members) pointers.push_back(&f);
  const PredicateProgram program = PredicateProgram::compile(pointers);
  ProgramEval a;
  ProgramEval b;
  const Message low = make_message({{"A", Value(1.0)}});
  const Message high = make_message({{"A", Value(9.0)}});
  program.evaluate(low, a);
  program.evaluate(high, b);
  EXPECT_NE(a.matched[0], 0);
  EXPECT_EQ(a.matched[1], 0);
  EXPECT_EQ(b.matched[0], 0);
  EXPECT_NE(b.matched[1], 0);
}

}  // namespace
}  // namespace bdps::matching::program
