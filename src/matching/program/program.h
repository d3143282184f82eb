// Compiled predicate programs: batch evaluation of one message against a
// covering root's member filters.
//
// The matching fabric's read-side cost at scale is covered-member
// re-evaluation: every hit on a hot covering root walks its member list
// through the generic Filter::matches tree — per member a predicate-vector
// walk, per predicate a head scan, a Value variant dispatch and a three-way
// compare.  A PredicateProgram lowers one root's member list (the natural
// compilation unit: immutable once the snapshot is built, evaluated
// together on every root hit) into one flat program evaluated in a single
// pass over the message head:
//
//   * SLOTS — the distinct attribute names any member constrains, each
//     resolved ONCE per evaluation (one Message::find per slot instead of
//     one per predicate per member).
//   * INTERVAL TESTS — every numeric predicate folds into an inclusive
//     interval [lo, hi] per (member, attribute), stored SoA (parallel
//     lo/hi/member arrays, contiguous per slot).  The fold is exact
//     against Value::compare, which compares all numerics as doubles:
//     kLt c -> hi = nextafter(c, -inf), kLe c -> hi = c, kGt c ->
//     lo = nextafter(c, +inf), kGe c -> lo = c, kEq c -> [c, c], kInRange
//     -> [c, c2].  Inclusive (not half-open) bounds are what make the
//     +-inf message values exact: `v <= nextafter(c, -inf)` is v < c for
//     every double incl. infinities, where a half-open `v < hi` would
//     misclassify v = +inf under an unbounded-above interval.
//   * STRING TESTS — string equalities compare interned ids: the message's
//     string value is looked up once per slot, then every test is a single
//     integer compare.
//   * COUNTING — a member matches when its pass count reaches required_
//     [member] (its number of tests).  The inner loops run through the
//     runtime-dispatched SIMD kernels in simd.h: wide ordered compares
//     over the bound SoA folded to a movemask, a sparse ctz-driven
//     scatter into the uint16 count vector, and a bulk compare of counts
//     against required_ for the verdicts.  Both kernels (avx2 and
//     portable) produce byte-identical buffers.
//   * FALLBACKS — predicates outside the compiled language (kNe, string
//     orderings, non-finite operands) keep their member on the interpreter:
//     the program evaluates it via Filter::matches and overrides the
//     counting verdict.  Contradictory members (empty interval, clashing
//     equalities) compile to an unreachable required count and never match.
//
// Equivalence contract: evaluate()'s verdict per member is identical to
// Filter::matches for every message whose numeric values are not NaN.
// (Value::compare reports NaN "equal" to everything, so kLe/kGe/kEq accept
// NaN; interval tests reject it.  The reference counting index draws the
// same line — NaN heads sit outside every engine's equivalence contract.)
//
// Thread-safety: a compiled program is immutable; evaluate() is const and
// takes all mutable state through the caller-owned ProgramEval scratch, so
// any number of readers share one program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "message/filter.h"
#include "message/message.h"

namespace bdps::matching::program {

/// One message's attribute values resolved ONCE and shared across every
/// program evaluated against it — the fabric's batch entry point: a match
/// that hits hundreds of compiled roots resolves the head a single time
/// instead of once per program per slot.  Open-addressed over name hashes
/// precomputed at program compile time, so a slot lookup is a probe plus
/// at most one string compare instead of a head scan.
///
/// The view borrows the head's strings and values: it must not outlive
/// the message and must be reset() after the message changes.
class SlotValues {
 public:
  /// (Re)binds to `message`'s head.  Duplicate names keep the first
  /// occurrence, mirroring Message::find.
  void reset(const Message& message);

  /// Value of the attribute named `name`, where `hash` is
  /// std::hash<std::string>{}(name); nullptr when absent.
  const Value* find(const std::string& name, std::size_t hash) const {
    if (table_.empty()) return nullptr;
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Entry& entry = table_[i];
      if (entry.name == nullptr) return nullptr;
      if (entry.hash == hash && *entry.name == name) return entry.value;
    }
  }

 private:
  struct Entry {
    std::size_t hash = 0;
    const std::string* name = nullptr;  // nullptr = empty bucket.
    const Value* value = nullptr;
  };
  std::vector<Entry> table_;
  std::size_t mask_ = 0;
};

/// Caller-owned evaluation scratch (one per reader thread): pass counts,
/// the per-member verdicts, and a slot-value view for the convenience
/// overload of evaluate() (the fabric passes its own shared view).
struct ProgramEval {
  std::vector<std::uint16_t> counts;
  std::vector<std::uint8_t> matched;
  SlotValues values;
};

class PredicateProgram {
 public:
  /// Lowers `members` (one Filter per member, order preserved — verdict m
  /// in ProgramEval::matched refers to members[m]).  The pointed-to
  /// filters must outlive the program: fallback members evaluate through
  /// them at match time.  Never fails — uncompilable members degrade to
  /// fallbacks, never to wrong answers.
  static PredicateProgram compile(const std::vector<const Filter*>& members);

  std::size_t member_count() const { return required_.size(); }
  /// Members evaluated via Filter::matches instead of compiled tests.
  std::size_t fallback_count() const { return fallbacks_.size(); }
  std::size_t interval_test_count() const { return iv_lo_.size(); }
  std::size_t slot_count() const { return slots_.size(); }

  /// Evaluates every member against `message` in one pass; afterwards
  /// eval.matched[m] != 0 iff members[m]->matches(message) (NaN caveat in
  /// the header comment).  Resolves slots through eval.values.
  void evaluate(const Message& message, ProgramEval& eval) const {
    eval.values.reset(message);
    evaluate(message, eval.values, eval);
  }

  /// Batch entry point: `values` is a caller-owned view already reset()
  /// to `message`, shared across every program evaluated against it.
  /// Verdicts are identical to the convenience overload.
  void evaluate(const Message& message, const SlotValues& values,
                ProgramEval& eval) const;

 private:
  /// One constrained attribute: its contiguous test runs in the SoA
  /// arrays.  A slot carries interval tests, string tests or both (when
  /// different members type the same attribute differently).
  struct Slot {
    std::string name;
    std::size_t name_hash = 0;  // std::hash<std::string>{}(name).
    std::uint32_t iv_begin = 0;
    std::uint32_t iv_end = 0;
    std::uint32_t str_begin = 0;
    std::uint32_t str_end = 0;
  };

  /// required_ value no pass count can reach (members have < 2^16 - 1
  /// tests by construction): contradictory members compile to this.
  static constexpr std::uint16_t kNever = 0xFFFF;
  /// Interned id for "string not in any test" — compares unequal to every
  /// stored id.
  static constexpr std::uint32_t kUnknownString = 0xFFFFFFFFu;

  std::vector<Slot> slots_;
  // Interval tests, SoA: inclusive [lo, hi] bounds and owning member.
  std::vector<double> iv_lo_;
  std::vector<double> iv_hi_;
  std::vector<std::uint32_t> iv_member_;
  // String-equality tests: interned value id and owning member.
  std::vector<std::uint32_t> str_id_;
  std::vector<std::uint32_t> str_member_;
  std::unordered_map<std::string, std::uint32_t> interned_;
  /// Tests member m must pass (kNever = contradictory, matches nothing;
  /// 0 = wildcard, matches everything).
  std::vector<std::uint16_t> required_;
  /// (member, filter) pairs evaluated through the interpreter.
  std::vector<std::pair<std::uint32_t, const Filter*>> fallbacks_;
};

}  // namespace bdps::matching::program
