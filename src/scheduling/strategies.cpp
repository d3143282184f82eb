#include "scheduling/scheduler.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace bdps {

namespace {

/// The PC and EBPC scores from EB and EB' — the one expression the
/// reference metrics and BoundedScanState share, so both round alike.
double pc_score(double eb, double eb_post) { return eb - eb_post; }

double ebpc_score(double weight, double eb, double eb_post) {
  return weight * eb + (1.0 - weight) * (eb - eb_post);
}

}  // namespace

double expected_benefit(const QueuedMessage& queued,
                        const SchedulingContext& context) {
  return kernel_expected_benefit(queued, context);
}

double postponed_benefit(const QueuedMessage& queued,
                         const SchedulingContext& context) {
  return kernel_postponed_benefit(queued, context);
}

double postponing_cost(const QueuedMessage& queued,
                       const SchedulingContext& context) {
  const BenefitPair pair = kernel_benefit_pair(queued, context);
  return pc_score(pair.immediate, pair.postponed);
}

double ebpc_metric(const QueuedMessage& queued,
                   const SchedulingContext& context, double weight) {
  const BenefitPair pair = kernel_benefit_pair(queued, context);
  return ebpc_score(weight, pair.immediate, pair.postponed);
}

double lower_bound_benefit(const QueuedMessage& queued,
                           const SchedulingContext& context) {
  return kernel_lower_bound_benefit(queued, context);
}

TimeMs mean_remaining_lifetime(const QueuedMessage& queued, TimeMs now) {
  return kernel_mean_remaining_lifetime(queued, now);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Relative slack of an EBPC score bound over EB (see BoundedScanState).
constexpr double kEbpcBoundSlack =
    8.0 * std::numeric_limits<double>::epsilon();

/// Reference argmax scan (see Strategy::reference_pick).  Exactly tied
/// scores break through tie_break_before.
template <typename ScoreFn>
std::size_t pick_max(std::span<const QueuedMessage> queue, ScoreFn score) {
  std::size_t best = 0;
  double best_score = -kInf;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const double s = score(queue[i]);
    if (s > best_score) {
      best_score = s;
      best = i;
    } else if (s == best_score && tie_break_before(queue[i], queue[best])) {
      best = i;
    }
  }
  return best;
}

[[noreturn]] void invariant_failed(const char* state, const std::string& what) {
  throw std::logic_error(std::string(state) + ": " + what);
}

double rl_score(const QueuedMessage& queued, TimeMs now) {
  const TimeMs lifetime = kernel_mean_remaining_lifetime(queued, now);
  return lifetime == kNoDeadline ? -kInf : -lifetime;
}

// ---- FIFO / RL: indexed min-heap on time-invariant keys --------------------
//
// Both policies order rows by keys fixed at enqueue time (FIFO: enqueue
// instant; RL: mean expiry across deadline-bounded targets, because
// mean-lifetime = mean-expiry - now shifts every row equally).  The state is
// a binary min-heap of queue indices plus a position map, both mirrored
// against the queue's swap-with-back removal, so enqueue/remove cost
// O(log n) and pick reads the root.

struct HeapKey {
  double primary = 0.0;  // FIFO: 0; RL: mean expiry (+inf when unbounded).
  TimeMs enqueue_time = 0.0;
  MessageId id = 0;

  bool before(const HeapKey& other) const {
    if (primary != other.primary) return primary < other.primary;
    if (enqueue_time != other.enqueue_time) {
      return enqueue_time < other.enqueue_time;
    }
    return id < other.id;
  }
};

class HeapState final : public SchedulerState {
 public:
  explicit HeapState(StrategyKind kind) : kind_(kind) {}

  void on_enqueue(Rows queue, std::size_t index) override {
    keys_.push_back(make_key(queue[index]));
    pos_.push_back(heap_.size());
    heap_.push_back(index);
    sift_up(heap_.size() - 1);
  }

  void on_remove(Rows, std::size_t index) override {
    detach(pos_[index]);
    const std::size_t last = keys_.size() - 1;
    if (index != last) {
      // take_at will swap the back row into slot `index`: rename it.
      keys_[index] = keys_[last];
      const std::size_t slot = pos_[last];
      heap_[slot] = index;
      pos_[index] = slot;
    }
    keys_.pop_back();
    pos_.pop_back();
  }

  std::size_t pick(Rows, const SchedulingContext&) override {
    return heap_.front();
  }

  void check_invariants(Rows queue, const SchedulingContext&) const override {
    const std::size_t n = queue.size();
    if (keys_.size() != n || pos_.size() != n || heap_.size() != n) {
      invariant_failed("HeapState", "the heap does not mirror the queue");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const HeapKey want = make_key(queue[i]);
      const HeapKey& key = keys_[i];
      if (heap_[pos_[i]] != i || key.before(want) || want.before(key)) {
        invariant_failed("HeapState", "row " + std::to_string(i) +
                                          "'s key or heap slot is stale");
      }
    }
    for (std::size_t slot = 1; slot < n; ++slot) {
      if (slot_before(slot, (slot - 1) / 2)) {
        invariant_failed("HeapState", "heap order broken at slot " +
                                          std::to_string(slot));
      }
    }
  }

 private:
  HeapKey make_key(const QueuedMessage& queued) const {
    HeapKey key{0.0, queued.enqueue_time, queued.message->id()};
    if (kind_ == StrategyKind::kRemainingLifetime) {
      key.primary = queued.bounded_targets == 0
                        ? kInf
                        : queued.expiry_sum /
                              static_cast<double>(queued.bounded_targets);
    }
    return key;
  }

  bool slot_before(std::size_t a, std::size_t b) const {
    return keys_[heap_[a]].before(keys_[heap_[b]]);
  }

  void sift_up(std::size_t slot) {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!slot_before(slot, parent)) break;
      std::swap(heap_[slot], heap_[parent]);
      pos_[heap_[slot]] = slot;
      pos_[heap_[parent]] = parent;
      slot = parent;
    }
  }

  void sift_down(std::size_t slot) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * slot + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = slot;
      if (left < n && slot_before(left, smallest)) smallest = left;
      if (right < n && slot_before(right, smallest)) smallest = right;
      if (smallest == slot) return;
      std::swap(heap_[slot], heap_[smallest]);
      pos_[heap_[slot]] = slot;
      pos_[heap_[smallest]] = smallest;
      slot = smallest;
    }
  }

  /// Removes the entry at heap slot `slot` (filling the hole with the last
  /// heap entry and re-sifting).  pos_ for the removed queue index becomes
  /// stale; on_remove repairs or pops it.
  void detach(std::size_t slot) {
    const std::size_t back = heap_.size() - 1;
    if (slot != back) {
      heap_[slot] = heap_[back];
      pos_[heap_[slot]] = slot;
    }
    heap_.pop_back();
    if (slot < heap_.size()) {
      sift_down(slot);
      sift_up(slot);
    }
  }

  StrategyKind kind_;
  std::vector<std::size_t> heap_;  // Heap of queue indices.
  std::vector<std::size_t> pos_;   // pos_[queue index] = heap slot.
  std::vector<HeapKey> keys_;      // keys_[queue index], mirrors the queue.
};

// ---- PC / EBPC: linear bound scan over the kernel rows ---------------------
//
// For the postponing-cost family the decay bound is EB_m while the score is
// PC/EBPC — systematically *below* the bound — so the contender set (rows
// whose bound clears the running best) stays large and a heap walk pays
// pop/push churn on every contender every pick.  The flat scan touches each
// bound once, skips losers with one compare, and measured ~2x faster than
// the heap variant at depth 4096 (584us vs 1148us per dispatch cycle, see
// BENCH_pr4.json); the heap below is reserved for the strategies whose
// bound is the score itself.  A contender's EB alone refreshes its bound,
// and its EB' is computed only when that fresh bound still reaches the
// running best.
class BoundedScanState final : public SchedulerState {
 public:
  BoundedScanState(StrategyKind kind, double weight)
      : kind_(kind), weight_(weight) {}

  void on_enqueue(Rows, std::size_t) override { bounds_.push_back(kInf); }

  void on_remove(Rows, std::size_t index) override {
    bounds_[index] = bounds_.back();
    bounds_.pop_back();
  }

  void on_tick(Rows, const SchedulingContext& context) override {
    // Bounds assume time moves forward: a clock regression voids them.
    if (context.now < last_now_) bounds_.assign(bounds_.size(), kInf);
  }

  std::size_t pick(Rows q, const SchedulingContext& context) override {
    on_tick(q, context);
    last_now_ = context.now;
    // A lone row wins unscored; its stale bound stays a valid upper bound.
    if (q.size() == 1) return 0;
    // The row with the largest bound is scored in full first: it is the
    // likeliest winner, and the higher the running best, the more of the
    // other contenders lose on EB alone, before their EB' is computed.
    // The winner is the argmax under (score, tie_break_before), a strict
    // order, so it does not depend on which row is scored first.
    const std::size_t first = static_cast<std::size_t>(
        std::max_element(bounds_.begin(), bounds_.end()) - bounds_.begin());
    std::size_t best = first;
    double best_score = rescore(q, first, context);
    for (std::size_t i = 0; i < q.size(); ++i) {
      // A stale bound below the running best can never win; equal to it, it
      // can at most tie — which only matters if this row wins the tie.
      if (i == first || !may_beat(q, bounds_[i], i, best_score, best)) {
        continue;
      }
      const double eb = kernel_expected_benefit(q[i], context);
      bounds_[i] = bound_of(eb);
      if (!may_beat(q, bounds_[i], i, best_score, best)) continue;
      const double s = score_of(eb, kernel_postponed_benefit(q[i], context));
      if (s > best_score ||
          (s == best_score && tie_break_before(q[i], q[best]))) {
        best_score = s;
        best = i;
      }
    }
    return best;
  }

  void check_invariants(Rows q,
                        const SchedulingContext& context) const override {
    if (bounds_.size() != q.size()) {
      invariant_failed("BoundedScanState",
                       "the bounds do not mirror the queue");
    }
    // A pick at an earlier instant voids the bounds first.
    if (context.now < last_now_) return;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const BenefitPair pair = kernel_benefit_pair(q[i], context);
      const double score = score_of(pair.immediate, pair.postponed);
      if (bounds_[i] < score) {
        invariant_failed("BoundedScanState",
                         "row " + std::to_string(i) + "'s bound " +
                             std::to_string(bounds_[i]) +
                             " is below its score " + std::to_string(score));
      }
    }
  }

 private:
  /// Whether row `i` with score bound `bound` can still beat the running
  /// best: clear it, or tie it and win the tie.
  static bool may_beat(Rows q, double bound, std::size_t i,
                       double best_score, std::size_t best) {
    return bound > best_score ||
           (bound == best_score && tie_break_before(q[i], q[best]));
  }

  /// The score's decay bound from EB.  PC = EB − EB' never exceeds EB.
  /// r·EB + (1 − r)(EB − EB') never exceeds EB exactly, but it can round
  /// up to 4 ulps above it; the bound carries that slack so a pruned row
  /// can never have outscored the running best.
  double bound_of(double eb) const {
    return kind_ == StrategyKind::kEbpc ? eb + kEbpcBoundSlack * eb : eb;
  }

  double score_of(double eb, double eb_post) const {
    return kind_ == StrategyKind::kEbpc ? ebpc_score(weight_, eb, eb_post)
                                        : pc_score(eb, eb_post);
  }

  /// Exact score of row `i` now; refreshes its decay bound as a side
  /// effect.
  double rescore(Rows q, std::size_t i, const SchedulingContext& context) {
    const BenefitPair pair = kernel_benefit_pair(q[i], context);
    bounds_[i] = bound_of(pair.immediate);
    return score_of(pair.immediate, pair.postponed);
  }

  StrategyKind kind_;
  double weight_;
  TimeMs last_now_ = -kInf;
  std::vector<double> bounds_;  // bounds_[queue index], mirrors the queue.
};


// ---- EB / LB: lazy bound-heap argmax over the kernel rows ------------------
//
// These scores are time-dependent, but every one of them is dominated by
// EB_m, and EB_m (like LB_m) can only decay as `now` advances: each target
// term is price · Phi((slack_const - now) / (size · sigma)), monotone
// non-increasing in now.  So the exact score computed at an earlier instant
// is an upper bound forever after (until the row set changes), and FT /
// rate-estimate drift cannot raise it (EB is FT-independent).
//
// pick walks a lazy *max-heap over the bounds* instead of rescanning them
// linearly: entries surface in decreasing-bound order, so the walk stops at
// the first live bound that cannot beat (or, on an exact bound tie, cannot
// out-tie) the running best — O(contenders · log n) heap traffic per pick
// where the rescan paid an O(n) sweep every time.  Laziness means nothing
// is ever updated in place: rescoring a row pushes a fresh entry, and a
// superseded entry is discarded when it surfaces (its bound no longer
// matches the row's current bound, or its generation is stale).
//
// Rows are tracked by *serial*, not queue index — take_at's swap-with-back
// renames indices on every removal, and a heap keyed by index would have to
// be rebuilt each time.  A serial is allocated per enqueue, freed (with a
// generation bump that invalidates surviving entries) on removal, and the
// serial <-> index maps are patched in O(1) per rename.  Heap order for
// equal bounds is the shared tie order (tie_break_before), so among
// tied-bound rows the tie winner surfaces first and the walk can stop as
// soon as the top loses a tie to the running best; tie-order transitivity
// makes discarding tied losers safe.
//
// A just-rescored row's fresh entry can resurface while still matching
// best_score (exact EB/LB ties), where re-rescoring would loop; a per-pick
// epoch marks rescored rows, whose (still current) entries are parked
// aside mid-walk and re-pushed afterwards instead of being rescored again.
class BoundedArgmaxState final : public SchedulerState {
 public:
  explicit BoundedArgmaxState(StrategyKind kind) : kind_(kind) {}

  void on_enqueue(Rows queue, std::size_t index) override {
    std::uint32_t serial;
    if (!free_serials_.empty()) {
      serial = free_serials_.back();
      free_serials_.pop_back();
    } else {
      serial = static_cast<std::uint32_t>(bound_by_serial_.size());
      bound_by_serial_.push_back(kInf);
      generation_.push_back(0);
      index_by_serial_.push_back(-1);
      visited_epoch_.push_back(0);
    }
    bound_by_serial_[serial] = kInf;
    index_by_serial_[serial] = static_cast<std::int64_t>(index);
    serial_by_index_.push_back(serial);
    push_entry(serial, kInf, queue[index]);
  }

  void on_remove(Rows, std::size_t index) override {
    const std::uint32_t serial = serial_by_index_[index];
    ++generation_[serial];  // Kills this row's surviving heap entries.
    index_by_serial_[serial] = -1;
    free_serials_.push_back(serial);
    // take_at will swap the back row into slot `index`: rename it.
    const std::uint32_t moved = serial_by_index_.back();
    if (index != serial_by_index_.size() - 1) {
      serial_by_index_[index] = moved;
      index_by_serial_[moved] = static_cast<std::int64_t>(index);
    }
    serial_by_index_.pop_back();
    // One-row picks never walk the heap, so drop its dead entries here.
    if (serial_by_index_.empty()) heap_.clear();
  }

  void on_tick(Rows q, const SchedulingContext& context) override {
    // Bounds assume time moves forward: a clock regression voids them.
    if (context.now < last_now_) {
      heap_.clear();
      for (std::size_t i = 0; i < q.size(); ++i) {
        const std::uint32_t serial = serial_by_index_[i];
        bound_by_serial_[serial] = kInf;
        heap_.push_back(Entry{kInf, q[i].enqueue_time, q[i].message->id(),
                              serial, generation_[serial]});
      }
      std::make_heap(heap_.begin(), heap_.end(), entry_less);
    }
  }

  std::size_t pick(Rows q, const SchedulingContext& context) override {
    on_tick(q, context);
    last_now_ = context.now;
    // A lone row wins unscored; its live entry keeps a valid upper bound.
    if (q.size() == 1) return 0;
    ++epoch_;
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t best = kNone;
    double best_score = -kInf;
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      const bool live = generation_[top.serial] == top.generation &&
                        top.bound == bound_by_serial_[top.serial];
      if (!live) {
        pop_entry();  // Superseded or removed row; discard.
        continue;
      }
      const auto index =
          static_cast<std::size_t>(index_by_serial_[top.serial]);
      if (visited_epoch_[top.serial] == epoch_) {
        // Already rescored this pick (and did not win); keep the entry for
        // future picks but get it out of this walk.
        revisit_.push_back(top);
        pop_entry();
        continue;
      }
      if (best != kNone) {
        if (top.bound < best_score) break;
        if (top.bound == best_score &&
            !tie_break_before(q[index], q[best])) {
          break;  // Every deeper equal-bound entry loses the tie too.
        }
      }
      pop_entry();
      visited_epoch_[top.serial] = epoch_;
      const double score = rescore(q, index, context);
      if (best == kNone || score > best_score ||
          (score == best_score && tie_break_before(q[index], q[best]))) {
        best_score = score;
        best = index;
      }
    }
    for (const Entry& entry : revisit_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), entry_less);
    }
    revisit_.clear();
    return best;
  }

  void check_invariants(Rows q,
                        const SchedulingContext& context) const override {
    if (serial_by_index_.size() != q.size()) {
      invariant_failed("BoundedArgmaxState",
                       "the serials do not mirror the queue");
    }
    const bool forward = !(context.now < last_now_);
    std::vector<std::uint8_t> has_entry(bound_by_serial_.size(), 0);
    for (const Entry& entry : heap_) {
      if (generation_[entry.serial] == entry.generation &&
          entry.bound == bound_by_serial_[entry.serial]) {
        has_entry[entry.serial] = 1;
      }
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
      const std::uint32_t serial = serial_by_index_[i];
      if (index_by_serial_[serial] != static_cast<std::int64_t>(i)) {
        invariant_failed("BoundedArgmaxState",
                         "row " + std::to_string(i) + "'s serial is stale");
      }
      if (has_entry[serial] == 0) {
        invariant_failed("BoundedArgmaxState",
                         "row " + std::to_string(i) + " has no live entry");
      }
      if (forward && bound_by_serial_[serial] < score(q[i], context)) {
        invariant_failed("BoundedArgmaxState",
                         "row " + std::to_string(i) +
                             "'s bound is below its score");
      }
    }
  }

 private:
  struct Entry {
    double bound = kInf;
    TimeMs enqueue_time = 0.0;
    MessageId id = 0;
    std::uint32_t serial = 0;
    std::uint32_t generation = 0;
  };

  /// Max-heap "less": smaller bound is worse; among equal bounds the
  /// tie-break winner (older enqueue, then smaller id) ranks higher.
  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.enqueue_time != b.enqueue_time) {
      return a.enqueue_time > b.enqueue_time;
    }
    return a.id > b.id;
  }

  void push_entry(std::uint32_t serial, double bound,
                  const QueuedMessage& queued) {
    heap_.push_back(Entry{bound, queued.enqueue_time, queued.message->id(),
                          serial, generation_[serial]});
    std::push_heap(heap_.begin(), heap_.end(), entry_less);
  }

  void pop_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), entry_less);
    heap_.pop_back();
  }

  /// Exact score of row `index` now; refreshes its decay bound (EB for the
  /// EB-dominated scores, the score itself otherwise) and pushes the
  /// refreshed heap entry.
  double rescore(Rows q, std::size_t index, const SchedulingContext& context) {
    const QueuedMessage& queued = q[index];
    const double exact = score(queued, context);
    const std::uint32_t serial = serial_by_index_[index];
    bound_by_serial_[serial] = exact;
    push_entry(serial, exact, queued);
    return exact;
  }

  double score(const QueuedMessage& queued,
               const SchedulingContext& context) const {
    switch (kind_) {
      case StrategyKind::kEb:
        return kernel_expected_benefit(queued, context);
      case StrategyKind::kLowerBound:
        return kernel_lower_bound_benefit(queued, context);
      default:
        break;
    }
    throw std::logic_error("BoundedArgmaxState: unexpected strategy kind");
  }

  StrategyKind kind_;
  TimeMs last_now_ = -kInf;
  // Serial-keyed row state (stable across take_at's index renames).
  std::vector<double> bound_by_serial_;
  std::vector<std::uint32_t> generation_;
  std::vector<std::int64_t> index_by_serial_;  // -1 = dead.
  std::vector<std::uint64_t> visited_epoch_;
  std::vector<std::uint32_t> free_serials_;
  std::vector<std::uint32_t> serial_by_index_;  // Mirrors the queue.
  std::vector<Entry> heap_;
  std::vector<Entry> revisit_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

Strategy::Strategy(StrategyKind kind, double ebpc_weight)
    : kind_(kind), ebpc_weight_(ebpc_weight) {
  if (kind == StrategyKind::kEbpc &&
      (ebpc_weight < 0.0 || ebpc_weight > 1.0)) {
    throw std::invalid_argument("EBPC weight r must be in [0, 1]");
  }
}

std::string Strategy::name() const {
  if (kind_ == StrategyKind::kEbpc) {
    return "EBPC(r=" + std::to_string(ebpc_weight_) + ")";
  }
  return strategy_name(kind_);
}

std::unique_ptr<SchedulerState> Strategy::make_state() const {
  switch (kind_) {
    case StrategyKind::kFifo:
    case StrategyKind::kRemainingLifetime:
      return std::make_unique<HeapState>(kind_);
    case StrategyKind::kEb:
    case StrategyKind::kLowerBound:
      return std::make_unique<BoundedArgmaxState>(kind_);
    case StrategyKind::kPc:
    case StrategyKind::kEbpc:
      return std::make_unique<BoundedScanState>(kind_, ebpc_weight_);
  }
  throw std::invalid_argument("unknown strategy kind");
}

std::size_t Strategy::reference_pick(std::span<const QueuedMessage> queue,
                                     const SchedulingContext& context) const {
  switch (kind_) {
    case StrategyKind::kFifo:
      return pick_max(queue, [](const QueuedMessage& q) {
        return -q.enqueue_time;
      });
    case StrategyKind::kRemainingLifetime:
      return pick_max(queue, [&](const QueuedMessage& q) {
        return rl_score(q, context.now);
      });
    case StrategyKind::kEb:
      return pick_max(queue, [&](const QueuedMessage& q) {
        return kernel_expected_benefit(q, context);
      });
    case StrategyKind::kPc:
      return pick_max(queue, [&](const QueuedMessage& q) {
        return postponing_cost(q, context);
      });
    case StrategyKind::kEbpc:
      return pick_max(queue, [&](const QueuedMessage& q) {
        return ebpc_metric(q, context, ebpc_weight_);
      });
    case StrategyKind::kLowerBound:
      return pick_max(queue, [&](const QueuedMessage& q) {
        return kernel_lower_bound_benefit(q, context);
      });
  }
  throw std::invalid_argument("unknown strategy kind");
}

StrategyKind parse_strategy(const std::string& name) {
  if (name == "FIFO" || name == "fifo") return StrategyKind::kFifo;
  if (name == "RL" || name == "rl") return StrategyKind::kRemainingLifetime;
  if (name == "EB" || name == "eb") return StrategyKind::kEb;
  if (name == "PC" || name == "pc") return StrategyKind::kPc;
  if (name == "EBPC" || name == "ebpc") return StrategyKind::kEbpc;
  if (name == "LB" || name == "lb") return StrategyKind::kLowerBound;
  throw std::invalid_argument("unknown strategy: " + name);
}

std::string strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFifo:
      return "FIFO";
    case StrategyKind::kRemainingLifetime:
      return "RL";
    case StrategyKind::kEb:
      return "EB";
    case StrategyKind::kPc:
      return "PC";
    case StrategyKind::kEbpc:
      return "EBPC";
    case StrategyKind::kLowerBound:
      return "LB";
  }
  return "?";
}

std::unique_ptr<const Strategy> make_strategy(StrategyKind kind,
                                              double ebpc_weight) {
  return std::make_unique<const Strategy>(kind, ebpc_weight);
}

}  // namespace bdps
