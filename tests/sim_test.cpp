#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace bass::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(seconds(3), [&] { fired.push_back(3); });
  sim.schedule_at(seconds(1), [&] { fired.push_back(1); });
  sim.schedule_at(seconds(2), [&] { fired.push_back(2); });
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(EventQueue, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(seconds(1), [&fired, i] { fired.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdFails) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  Time fired_at = -1;
  sim.schedule_at(seconds(5), [&] {
    sim.schedule_after(seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, seconds(7));
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  Time fired_at = -1;
  sim.schedule_at(seconds(1), [&] {
    sim.schedule_after(-seconds(10), [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, seconds(1));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(seconds(1), [&] { ++count; });
  sim.schedule_at(seconds(5), [&] { ++count; });
  sim.run_until(seconds(3));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), seconds(3));
  sim.run_until(seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(Simulation, EventAtDeadlineRuns) {
  Simulation sim;
  bool fired = false;
  sim.schedule_at(seconds(3), [&] { fired = true; });
  sim.run_until(seconds(3));
  EXPECT_TRUE(fired);
}

TEST(Simulation, PeriodicRepeats) {
  Simulation sim;
  int ticks = 0;
  const EventId handle = sim.schedule_periodic(seconds(10), [&] { ++ticks; });
  sim.run_until(seconds(35));
  EXPECT_EQ(ticks, 3);  // t=10,20,30
  EXPECT_TRUE(sim.cancel(handle));
  sim.run_until(seconds(100));
  EXPECT_EQ(ticks, 3);
}

TEST(Simulation, PeriodicCancelFromInsideCallback) {
  Simulation sim;
  int ticks = 0;
  EventId handle = 0;
  handle = sim.schedule_periodic(seconds(1), [&] {
    if (++ticks == 2) {
      EXPECT_TRUE(sim.cancel(handle));
    }
  });
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(Simulation, CancelPeriodicTwiceFails) {
  Simulation sim;
  const EventId handle = sim.schedule_periodic(seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
}

// Periodic and one-shot events share one id space: cancelling a periodic
// id touches nothing else, even the one-shot pushed just before it.
TEST(Simulation, CancelStopsPeriodicAndSparesEarlierOneShot) {
  Simulation sim;
  bool one_shot_fired = false;
  int ticks = 0;
  sim.schedule_at(seconds(5), [&] { one_shot_fired = true; });
  const EventId periodic = sim.schedule_periodic(seconds(1), [&] { ++ticks; });
  sim.run_until(seconds(2));
  EXPECT_TRUE(sim.cancel(periodic));
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(one_shot_fired);
}

TEST(EventQueue, StaleIdCannotCancelSlotsNextOccupant) {
  Simulation sim;
  const EventId cancelled = sim.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(cancelled));
  bool fired = false;
  const EventId reused = sim.schedule_at(seconds(2), [&] { fired = true; });
  // Same slot, new generation.
  EXPECT_EQ(static_cast<std::uint32_t>(reused), static_cast<std::uint32_t>(cancelled));
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  sim.run_until(seconds(2));
  EXPECT_TRUE(fired);

  // A fired id is just as stale once its slot is reused.
  bool later_fired = false;
  const EventId later = sim.schedule_at(seconds(3), [&] { later_fired = true; });
  EXPECT_EQ(static_cast<std::uint32_t>(later), static_cast<std::uint32_t>(reused));
  EXPECT_FALSE(sim.cancel(reused));
  sim.run_all();
  EXPECT_TRUE(later_fired);
}

TEST(Simulation, PeriodicCancelledInCallbackStaysDeadWhenSlotIsReused) {
  Simulation sim;
  int ticks = 0;
  int follow_ups = 0;
  EventId handle = kInvalidEvent;
  EventId follow_up = kInvalidEvent;
  handle = sim.schedule_periodic(seconds(1), [&] {
    ++ticks;
    EXPECT_TRUE(sim.cancel(handle));
    follow_up = sim.schedule_after(seconds(1), [&] { ++follow_ups; });
  });
  sim.run_until(seconds(10));
  EXPECT_EQ(static_cast<std::uint32_t>(follow_up), static_cast<std::uint32_t>(handle));
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(follow_ups, 1);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

// A periodic re-arms after its callback returns, so an event the callback
// schedules for the next tick's exact time was pushed first and fires first.
TEST(Simulation, EventScheduledForNextTickFiresBeforeIt) {
  Simulation sim;
  std::vector<std::string> order;
  sim.schedule_periodic(seconds(1), [&] {
    order.push_back("tick");
    if (order.size() == 1) {
      sim.schedule_at(sim.now() + seconds(1), [&] { order.push_back("event"); });
    }
  });
  sim.run_until(seconds(2));
  EXPECT_EQ(order, (std::vector<std::string>{"tick", "event", "tick"}));
}

TEST(Simulation, ArmedPeriodicCountsOnceAsPending) {
  Simulation sim;
  const EventId handle = sim.schedule_periodic(seconds(1), [] {});
  sim.schedule_at(seconds(30), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(seconds(10));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.has_event_before(seconds(11)));
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_backlog(), 1u);
  EXPECT_FALSE(sim.has_event_before(seconds(29)));
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(seconds(1), recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), seconds(4));
}

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(millis(3), 3'000);
  EXPECT_EQ(minutes(1), 60'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(millis(7)), 7.0);
  EXPECT_EQ(seconds_f(0.5), 500'000);
}

}  // namespace
}  // namespace bass::sim

namespace bass::sim {
namespace {

// Property: the queue drains N randomized events in nondecreasing time
// order regardless of insertion order, with cancellations interleaved.
class EventQueueProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueProperty, FiresInOrderUnderChurn) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  Simulation sim;
  std::vector<Time> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const Time at = static_cast<Time>(rng() % 1'000'000);
    ids.push_back(sim.schedule_at(at, [&fired, &sim] { fired.push_back(sim.now()); }));
  }
  // Cancel a random third.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (sim.cancel(ids[i])) ++cancelled;
  }
  sim.run_all();
  EXPECT_EQ(static_cast<int>(fired.size()), 500 - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty, ::testing::Range(1, 9));

// Oracle for the event engine's order: random pushes, cancels and periodics
// run against Simulation and against a reference queue that keeps its
// pending events in push order and stable-sorts them by time before every
// firing. What a firing event does (push more events, cancel one, cancel
// itself, look ahead with has_event_before) is a function of the seed, its
// label and how often it has fired, so the two run the same script exactly
// as long as they fire in the same order; the fired (time, label)
// sequences, the cancel results, the look-aheads and the pending counts
// must all be equal.
struct OrderScript {
  static constexpr int kMaxLabels = 1'500;
  std::uint64_t seed = 0;
  std::vector<int> fires;           // per label
  std::vector<Duration> periods;    // per label; 0 for a one-shot
  std::vector<int> stop_after;      // a periodic cancels itself at this firing
  std::vector<std::pair<Time, int>> fired;
  std::vector<bool> cancel_results;
  std::vector<std::pair<bool, std::size_t>> peeks;  // (event due soon, pending)

  // Draws the next event: a one-shot at `now + delay` (equal timestamps are
  // common) or, one in five, a periodic.
  template <class Queue>
  void push(Queue& q, std::mt19937_64& rng) {
    const int label = static_cast<int>(fires.size());
    const bool periodic = rng() % 5 == 0;
    fires.push_back(0);
    periods.push_back(periodic ? static_cast<Duration>(1 + rng() % 4) : 0);
    stop_after.push_back(static_cast<int>(1 + rng() % 4));
    const Duration delay = periodic ? periods.back() : static_cast<Duration>(rng() % 4);
    q.push(label, delay, periods.back());
  }

  template <class Queue>
  void fire(Queue& q, int label) {
    fired.emplace_back(q.now(), label);
    const int nth = fires[static_cast<std::size_t>(label)]++;
    std::mt19937_64 rng(seed * 1'000'003 + static_cast<std::uint64_t>(label) * 1'009 +
                        static_cast<std::uint64_t>(nth));
    const auto pushes = rng() % 3;
    const auto peek = rng() % 4;  // 0: before the pushes, 1: after them
    const Time horizon = q.now() + static_cast<Time>(rng() % 2);
    if (peek == 0) peeks.emplace_back(q.has_event_before(horizon), q.pending());
    for (std::uint64_t i = 0; i < pushes && fires.size() < kMaxLabels; ++i) push(q, rng);
    if (peek == 1) peeks.emplace_back(q.has_event_before(horizon), q.pending());
    if (periods[static_cast<std::size_t>(label)] > 0) {
      // A periodic cancels itself from inside its own callback.
      if (nth + 1 == stop_after[static_cast<std::size_t>(label)]) {
        cancel_results.push_back(q.cancel(label));
      }
    } else if (rng() % 4 == 0) {
      cancel_results.push_back(q.cancel(label));  // already fired: rejected
    }
    if (rng() % 3 == 0) {
      cancel_results.push_back(q.cancel(static_cast<int>(rng() % fires.size())));
    }
  }
};

struct RealOrderQueue {
  Simulation sim;
  OrderScript* script = nullptr;
  std::vector<EventId> ids;  // by label

  Time now() const { return sim.now(); }
  void push(int label, Duration delay, Duration period) {
    auto fn = [this, label] { script->fire(*this, label); };
    ids.push_back(period > 0 ? sim.schedule_periodic(period, fn)
                             : sim.schedule_after(delay, fn));
  }
  bool cancel(int label) { return sim.cancel(ids[static_cast<std::size_t>(label)]); }
  bool has_event_before(Time deadline) { return sim.has_event_before(deadline); }
  void run_until(Time deadline) { sim.run_until(deadline); }
  std::size_t pending() const { return sim.pending_events(); }
};

struct ReferenceOrderQueue {
  enum class State { kPending, kFiring, kDone };
  struct Entry {
    Time at;
    int label;
  };
  OrderScript* script = nullptr;
  Time clock = 0;
  std::vector<Entry> queue;   // in push (and re-arm) order
  std::vector<State> states;     // by label

  Time now() const { return clock; }
  void push(int label, Duration delay, Duration /*period*/) {
    states.push_back(State::kPending);
    queue.push_back({clock + delay, label});
  }
  bool cancel(int label) {
    State& state = states[static_cast<std::size_t>(label)];
    if (state == State::kDone) return false;
    if (state == State::kPending) {
      std::erase_if(queue, [label](const Entry& e) { return e.label == label; });
    }
    state = State::kDone;
    return true;
  }
  bool has_event_before(Time deadline) const {
    return std::any_of(queue.begin(), queue.end(),
                       [deadline](const Entry& e) { return e.at <= deadline; });
  }
  void run_until(Time deadline) {
    for (;;) {
      std::stable_sort(queue.begin(), queue.end(),
                       [](const Entry& a, const Entry& b) { return a.at < b.at; });
      if (queue.empty() || queue.front().at > deadline) break;
      const Entry next = queue.front();
      queue.erase(queue.begin());
      clock = next.at;
      const auto li = static_cast<std::size_t>(next.label);
      const Duration period = script->periods[li];
      states[li] = period > 0 ? State::kFiring : State::kDone;
      script->fire(*this, next.label);
      if (states[li] == State::kFiring) {
        states[li] = State::kPending;
        queue.push_back({next.at + period, next.label});
      }
    }
    clock = std::max(clock, deadline);
  }
  std::size_t pending() const { return queue.size(); }
};

class EventOrderOracle : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderOracle, FiresAsAStableSortByTime) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  OrderScript real_script, ref_script;
  real_script.seed = ref_script.seed = seed;
  RealOrderQueue real;
  ReferenceOrderQueue ref;
  real.script = &real_script;
  ref.script = &ref_script;

  // The same outside pushes and cancels go to both, between run windows.
  std::mt19937_64 real_rng(seed), ref_rng(seed);
  for (int i = 0; i < 40; ++i) {
    real_script.push(real, real_rng);
    ref_script.push(ref, ref_rng);
  }
  std::mt19937_64 steps(seed * 31);
  Time deadline = 0;
  while (real.pending() > 0 || ref.pending() > 0) {
    if (steps() % 4 == 0 && real_script.fires.size() < OrderScript::kMaxLabels) {
      real_script.push(real, real_rng);
      ref_script.push(ref, ref_rng);
    }
    if (steps() % 5 == 0) {
      const int label = static_cast<int>(steps() % real_script.fires.size());
      real_script.cancel_results.push_back(real.cancel(label));
      ref_script.cancel_results.push_back(ref.cancel(label));
    }
    deadline += static_cast<Time>(steps() % 6);
    real.run_until(deadline);
    ref.run_until(deadline);
    ASSERT_EQ(real.now(), ref.now());
    ASSERT_EQ(real.pending(), ref.pending()) << "at t=" << deadline;
    ASSERT_EQ(real_script.fired, ref_script.fired) << "at t=" << deadline;
  }
  EXPECT_EQ(real_script.cancel_results, ref_script.cancel_results);
  EXPECT_EQ(real_script.peeks, ref_script.peeks);
  // The script exercised what it is meant to: many events, ties, cancels.
  EXPECT_GT(real_script.fired.size(), 1'000u);
  EXPECT_GT(real_script.cancel_results.size(), 100u);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < real_script.fired.size(); ++i) {
    if (real_script.fired[i].first == real_script.fired[i - 1].first) ++ties;
  }
  EXPECT_GT(ties, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderOracle, ::testing::Range(1, 9));

TEST(Simulation, PendingEventsCountsLiveOnly) {
  Simulation sim;
  const EventId a = sim.schedule_at(seconds(1), [] {});
  sim.schedule_at(seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_TRUE(sim.idle());
}

TEST(EventQueue, CancelAfterFireIsRejectedAndLeavesNoTombstone) {
  Simulation sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  sim.run_all();
  // The event already fired: cancelling it must fail, must not disturb the
  // live count, and must not leave an uncollectable tombstone behind.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
  sim.schedule_at(seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_TRUE(sim.idle());
}

// A one-shot's entry stays at the heap root while its callback runs, until
// the callback's first push takes its place; it is no cancelled entry.
TEST(EventQueue, RunningOneShotIsNoCancelledEntry) {
  Simulation sim;
  std::vector<std::size_t> backlog;
  sim.schedule_at(seconds(1), [&] {
    backlog.push_back(sim.cancelled_backlog());
    sim.schedule_after(seconds(1), [] {});
    backlog.push_back(sim.cancelled_backlog());
  });
  sim.schedule_at(seconds(1), [&] { backlog.push_back(sim.cancelled_backlog()); });
  sim.run_all();
  EXPECT_EQ(backlog, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
}

// Regression for the unbounded-tombstone leak: one million cancel-heavy
// events, including a large fraction of bogus cancels aimed at ids that have
// already fired. The cancelled set must stay bounded by the pending-event
// window, not grow with the total number of cancels issued.
TEST(EventQueue, TombstoneBacklogStaysBoundedOverCancelHeavyChurn) {
  Simulation sim;
  std::mt19937_64 rng(7);
  constexpr int kEvents = 1'000'000;
  constexpr std::size_t kWindow = 64;  // max events in flight at once
  std::vector<EventId> window;
  std::size_t peak_backlog = 0;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Time at = sim.now() + 1 + static_cast<Time>(rng() % 16);
    window.push_back(sim.schedule_at(at, [&fired] { ++fired; }));
    if (window.size() >= kWindow) {
      // Cancel half the window; the other half is left to fire below, after
      // which cancelling those ids again must be a no-op.
      for (std::size_t j = 0; j < window.size(); j += 2) sim.cancel(window[j]);
      sim.run_until(sim.now() + 32);
      for (const EventId id : window) sim.cancel(id);  // mostly stale ids
      window.clear();
    }
    peak_backlog = std::max(peak_backlog, sim.cancelled_backlog());
  }
  sim.run_all();
  EXPECT_GT(fired, 0);
  // Bounded by the in-flight window, never by the 1M total events or the
  // ~1.5M cancel attempts. (A handful of trailing tombstones may outlive
  // run_all when the final heap entries are all cancelled — still bounded.)
  EXPECT_LE(peak_backlog, kWindow);
  EXPECT_LE(sim.cancelled_backlog(), kWindow);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, PeriodicFirstFiringIsOnePeriodOut) {
  Simulation sim;
  Time first = -1;
  sim.schedule_periodic(seconds(7), [&] {
    if (first < 0) first = sim.now();
  });
  sim.run_until(minutes(1));
  EXPECT_EQ(first, seconds(7));
}

}  // namespace
}  // namespace bass::sim
