#include "cellsim/ppe.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace cbe::cell {
namespace {

Ppe::Config cfg() {
  Ppe::Config c;
  c.contexts = 2;
  c.clock_ghz = 1.0;  // 1 cycle == 1 ns for easy arithmetic
  c.smt_slowdown = 2.0;
  c.ctx_switch = sim::Time::us(1.0);
  c.resume_penalty = sim::Time::us(4.0);
  return c;
}

TEST(Ppe, GrantsFreeContextImmediately) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int p = ppe.add_process();
  bool granted = false;
  ppe.request(p, [&] { granted = true; });
  EXPECT_TRUE(granted);
  EXPECT_TRUE(ppe.holds_context(p));
  EXPECT_EQ(ppe.busy_contexts(), 1);
}

TEST(Ppe, FirstGrantHasNoSwitchCost) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int p = ppe.add_process();
  ppe.request(p, [] {});
  EXPECT_EQ(ppe.context_switches(), 0u);
}

TEST(Ppe, SameProcessReacquiresWithoutSwitch) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int p = ppe.add_process();
  ppe.request(p, [] {});
  ppe.yield(p);
  ppe.request(p, [] {});
  eng.run();
  EXPECT_EQ(ppe.context_switches(), 0u);
}

TEST(Ppe, CrossProcessGrantPaysSwitchPlusPenalty) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int a = ppe.add_process(0);  // pin both to context 0
  const int b = ppe.add_process(0);
  ppe.request(a, [] {});
  ppe.yield(a);
  sim::Time granted_at;
  ppe.request(b, [&] { granted_at = eng.now(); });
  eng.run();
  EXPECT_EQ(granted_at, sim::Time::us(5.0));  // 1us switch + 4us penalty
  EXPECT_EQ(ppe.context_switches(), 1u);
}

TEST(Ppe, TwoProcessesPreferDistinctContexts) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int a = ppe.add_process();
  const int b = ppe.add_process();
  ppe.request(a, [] {});
  ppe.request(b, [] {});
  EXPECT_EQ(ppe.busy_contexts(), 2);
  // After both yield and re-request, each should reclaim its own context
  // switch-free (the EDTLP 2-worker case stays clean).
  ppe.yield(a);
  ppe.yield(b);
  ppe.request(b, [] {});
  ppe.request(a, [] {});
  eng.run();
  EXPECT_EQ(ppe.context_switches(), 0u);
}

TEST(Ppe, QueueIsFifoAcrossWaiters) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  std::vector<int> order;
  const int a = ppe.add_process();
  const int b = ppe.add_process();
  const int c = ppe.add_process();
  const int d = ppe.add_process();
  ppe.request(a, [] {});
  ppe.request(b, [] {});
  ppe.request(c, [&] { order.push_back(2); });
  ppe.request(d, [&] { order.push_back(3); });
  ppe.yield(a);
  eng.run();
  ppe.yield(b);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Ppe, ComputeDurationAtBaseSpeed) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int p = ppe.add_process();
  ppe.request(p, [] {});
  sim::Time done_at;
  ppe.compute(p, 1000.0, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, sim::Time::ns(1000));
}

TEST(Ppe, SmtSlowdownWhenBothContextsBusy) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int a = ppe.add_process();
  const int b = ppe.add_process();
  ppe.request(a, [] {});
  ppe.request(b, [] {});
  sim::Time done_at;
  ppe.compute(a, 1000.0, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, sim::Time::ns(2000));  // slowdown 2.0
}

TEST(Ppe, QuantumExpiryNeedsWaiter) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int a = ppe.add_process(0);
  const int b = ppe.add_process(0);
  ppe.request(a, [] {});
  eng.schedule_at(sim::Time::ms(20.0), [] {});
  eng.run();
  // Held 20ms but nobody waits -> no expiry.
  EXPECT_FALSE(ppe.quantum_expired(a, sim::Time::ms(10.0)));
  ppe.request(b, [] {});
  EXPECT_TRUE(ppe.quantum_expired(a, sim::Time::ms(10.0)));
  EXPECT_FALSE(ppe.quantum_expired(a, sim::Time::ms(30.0)));
}

TEST(Ppe, PinnedProcessWaitsForItsContext) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int a = ppe.add_process(0);
  const int b = ppe.add_process(0);  // same pin although context 1 is free
  ppe.request(a, [] {});
  bool granted = false;
  ppe.request(b, [&] { granted = true; });
  eng.run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(ppe.busy_contexts(), 1);
  ppe.yield(a);
  eng.run();
  EXPECT_TRUE(granted);
}

TEST(Ppe, ErrorsOnProtocolMisuse) {
  sim::Engine eng;
  Ppe ppe(eng, cfg());
  const int p = ppe.add_process();
  EXPECT_THROW(ppe.yield(p), std::logic_error);
  EXPECT_THROW(ppe.compute(p, 10.0, [] {}), std::logic_error);
  ppe.request(p, [] {});
  EXPECT_THROW(ppe.request(p, [] {}), std::logic_error);
  EXPECT_THROW(Ppe(eng, cfg()).add_process(5), std::out_of_range);
}

}  // namespace
}  // namespace cbe::cell
