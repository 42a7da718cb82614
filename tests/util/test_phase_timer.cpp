// Hierarchical phase timer: tree registration, call counting, parent
// inclusion of children, the parent-open rule, op-count attribution, and
// reset.
#include <gtest/gtest.h>

#include <stdexcept>

#include "util/counters.hpp"
#include "util/phase_timer.hpp"

namespace {

using pcf::phase_timer;

TEST(PhaseTimer, TreeDepthsFollowRegistration) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("nonlinear", root);
  const auto grand = t.add("products", child);
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(root)].depth, 0);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].depth, 1);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].depth, 2);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].parent, child);
}

TEST(PhaseTimer, ParentsIncludeChildrenAndCallsCount) {
  phase_timer t(false);
  const auto root = t.add("outer");
  const auto child = t.add("inner", root);
  for (int i = 0; i < 3; ++i) {
    phase_timer::section outer(t, root);
    phase_timer::section inner(t, child);
  }
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(root)].calls, 3);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].calls, 3);
  // The child ran entirely inside the parent's section.
  EXPECT_GE(p[static_cast<std::size_t>(root)].seconds,
            p[static_cast<std::size_t>(child)].seconds);
}

// A thrown stage must not leave the enclosing phases open: the RAII
// sections stop their phases during unwinding, so the step after a
// recovery starts from a balanced timer instead of folding the unwound
// frames into a still-running parent.
TEST(PhaseTimer, SectionsUnwindBalancedOnException) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("stage", root);
  EXPECT_THROW(
      {
        phase_timer::section step_sec(t, root);
        phase_timer::section stage_sec(t, child);
        throw std::runtime_error("blow-up mid-stage");
      },
      std::runtime_error);
  EXPECT_EQ(t.open_phases(), 0);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 1);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(child)].calls, 1);
  // The post-recovery step times normally on the balanced timer.
  {
    phase_timer::section step_sec(t, root);
    phase_timer::section stage_sec(t, child);
  }
  EXPECT_EQ(t.open_phases(), 0);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 2);
  t.reset();  // balanced: the debug assert in reset() must not fire
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 0);
}

// A child is charged only inside its parent's interval: a section
// started while the parent is closed records nothing, leaves the timer
// balanced, and its grandchildren are not charged either.
TEST(PhaseTimer, ChildStartedOutsideItsParentIsNotCharged) {
  phase_timer t(true);
  const auto root = t.add("step");
  const auto child = t.add("to_physical", root);
  const auto grand = t.add("fft_z", child);
  {
    phase_timer::section outside(t, child);
    EXPECT_EQ(t.open_phases(), 0);
    phase_timer::section inner(t, grand);
    pcf::counters::add_flops(7);
  }
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(child)].calls, 0);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].seconds, 0.0);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].ops.flops, 0u);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].calls, 0);
  EXPECT_EQ(t.open_phases(), 0);
  // Inside the parent the same sections are charged as usual.
  {
    phase_timer::section step_sec(t, root);
    phase_timer::section child_sec(t, child);
    phase_timer::section grand_sec(t, grand);
    EXPECT_EQ(t.open_phases(), 3);
  }
  EXPECT_EQ(p[static_cast<std::size_t>(root)].calls, 1);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].calls, 1);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].calls, 1);
  EXPECT_EQ(t.open_phases(), 0);
}

TEST(PhaseTimer, AttributesOpCountsWhenTracking) {
  phase_timer t(true);
  const auto ph = t.add("work");
  {
    phase_timer::section sec(t, ph);
    pcf::counters::add_flops(123);
    pcf::counters::add_read(40);
    pcf::counters::add_written(8);
  }
  const auto& s = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_EQ(s.ops.flops, 123u);
  EXPECT_EQ(s.ops.bytes_read, 40u);
  EXPECT_EQ(s.ops.bytes_written, 8u);

  t.reset();
  const auto& r = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_EQ(r.calls, 0);
  EXPECT_EQ(r.seconds, 0.0);
  EXPECT_EQ(r.ops.flops, 0u);
}

}  // namespace
