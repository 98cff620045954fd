// Class layout must not depend on build flags. util::Mutex,
// util::SharedMutex and CostMeter once declared their owner-tracking
// fields only in debug and sanitizer builds, so a translation unit
// compiled with NDEBUG flipped read them at the wrong offsets (a SEGV in
// ~QueryOutput when perfbench_driver was built that way). This suite
// links one unit compiled with the opposite NDEBUG and compares what the
// two units see.
#include <gtest/gtest.h>

#include "testing/layout_probe.h"

namespace blazeit {
namespace testutil {
namespace {

TEST(LayoutTest, ProbeUnitReallyFlipsNdebug) {
  EXPECT_NE(ProbeThisTranslationUnit().ndebug,
            ProbeFlippedNdebugTranslationUnit().ndebug);
}

TEST(LayoutTest, LayoutsMatchAcrossNdebug) {
  const LayoutProbe here = ProbeThisTranslationUnit();
  const LayoutProbe flipped = ProbeFlippedNdebugTranslationUnit();
  SCOPED_TRACE(testing::Message()
               << "mutex debug here " << here.mutex_debug << ", flipped "
               << flipped.mutex_debug);
  EXPECT_EQ(here.mutex, flipped.mutex) << "util::Mutex";
  EXPECT_EQ(here.shared_mutex, flipped.shared_mutex) << "util::SharedMutex";
  EXPECT_EQ(here.cost_meter, flipped.cost_meter) << "CostMeter";
}

}  // namespace
}  // namespace testutil
}  // namespace blazeit
