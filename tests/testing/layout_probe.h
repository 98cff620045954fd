#ifndef BLAZEIT_TESTS_TESTING_LAYOUT_PROBE_H_
#define BLAZEIT_TESTS_TESTING_LAYOUT_PROBE_H_

#include <cstddef>
#include <ostream>

#include "sim/cost_model.h"
#include "util/mutex.h"

namespace blazeit {
namespace testutil {

/// sizeof and alignof of one class as one translation unit sees it.
struct TypeLayout {
  size_t size;
  size_t align;
  bool operator==(const TypeLayout&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const TypeLayout& t) {
    return os << "sizeof " << t.size << ", alignof " << t.align;
  }
};

/// The layouts of the classes whose members once depended on NDEBUG, and
/// the flags the measuring translation unit was compiled with.
struct LayoutProbe {
  bool ndebug;
  bool mutex_debug;
  TypeLayout mutex;
  TypeLayout shared_mutex;
  TypeLayout cost_meter;
};

namespace {

// Internal linkage on purpose: every translation unit that includes this
// header gets its own copy, evaluated under that unit's own flags.
LayoutProbe ProbeThisTranslationUnit() {
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  return {kNdebug,
          BLAZEIT_MUTEX_DEBUG != 0,
          {sizeof(util::Mutex), alignof(util::Mutex)},
          {sizeof(util::SharedMutex), alignof(util::SharedMutex)},
          {sizeof(CostMeter), alignof(CostMeter)}};
}

}  // namespace

/// The same probe from tests/layout_probe_flipped.cc, which is compiled
/// with NDEBUG flipped relative to the rest of the build.
LayoutProbe ProbeFlippedNdebugTranslationUnit();

}  // namespace testutil
}  // namespace blazeit

#endif  // BLAZEIT_TESTS_TESTING_LAYOUT_PROBE_H_
