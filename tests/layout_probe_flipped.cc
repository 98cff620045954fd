// Built with NDEBUG flipped relative to the rest of layout_test (see
// tests/CMakeLists.txt): in an optimized build this unit sees the debug
// side of every NDEBUG-dependent declaration, in a debug build the
// release side.
#include "testing/layout_probe.h"

namespace blazeit {
namespace testutil {

LayoutProbe ProbeFlippedNdebugTranslationUnit() {
  return ProbeThisTranslationUnit();
}

}  // namespace testutil
}  // namespace blazeit
