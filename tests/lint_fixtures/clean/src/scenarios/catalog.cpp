// Fixture: a directory includes its own headers freely -- R5 only
// forbids includes from its own layer's other directories and from
// layers above.
#include "scenarios/catalog.h"

namespace netdiag {
int scenario_count() {
    return 8;
}
}  // namespace netdiag
