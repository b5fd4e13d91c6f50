// Fixture: the header src/linalg/kernel.cpp must not include --
// scenarios/ is the top layer of R5's layer map.
#pragma once

namespace netdiag {
struct scenario_label {};
}  // namespace netdiag
