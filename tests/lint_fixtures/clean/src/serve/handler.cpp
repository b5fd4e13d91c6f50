// Fixture: every forbidden token below lives in a comment or a string
// literal, so the stripped-source scan must report nothing. Mentioning
// std::thread, std::async, rand(), or steady_clock in prose is fine --
// only reachable code counts.
#include <string>

std::string describe() {
    return "serving layer: no std::thread, no srand(), no system_clock";
}

// NOTE: we once considered std::this_thread::sleep_for here; wait on a
// sync::condition_variable instead.
