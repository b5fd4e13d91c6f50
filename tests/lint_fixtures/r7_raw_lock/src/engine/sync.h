// Fixture: engine/sync.h is where the annotated wrappers live, so its raw
// std::mutex must NOT be reported.
#pragma once

#include <mutex>

namespace sync {

class mutex {
public:
    void lock() { mu_.lock(); }
    void unlock() { mu_.unlock(); }

private:
    std::mutex mu_;
};

}  // namespace sync
