#include "engine/tuning.h"

#include "engine/thread_pool.h"

namespace netdiag {

tuning& global_tuning() noexcept {
    static tuning instance;
    return instance;
}

bool parallel_hardware_ok() noexcept {
    return thread_pool::hardware_threads() >= global_tuning().parallel_min_hardware;
}

}  // namespace netdiag
