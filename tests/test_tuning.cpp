#include "engine/tuning.h"

#include <gtest/gtest.h>

namespace netdiag {
namespace {

// ---------------------------------------------------------------------------
// scoped_tuning: the RAII seam every test and bench sweep relies on.
// ---------------------------------------------------------------------------

TEST(ScopedTuning, RestoresEveryKnobOnExit) {
    const tuning before = global_tuning();
    {
        const scoped_tuning guard;
        global_tuning().link_block = 7;
        global_tuning().svd_row_block = 99;
        global_tuning().parallel_min_hardware = 1;
        global_tuning().covariance_max_blocks = 3;
    }
    EXPECT_EQ(global_tuning(), before);
}

TEST(ScopedTuning, NestedGuardsUnwindInOrder) {
    const tuning before = global_tuning();
    {
        const scoped_tuning outer;
        global_tuning().link_block = 11;
        {
            const scoped_tuning inner;
            global_tuning().link_block = 13;
        }
        EXPECT_EQ(global_tuning().link_block, 11u);
    }
    EXPECT_EQ(global_tuning(), before);
}

TEST(Tuning, HardwareFloorGatesThePool) {
    const scoped_tuning guard;
    global_tuning().parallel_min_hardware = 1;
    EXPECT_TRUE(parallel_hardware_ok());  // every host has >= 1 hardware thread
    global_tuning().parallel_min_hardware = 1u << 20;
    EXPECT_FALSE(parallel_hardware_ok());  // no host has a million
}

}  // namespace
}  // namespace netdiag
