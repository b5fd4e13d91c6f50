// Fixture: a kernel file including a scenario header must trip R5
// (the layer map: linalg sits below scenarios, so it may not include it).
#include "scenarios/scenario.h"

double kernel_step(double a, double b) {
    return a * b;
}
