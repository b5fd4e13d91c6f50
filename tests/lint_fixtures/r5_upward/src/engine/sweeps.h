// Fixture: an engine header that includes a detector header must trip
// R5 (the engine is the bottom layer; a sweep front-end that reaches up
// into subspace/ closes an engine <-> subspace include cycle).
#pragma once

#include "subspace/detector.h"
