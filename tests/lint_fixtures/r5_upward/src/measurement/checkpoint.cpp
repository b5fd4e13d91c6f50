// Fixture: a measurement file that includes a subspace header must trip
// R5 (a checkpoint codec that dispatches to the detectors' restore()
// closes a measurement <-> subspace include cycle).
#include "subspace/online.h"
