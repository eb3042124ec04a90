// Lint fixture: layering — sim must never include the harness layer.
#include "celect/harness/experiment.h"
#include "celect/sim/types.h"

namespace celect::sim {}
