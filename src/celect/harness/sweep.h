// Thread-pool sweep engine for bench grids.
//
// Every simulator run is a self-contained deterministic Runtime: the
// seeded Rng, the event queue, and all protocol state live inside one
// Runtime object, and nothing in a run reads shared mutable state. Runs
// are therefore embarrassingly parallel — fanning a grid of RunOptions
// out over worker threads produces, run for run, the same RunResult
// bits as executing the grid serially. The engine writes each result
// into its grid-index slot, so any reduction that folds the results in
// index order (e.g. Summary::Merge over a suite's rows) is bit-identical
// regardless of --threads.
//
// Wall-clock fields (RunResult::wall_ns, events_per_sec) are the one
// exception: they measure the host, not the simulation, and differ
// between runs by nature.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/sim/runtime.h"

namespace celect::harness {

struct SweepOptions {
  // Worker threads; 0 means one per hardware thread, 1 runs inline.
  std::uint32_t threads = 1;
};

// One cell of a sweep grid: a protocol (label + factory) on a network.
struct SweepPoint {
  std::string protocol;  // label carried into tables / JSON rows
  sim::ProcessFactory factory;
  RunOptions options;
};

// Invokes body(0..count-1), each index at most once, across the worker
// pool. The body must not touch shared mutable state (each index owns
// its output slot). Blocks until the pool drains. If a body throws,
// remaining indices are abandoned, the pool is joined, and the first
// exception (by capture order) is rethrown on the calling thread —
// same observable contract as the serial path, minus which indices
// ran.
void ParallelFor(std::size_t count, std::uint32_t threads,
                 const std::function<void(std::size_t)>& body);

// Called from a ParallelFor body: true once a body of the same loop has
// thrown, after which the pool claims no further index. A long cell may
// poll it to give up early. Always false on the inline one-thread path
// (a throw there ends the loop at once) and outside ParallelFor.
bool ParallelForFailed();

// Runs every grid point via RunElection and returns the results in
// grid order. results[i] is bit-identical to a serial run of grid[i]
// for any thread count (modulo the wall-clock fields).
std::vector<sim::RunResult> RunSweep(const std::vector<SweepPoint>& grid,
                                     const SweepOptions& options = {});

// The thread count ParallelFor will actually use for `count` items.
std::uint32_t ResolveThreads(std::uint32_t requested, std::size_t count);

}  // namespace celect::harness
