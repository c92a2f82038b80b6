// Per-worker detection workspaces — the reusable-state arena behind the
// detection-path hot path.
//
// A `workspace` owns everything a detection path may want to reuse across
// channel uses: the detector scratch (QUBO reduction buffers, factorisation
// and tree-search buffers — detect/scratch.h) and the classical-solver
// scratch (Metropolis engine, bit/field buffers — classical/solver.h).
// Once warm, the built-in paths run a use without touching the heap.  The
// built-in paths require one: they throw std::invalid_argument when
// path_context::ws is null.
//
// Ownership model: a workspace is a plain value, never shared concurrently.
// The link simulator keeps one per pool slot (util::thread_pool::
// for_each_slot hands a slot to one thread at a time); the serving front end
// keeps one per batch.  No lock is involved.
//
// Determinism: workspaces NEVER change detection outputs.  Buffers are
// resized in place and their values fully rewritten per use, so which
// worker's workspace serves a use is invisible in the statistics — which
// stay bit-identical at any thread count and stream block
// (tests/workspace_test.cpp).
#ifndef HCQ_PATHS_WORKSPACE_H
#define HCQ_PATHS_WORKSPACE_H

#include "classical/solver.h"
#include "detect/scratch.h"

namespace hcq::paths {

/// Per-worker reusable state for the detection hot path.
struct workspace {
    detect::detect_scratch detect;  ///< detector scratch + QuAMax reduction buffers
    solvers::solve_scratch solve;   ///< classical-solver / hybrid scratch
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_WORKSPACE_H
