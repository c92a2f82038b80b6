// Per-worker detection workspaces — the reusable-state arena behind the
// detection-path hot path.
//
// A `workspace` owns everything a detection path may want to reuse across
// channel uses: the detector scratch (QUBO reduction buffers, factorisation
// and tree-search buffers — detect/scratch.h), the classical-solver
// scratch (Metropolis engine, bit/field buffers — classical/solver.h), and
// the soft-output buffers (the linear paths' equalisation, the other paths'
// flip recost).  Once warm, the built-in paths run a use without touching
// the heap, and so does their soft output.  The built-in paths require one:
// they throw std::invalid_argument when path_context::ws is null.
//
// Ownership model: a workspace is a plain value, never shared concurrently.
// The link simulator keeps one per pool slot (util::thread_pool::
// for_each_slot hands a slot to one thread at a time); the serving front end
// keeps one per batch.  Both hand it to link::use_kernel, whose reduce and
// detect steps run in it.  No lock is involved.
//
// Determinism: workspaces NEVER change detection outputs.  Buffers are
// resized in place and their values fully rewritten per use, so which
// worker's workspace serves a use is invisible in the statistics — which
// stay bit-identical at any thread count and stream block
// (tests/workspace_test.cpp).
#ifndef HCQ_PATHS_WORKSPACE_H
#define HCQ_PATHS_WORKSPACE_H

#include <vector>

#include "classical/solver.h"
#include "detect/scratch.h"
#include "linalg/decompose.h"
#include "linalg/matrix.h"
#include "wireless/soft.h"

namespace hcq::paths {

/// Buffers of the linear paths' post-equalisation soft output
/// (paths/registry.cpp).
struct linear_soft_scratch {
    linalg::cmat gram;                         ///< H^H H + load I
    linalg::inverse_scratch<linalg::cxd> inv;  ///< QR factors and column solves
    linalg::cmat gram_inv;                     ///< (H^H H + load I)^-1
    linalg::cvec hy;                           ///< H^H y
    linalg::cvec equalized;                    ///< per-stream equalised estimates
    std::vector<double> stream_nv;             ///< per-stream effective noise variance
};

/// Per-worker reusable state for the detection hot path.
struct workspace {
    detect::detect_scratch detect;    ///< detector scratch + QuAMax reduction buffers
    solvers::solve_scratch solve;     ///< classical-solver / hybrid scratch
    linear_soft_scratch soft;         ///< zf / mmse soft-output buffers
    wireless::recost_scratch recost;  ///< flip-recost soft-output buffers
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_WORKSPACE_H
