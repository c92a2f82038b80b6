// Real-valued embedding of complex linear systems.
//
// The standard MIMO detection trick: y = H x + n over C^m becomes
//   [Re y; Im y] = [Re H, -Im H; Im H, Re H] [Re x; Im x] + [Re n; Im n]
// over R^{2m}, which lets tree-search detectors (sphere decoder, K-best,
// FCSD) enumerate per-dimension PAM alphabets.
#ifndef HCQ_LINALG_REAL_EMBED_H
#define HCQ_LINALG_REAL_EMBED_H

#include "linalg/matrix.h"

namespace hcq::linalg {

/// [Re H, -Im H; Im H, Re H] (2m x 2n).
[[nodiscard]] rmat real_embedding(const cmat& h);

/// [Re v; Im v] (2m).
[[nodiscard]] rvec real_embedding(const cvec& v);

/// Inverse of real_embedding on vectors: first half real parts, second half
/// imaginary parts; size must be even.
[[nodiscard]] cvec complex_from_embedding(const rvec& v);

// Write-into forms: the output buffer is reused (resize keeps capacity) so
// hot callers embed without allocating after warm-up.  The allocating forms
// above run these on a fresh buffer.

/// real_embedding(cmat) into a reused matrix.
void real_embedding_into(const cmat& h, rmat& out);

/// real_embedding(cvec) into a reused vector.
void real_embedding_into(const cvec& v, rvec& out);

/// complex_from_embedding into a reused vector.
void complex_from_embedding_into(const rvec& v, cvec& out);

}  // namespace hcq::linalg

#endif  // HCQ_LINALG_REAL_EMBED_H
