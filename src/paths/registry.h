// The detection-path registry — the spec-string front door the closed
// link::path_kind enum used to be.
//
// Construction goes through spec strings:
//
//     auto kbest = paths::registry::make("kbest:width=16");
//     auto gsra  = paths::registry::make("gsra:reads=80,sp=0.29,pause_us=1");
//
// Specs are read through util::spec (util/spec.h), the front end the
// channel, FEC and ARQ specs share, so errors are self-documenting in one
// form: an unknown kind lists registry::available(), an unknown key lists
// the path's accepted keys, and a bad value names the key and the expected
// form.
//
// The eleven kinds (zf, mmse, kbest, sphere, sic, fcsd, sa, tabu, pt, gsra,
// kxra) are one constant table in registry.cpp, the file that holds the
// classes they build; each entry is a util::spec::kind_row (kind, summary,
// accepted keys) and a factory.  Nothing is registered at run time: the
// table is constant data, so any thread may call these.  Adding a kind means implementing
// the class and adding its table entry — see docs/ARCHITECTURE.md, "Adding
// a new detection path".
#ifndef HCQ_PATHS_REGISTRY_H
#define HCQ_PATHS_REGISTRY_H

#include <memory>
#include <string>
#include <vector>

#include "paths/detection_path.h"

namespace hcq::paths {

/// The spec-string factory over the built-in path kinds.
class registry {
public:
    /// All kinds, sorted.
    [[nodiscard]] static std::vector<std::string> available();

    /// Multi-line human-readable listing: one `kind  summary` line per path
    /// followed by its accepted keys — the CLI `--help` body.
    [[nodiscard]] static std::string help();

    /// Builds a path from a parsed spec.  Throws std::invalid_argument on an
    /// unknown kind (listing available()), an unknown key (listing the
    /// path's accepted keys), or a bad value.
    [[nodiscard]] static std::shared_ptr<const detection_path> make(const path_spec& spec);

    /// Parses `spec_text` and builds the path.
    [[nodiscard]] static std::shared_ptr<const detection_path> make(const std::string& spec_text);

    /// One path per spec, in order.
    [[nodiscard]] static std::vector<std::shared_ptr<const detection_path>> make_all(
        const std::vector<path_spec>& specs);
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_REGISTRY_H
