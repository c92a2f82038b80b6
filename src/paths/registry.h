// The detection-path factory registry — the open extension point the closed
// link::path_kind enum used to be.
//
// Every path kind registers a factory plus self-describing metadata (a
// one-line summary and the keys it accepts).  Construction goes through spec
// strings:
//
//     auto kbest = paths::registry::make("kbest:width=16");
//     auto gsra  = paths::registry::make("gsra:reads=80,sp=0.29,pause_us=1");
//
// Error messages are self-documenting: an unknown kind lists
// registry::available(), an unknown key lists the path's accepted keys, and
// a bad value names the key and the expected form.
//
// The built-in paths (zf, mmse, kbest, sphere, sic, fcsd, sa, tabu, pt,
// gsra, kxra — see builtin_paths.cpp) are registered lazily before the first
// lookup, so a static-initialisation-order race with user registrations is
// impossible.  New paths register with registry::register_path, either
// directly or through a namespace-scope `paths::registrar` object — see
// docs/ARCHITECTURE.md, "Adding a new detection path".
#ifndef HCQ_PATHS_REGISTRY_H
#define HCQ_PATHS_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "paths/detection_path.h"

namespace hcq::paths {

/// Factory signature: builds a path from a validated spec.  The registry
/// checks the kind and rejects unknown keys before invoking the factory;
/// the factory validates the *values* (via spec_positive_size/spec_double).
using path_factory =
    std::function<std::shared_ptr<const detection_path>(const path_spec& spec)>;

/// One accepted spec key of a path kind.
struct key_info {
    std::string name;     ///< e.g. "width"
    std::string summary;  ///< e.g. "beam width (default 8)"
};

/// Registration record of one path kind.
struct path_info {
    std::string kind;           ///< registry name, e.g. "kbest"
    std::string summary;        ///< one-line description for CLI help
    std::vector<key_info> keys; ///< accepted spec keys (empty = none)
    path_factory factory;
};

/// Global, thread-safe factory registry keyed by spec kind.
class registry {
public:
    /// Registers a path kind.  Throws std::invalid_argument on an empty
    /// kind, a missing factory, or a kind that is already registered
    /// (including the built-ins).
    static void register_path(path_info info);

    /// All registered kinds, sorted.
    [[nodiscard]] static std::vector<std::string> available();

    /// Registration metadata (for help/docs), sorted by kind.
    [[nodiscard]] static std::vector<path_info> entries();

    /// True when `kind` is registered.
    [[nodiscard]] static bool is_registered(const std::string& kind);

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

/// Registers a path kind at namespace scope:
///     static const paths::registrar my_path_registrar{{
///         .kind = "mypath", .summary = "...", .keys = {...},
///         .factory = [](const paths::path_spec& s) { ... }}};
struct registrar {
    explicit registrar(path_info info) { registry::register_path(std::move(info)); }
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_REGISTRY_H
