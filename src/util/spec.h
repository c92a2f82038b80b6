// The shared `kind:key=value,...` spec grammar behind paths::path_spec and
// wireless::channel_spec.
//
// Both front-ends expose the same self-documenting spec-string surface —
// parse errors that quote the offending text and name the broken piece,
// canonical to_string with explicit keys, precision-15 value formatting —
// and used to carry private copies of the machinery.  This module owns the
// grammar once; each layer wraps it with its own vocabulary (a `grammar`
// names the layer and the kind position, so "paths: bad spec 'x': empty
// path kind" and "channels: bad spec 'x': empty channel kind" both come out
// of the same code) and keeps its own typed accessors / kind validation on
// top, so every historical error text is preserved verbatim.
//
// The per-item `key_hook` runs after the grammar checks of each key=value
// item, in scan order: a front-end that validates keys against a kind table
// (channel_spec) hooks in there, so error precedence between grammar errors
// and unknown-key errors is exactly what the hand-rolled loops produced.
#ifndef HCQ_UTIL_SPEC_H
#define HCQ_UTIL_SPEC_H

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hcq::util::spec {

/// Error vocabulary of one spec front-end.
struct grammar {
    std::string layer;  ///< message prefix, e.g. "paths" / "channels"
    std::string noun;   ///< kind-position name, e.g. "path kind" / "channel kind"
};

/// A parsed `kind:key=value,...` spec: kind plus args in spec order.
struct parsed {
    std::string kind;
    std::vector<std::pair<std::string, std::string>> args;

    /// The value of `key`, or nullptr.  Linear scan: specs are tiny.
    [[nodiscard]] const std::string* find(const std::string& key) const;
};

/// Throws std::invalid_argument("<layer>: bad spec '<text>': <why>").
[[noreturn]] void fail(const grammar& g, const std::string& text, const std::string& why);

/// Called for each accepted key=value item, in scan order, after the
/// grammar checks (shape, empty key/value, duplicates) for that item.
using key_hook = std::function<void(const std::string& key, const std::string& value)>;

/// Called once with the extracted kind, after the kind grammar checks and
/// BEFORE any argument is scanned — where a front-end validates the kind
/// against its table so an unknown kind outranks later item errors.
using kind_hook = std::function<void(const std::string& kind)>;

/// Parses `text` against the shared grammar.  Throws via fail() on: empty
/// kind, kind containing '=', an argument that is not key=value, an empty
/// key or value, a duplicate key, or a trailing ':' without arguments.
[[nodiscard]] parsed parse(const grammar& g, const std::string& text,
                           const key_hook& on_key = {}, const kind_hook& on_kind = {});

/// Canonical form: `kind` or `kind:k1=v1,k2=v2,...` in args order.
[[nodiscard]] std::string to_string(const parsed& p);

/// Full-string unsigned integer parse; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::size_t> parse_size_value(const std::string& raw);

/// Full-string double parse; nullopt on trailing garbage or parse failure.
/// (Finiteness is a front-end policy: channel and path specs reject inf and
/// nan, while CLI flags accept whatever std::stod accepts.)
[[nodiscard]] std::optional<double> parse_double_value(const std::string& raw);

/// Shortest round-trippable value text both layers print: ostream default
/// format at precision 15.
[[nodiscard]] std::string format_value(double value);

}  // namespace hcq::util::spec

#endif  // HCQ_UTIL_SPEC_H
