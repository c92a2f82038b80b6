// The one front end of the `kind:key=value,...` spec strings: detection
// paths (paths/registry.h), channels (wireless/channel_spec.h), FEC codes
// (fec/code_spec.h) and the kind-less `key=value,...` list of the ARQ loop
// (arq/arq.h).
//
// Each family is a constant table: its kinds, each with a one-line summary
// and its accepted keys (with summaries, in canonical order), plus the words
// its errors use.  This module owns everything the families share:
//
//   * the grammar (split), the kind and key check (check), and both in that
//     order (parse): grammar first, then the kind, then each key in scan
//     order;
//   * the readers, which turn one key's value into a positive integer, a
//     non-negative integer, a finite number or one of a list of names, or
//     fall back to the caller's default when the spec leaves the key out;
//   * one error vocabulary:
//         <layer>: bad spec '<text>': <why>                       (grammar)
//         <layer>: unknown <what> '<kind>' (available: a, b, c)
//         <layer>: '<kind>' does not accept key '<k>' (accepted: x, y)
//         <layer>: <kind>: bad value '<v>' for key '<k>' (expected ...)
//     (a kind-less family drops the kind from the last two);
//   * the help listing every kind and key.
//
// A family keeps only its domain: defaults, ranges, factories and its
// canonical to_string.  It assigns its typed fields itself, one reader call
// per key.  A family whose table needs more than a kind_row per kind (the
// path factories, the FEC generators) holds its own rows and hands
// kind_rows(table) to the family; kind i of one is entry i of the other.
#ifndef HCQ_UTIL_SPEC_H
#define HCQ_UTIL_SPEC_H

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hcq::util::spec {

/// One accepted key of a kind.
struct key_row {
    std::string_view name;     ///< e.g. "width"
    std::string_view summary;  ///< one line for help
};

/// One kind of a family.
struct kind_row {
    std::string_view name;          ///< e.g. "kbest"; empty for a kind-less family
    std::string_view summary;       ///< one line for help
    std::span<const key_row> keys;  ///< accepted keys, in canonical order
};

/// One spec family: its error words and its kinds.  A kind-less family
/// (ARQ) has one unnamed kind, and its text is a bare `key=value,...` list.
struct family {
    std::string_view layer;  ///< error prefix, e.g. "paths"
    std::string_view noun;   ///< the kind position in grammar errors, e.g. "path kind"
    std::string_view what;   ///< an unknown kind's name in errors, e.g. "detection path"
    std::span<const kind_row> kinds;
};

/// The kind rows of a family's own table, whose entries carry theirs as
/// `.kind`.
template <class Entry, std::size_t N>
constexpr std::array<kind_row, N> kind_rows(const Entry (&table)[N]) {
    std::array<kind_row, N> rows{};
    for (std::size_t i = 0; i < N; ++i) rows[i] = table[i].kind;
    return rows;
}

/// A spec as written: its kind and its key=value arguments in spec order.
struct parsed {
    std::string kind;
    std::vector<std::pair<std::string, std::string>> args;

    /// The value of `key`, or nullptr.  Linear scan: specs are tiny.
    [[nodiscard]] const std::string* find(std::string_view key) const;

    /// `kind`, or `kind:k1=v1,k2=v2,...` in args order.
    [[nodiscard]] std::string to_string() const;
};

/// The grammar alone.  Throws the grammar error on an empty kind, a kind
/// containing '=', an argument that is not key=value, an empty key or
/// value, a repeated key, or a trailing ':' without arguments.
[[nodiscard]] parsed split(const family& f, std::string_view text);

/// Checks a spec's kind, then each of its keys in order, against f; returns
/// the kind's index in f.kinds.  Throws the unknown-kind or unknown-key
/// error.
std::size_t check(const family& f, const parsed& p);

/// split, then check.
[[nodiscard]] parsed parse(const family& f, std::string_view text);

/// The index of the kind `name` in f.kinds; throws the unknown-kind error.
[[nodiscard]] std::size_t find_kind(const family& f, std::string_view name);

/// f's kind names, in table order.
[[nodiscard]] std::vector<std::string> names(const family& f);

/// Throws std::invalid_argument("<layer>: bad spec '<text>': <why>").
[[noreturn]] void fail(const family& f, std::string_view text, std::string_view why);

/// Throws the bad-value error for `key` of `p`.  The value quoted is the
/// spec's own text, or `value` formatted when the spec leaves the key out
/// and its default is what is out of range.
[[noreturn]] void bad_value(const family& f, const parsed& p, std::string_view key,
                            std::string_view expected, double value = 0.0);

/// The readers: `key`'s value in `p`, or `fallback` when `p` leaves it out.
/// A value that does not read as the reader's form is a bad value.
[[nodiscard]] std::size_t positive(const family& f, const parsed& p, std::string_view key,
                                   std::size_t fallback);
[[nodiscard]] std::size_t non_negative(const family& f, const parsed& p, std::string_view key,
                                       std::size_t fallback);
/// NaN and +/-inf are bad values: no family has a use for them, and NaN
/// slips past every range check downstream.
[[nodiscard]] double finite(const family& f, const parsed& p, std::string_view key,
                            double fallback);
/// The index of `key`'s value in `choices`.
[[nodiscard]] std::size_t one_of(const family& f, const parsed& p, std::string_view key,
                                 std::span<const std::string_view> choices,
                                 std::size_t fallback);

/// `heading`, then one `kind  summary` line per kind followed by its keys
/// (a kind-less family lists its keys alone): the CLI `--help` body.
[[nodiscard]] std::string help(const family& f, std::string_view heading);

/// Full-string unsigned integer parse; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::size_t> parse_size_value(const std::string& raw);

/// Full-string double parse; nullopt on trailing garbage or parse failure.
/// (Finiteness is the reader's policy: CLI flags accept whatever std::stod
/// accepts.)
[[nodiscard]] std::optional<double> parse_double_value(const std::string& raw);

/// Shortest round-trippable value text the families print: ostream default
/// format at precision 15.
[[nodiscard]] std::string format_value(double value);

}  // namespace hcq::util::spec

#endif  // HCQ_UTIL_SPEC_H
