#include "util/spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace hcq::util::spec {
namespace {

template <class... Parts>
std::string cat(const Parts&... parts) {
    std::string out;
    (out.append(parts), ...);
    return out;
}

/// "a, b, c", or `none` for no items.
template <class Items>
std::string join(const Items& items, std::string_view none = "") {
    std::string out;
    for (const auto& item : items) out += cat(out.empty() ? "" : ", ", item);
    return out.empty() ? std::string(none) : out;
}

bool kindless(const family& f) { return f.kinds.size() == 1 && f.kinds.front().name.empty(); }

}  // namespace

const std::string* parsed::find(std::string_view key) const {
    for (const auto& [k, v] : args) {
        if (k == key) return &v;
    }
    return nullptr;
}

std::string parsed::to_string() const {
    std::string out = kind;
    for (std::size_t i = 0; i < args.size(); ++i) {
        out += cat(i == 0 ? ":" : ",", args[i].first, "=", args[i].second);
    }
    return out;
}

void fail(const family& f, std::string_view text, std::string_view why) {
    throw std::invalid_argument(cat(f.layer, ": bad spec '", text, "': ", why));
}

parsed split(const family& f, std::string_view text) {
    parsed spec;
    std::string_view rest = text;
    if (!kindless(f)) {
        const std::size_t colon = text.find(':');
        spec.kind = text.substr(0, colon);
        if (spec.kind.empty()) fail(f, text, cat("empty ", f.noun));
        if (spec.kind.find('=') != std::string::npos) {
            fail(f, text, cat(f.noun, " '", spec.kind, "' contains '='"));
        }
        if (colon == std::string_view::npos) return spec;
        rest = text.substr(colon + 1);
        if (rest.empty()) fail(f, text, "trailing ':' without arguments");
    }
    // Items split at commas; a trailing comma ends the list.
    while (!rest.empty()) {
        const std::size_t comma = std::min(rest.find(','), rest.size());
        const std::string_view item = rest.substr(0, comma);
        rest.remove_prefix(std::min(comma + 1, rest.size()));
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            fail(f, text, cat("argument '", item, "' is not key=value"));
        }
        std::string key(item.substr(0, eq));
        std::string value(item.substr(eq + 1));
        if (key.empty()) fail(f, text, cat("empty key in '", item, "'"));
        if (value.empty()) fail(f, text, cat("empty value for key '", key, "'"));
        if (spec.find(key) != nullptr) fail(f, text, cat("duplicate key '", key, "'"));
        spec.args.emplace_back(std::move(key), std::move(value));
    }
    return spec;
}

std::size_t find_kind(const family& f, std::string_view name) {
    for (std::size_t i = 0; i < f.kinds.size(); ++i) {
        if (f.kinds[i].name == name) return i;
    }
    throw std::invalid_argument(
        cat(f.layer, ": unknown ", f.what, " '", name, "' (available: ", join(names(f)), ")"));
}

std::size_t check(const family& f, const parsed& p) {
    const std::size_t index = find_kind(f, p.kind);
    const std::span<const key_row> keys = f.kinds[index].keys;
    for (const auto& [key, value] : p.args) {
        const auto named = [&](const key_row& k) { return k.name == key; };
        if (std::none_of(keys.begin(), keys.end(), named)) {
            std::vector<std::string_view> accepted;
            for (const key_row& k : keys) accepted.push_back(k.name);
            throw std::invalid_argument(cat(f.layer, ": ",
                                            p.kind.empty() ? "" : cat("'", p.kind, "' "),
                                            "does not accept key '", key, "' (accepted: ",
                                            join(accepted, "none"), ")"));
        }
    }
    return index;
}

parsed parse(const family& f, std::string_view text) {
    parsed spec = split(f, text);
    (void)check(f, spec);
    return spec;
}

std::vector<std::string> names(const family& f) {
    std::vector<std::string> out;
    out.reserve(f.kinds.size());
    for (const kind_row& k : f.kinds) out.emplace_back(k.name);
    return out;
}

void bad_value(const family& f, const parsed& p, std::string_view key, std::string_view expected,
               double value) {
    const std::string* raw = p.find(key);
    throw std::invalid_argument(cat(f.layer, ": ", p.kind.empty() ? "" : cat(p.kind, ": "),
                                    "bad value '", raw != nullptr ? *raw : format_value(value),
                                    "' for key '", key, "' (expected ", expected, ")"));
}

std::size_t positive(const family& f, const parsed& p, std::string_view key,
                     std::size_t fallback) {
    const std::string* raw = p.find(key);
    if (raw == nullptr) return fallback;
    const auto value = parse_size_value(*raw);
    if (!value.has_value() || *value == 0) bad_value(f, p, key, "a positive integer");
    return *value;
}

std::size_t non_negative(const family& f, const parsed& p, std::string_view key,
                         std::size_t fallback) {
    const std::string* raw = p.find(key);
    if (raw == nullptr) return fallback;
    const auto value = parse_size_value(*raw);
    if (!value.has_value()) bad_value(f, p, key, "a non-negative integer");
    return *value;
}

double finite(const family& f, const parsed& p, std::string_view key, double fallback) {
    const std::string* raw = p.find(key);
    if (raw == nullptr) return fallback;
    const auto value = parse_double_value(*raw);
    if (!value.has_value() || !std::isfinite(*value)) bad_value(f, p, key, "a finite number");
    return *value;
}

std::size_t one_of(const family& f, const parsed& p, std::string_view key,
                   std::span<const std::string_view> choices, std::size_t fallback) {
    const std::string* raw = p.find(key);
    if (raw == nullptr) return fallback;
    const auto it = std::find(choices.begin(), choices.end(), *raw);
    if (it != choices.end()) return static_cast<std::size_t>(it - choices.begin());
    std::string expected(choices.front());
    for (std::size_t i = 1; i < choices.size(); ++i) {
        expected += cat(choices.size() > 2 ? ", " : " ", i + 1 == choices.size() ? "or " : "",
                        choices[i]);
    }
    bad_value(f, p, key, expected);
}

std::string help(const family& f, std::string_view heading) {
    std::size_t kind_width = 0;
    std::size_t key_width = 0;
    for (const kind_row& kind : f.kinds) {
        kind_width = std::max(kind_width, kind.name.size());
        for (const key_row& key : kind.keys) key_width = std::max(key_width, key.name.size());
    }
    std::string out = cat(heading, ":\n");
    for (const kind_row& kind : f.kinds) {
        std::string_view indent = "  ";
        if (!kind.name.empty()) {
            out += cat("  ", kind.name, std::string(kind_width + 2 - kind.name.size(), ' '),
                       kind.summary, "\n");
            indent = "      ";
        }
        for (const key_row& key : kind.keys) {
            out += cat(indent, key.name, std::string(key_width + 2 - key.name.size(), ' '),
                       key.summary, "\n");
        }
    }
    return out;
}

std::optional<std::size_t> parse_size_value(const std::string& raw) {
    std::size_t value = 0;
    const char* end = raw.data() + raw.size();
    const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

std::optional<double> parse_double_value(const std::string& raw) {
    try {
        std::size_t consumed = 0;
        const double value = std::stod(raw, &consumed);
        if (consumed == raw.size()) return value;
    } catch (const std::exception&) {
        // fall through: uniform nullopt on any parse failure
    }
    return std::nullopt;
}

std::string format_value(double value) {
    std::ostringstream os;
    os.precision(15);
    os << value;
    return os.str();
}

}  // namespace hcq::util::spec
