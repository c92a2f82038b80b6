#include "util/cli.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/spec.h"

namespace hcq::util {

namespace {

std::string env_name(const std::string& flag) {
    std::string out = "HCQ_";
    for (const char c : flag) {
        out.push_back(c == '-' ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    return out;
}

bool parse_bool_text(const std::string& text) {
    if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
    if (text == "0" || text == "false" || text == "no" || text == "off") return false;
    throw std::invalid_argument("flag_set: not a boolean: '" + text + "'");
}

}  // namespace

flag_set::flag_set(int argc, const char* const argv[]) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        if (body.empty()) throw std::invalid_argument("flag_set: bare '--'");
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[body] = argv[++i];
        } else {
            values_[body] = "true";  // bare boolean flag
        }
    }
}

std::optional<std::string> flag_set::lookup(const std::string& name) const {
    if (const auto it = values_.find(name); it != values_.end()) return it->second;
    if (const char* env = std::getenv(env_name(name).c_str()); env != nullptr) {
        return std::string(env);
    }
    return std::nullopt;
}

bool flag_set::has(const std::string& name) const { return lookup(name).has_value(); }

std::string flag_set::get_string(const std::string& name, const std::string& fallback) const {
    return lookup(name).value_or(fallback);
}

std::size_t flag_set::get_size(const std::string& name, std::size_t fallback) const {
    const auto v = lookup(name);
    if (!v) return fallback;
    if (const auto value = spec::parse_size_value(*v)) return *value;
    throw std::invalid_argument("flag --" + name + ": not a non-negative integer: '" + *v + "'");
}

double flag_set::get_double(const std::string& name, double fallback) const {
    const auto v = lookup(name);
    if (!v) return fallback;
    if (const auto value = spec::parse_double_value(*v)) return *value;
    throw std::invalid_argument("flag --" + name + ": not a number: '" + *v + "'");
}

bool flag_set::get_bool(const std::string& name, bool fallback) const {
    const auto v = lookup(name);
    if (!v) return fallback;
    return parse_bool_text(*v);
}

bench_scale parse_scale(const flag_set& flags) {
    const std::string text = flags.get_string("scale", "quick");
    if (text == "smoke") return bench_scale::smoke;
    if (text == "quick") return bench_scale::quick;
    if (text == "full") return bench_scale::full;
    throw std::invalid_argument("--scale must be smoke|quick|full, got '" + text + "'");
}

double scale_factor(bench_scale scale) noexcept {
    switch (scale) {
        case bench_scale::smoke: return 0.05;
        case bench_scale::quick: return 1.0;
        case bench_scale::full: return 10.0;
    }
    return 1.0;
}

const char* to_string(bench_scale scale) noexcept {
    switch (scale) {
        case bench_scale::smoke: return "smoke";
        case bench_scale::quick: return "quick";
        case bench_scale::full: return "full";
    }
    return "?";
}

}  // namespace hcq::util
