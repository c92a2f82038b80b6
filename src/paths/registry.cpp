#include "paths/registry.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hcq::paths {

namespace detail {
// Defined in builtin_paths.cpp; referencing it from here also guarantees the
// linker keeps that translation unit when hcq is consumed as a static
// library (a registration-only TU with no referenced symbol would be
// dropped, silently emptying the registry).
void register_builtin_paths();
}  // namespace detail

namespace {

struct registry_state {
    util::mutex mutex;
    /// Ordered map on purpose: available()/entries()/help() iterate it into
    /// user-visible listings, which must not depend on hash order.
    std::map<std::string, path_info> entries HCQ_GUARDED_BY(mutex);
};

registry_state& state() {
    static registry_state s;
    return s;
}

// Set while register_builtin_paths runs so its register_path calls do not
// re-enter the call_once below (which would deadlock).
thread_local bool registering_builtins = false;

void ensure_builtins() {
    if (registering_builtins) return;
    static std::once_flag once;
    std::call_once(once, [] {
        registering_builtins = true;
        detail::register_builtin_paths();
        registering_builtins = false;
    });
}

std::string join(const std::vector<std::string>& items, const char* sep) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += sep;
        out += items[i];
    }
    return out;
}

}  // namespace

void registry::register_path(path_info info) {
    ensure_builtins();
    if (info.kind.empty()) throw std::invalid_argument("paths: cannot register an empty kind");
    if (!info.factory) {
        throw std::invalid_argument("paths: path '" + info.kind + "' registered without a factory");
    }
    auto& st = state();
    const util::mutex_lock lock(st.mutex);
    const auto [it, inserted] = st.entries.emplace(info.kind, std::move(info));
    if (!inserted) {
        throw std::invalid_argument("paths: detection path '" + it->first +
                                    "' is already registered");
    }
}

std::vector<std::string> registry::available() {
    ensure_builtins();
    auto& st = state();
    const util::mutex_lock lock(st.mutex);
    std::vector<std::string> kinds;
    kinds.reserve(st.entries.size());
    for (const auto& [kind, info] : st.entries) kinds.push_back(kind);
    return kinds;  // std::map iteration order is already sorted
}

std::vector<path_info> registry::entries() {
    ensure_builtins();
    auto& st = state();
    const util::mutex_lock lock(st.mutex);
    std::vector<path_info> out;
    out.reserve(st.entries.size());
    for (const auto& [kind, info] : st.entries) out.push_back(info);
    return out;
}

bool registry::is_registered(const std::string& kind) {
    ensure_builtins();
    auto& st = state();
    const util::mutex_lock lock(st.mutex);
    return st.entries.count(kind) != 0;
}

std::string registry::help() {
    std::ostringstream os;
    os << "detection paths (--paths spec strings: kind or kind:key=value,key=value):\n";
    for (const auto& info : entries()) {
        os << "  " << info.kind;
        os << std::string(info.kind.size() < 8 ? 8 - info.kind.size() : 1, ' ');
        os << info.summary << "\n";
        for (const auto& key : info.keys) {
            os << "      " << key.name;
            os << std::string(key.name.size() < 10 ? 10 - key.name.size() : 1, ' ');
            os << key.summary << "\n";
        }
    }
    return os.str();
}

std::shared_ptr<const detection_path> registry::make(const path_spec& spec) {
    ensure_builtins();
    path_info info;  // copied out so available() below can re-lock
    {
        auto& st = state();
        const util::mutex_lock lock(st.mutex);
        const auto it = st.entries.find(spec.kind);
        if (it != st.entries.end()) info = it->second;
    }
    if (!info.factory) {
        throw std::invalid_argument("paths: unknown detection path '" + spec.kind +
                                    "' (available: " + join(available(), ", ") + ")");
    }
    for (const auto& [key, value] : spec.args) {
        const bool known = std::any_of(info.keys.begin(), info.keys.end(),
                                       [&](const key_info& k) { return k.name == key; });
        if (!known) {
            std::vector<std::string> names;
            names.reserve(info.keys.size());
            for (const auto& k : info.keys) names.push_back(k.name);
            throw std::invalid_argument(
                "paths: '" + spec.kind + "' does not accept key '" + key + "' (accepted: " +
                (names.empty() ? std::string("none") : join(names, ", ")) + ")");
        }
    }
    return info.factory(spec);
}

std::shared_ptr<const detection_path> registry::make(const std::string& spec_text) {
    return make(path_spec::parse(spec_text));
}

std::vector<std::shared_ptr<const detection_path>> registry::make_all(
    const std::vector<path_spec>& specs) {
    std::vector<std::shared_ptr<const detection_path>> paths;
    paths.reserve(specs.size());
    for (const auto& spec : specs) paths.push_back(make(spec));
    return paths;
}

}  // namespace hcq::paths
