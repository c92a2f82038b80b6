#include "paths/detection_path.h"

#include <sstream>
#include <stdexcept>

namespace hcq::paths {

path_result detection_path::run(const path_context& ctx) const {
    path_result out;
    run_into(ctx, out);
    return out;
}

void detection_path::run_block(std::span<const path_context> ctxs,
                               std::span<path_result> out) const {
    if (ctxs.size() != out.size()) {
        throw std::invalid_argument("detection_path::run_block: span length mismatch");
    }
    for (std::size_t i = 0; i < ctxs.size(); ++i) run_into(ctxs[i], out[i]);
}

std::vector<path_spec> parse_spec_list(const std::string& text) {
    // Split on commas, re-attaching key=value segments to the spec that
    // precedes them (see the grammar note in the header).
    std::vector<std::string> spec_texts;
    std::istringstream is(text);
    std::string segment;
    while (std::getline(is, segment, ',')) {
        if (segment.empty()) continue;
        const std::size_t eq = segment.find('=');
        const std::size_t colon = segment.find(':');
        const bool continues_previous =
            eq != std::string::npos && (colon == std::string::npos || colon > eq) &&
            !spec_texts.empty();
        if (continues_previous) {
            // First argument of a bare kind opens its ':' form; later ones
            // join with ','.
            std::string& base = spec_texts.back();
            base += (base.find(':') == std::string::npos ? ':' : ',');
            base += segment;
        } else {
            spec_texts.push_back(segment);
        }
    }
    std::vector<path_spec> specs;
    specs.reserve(spec_texts.size());
    for (const auto& t : spec_texts) specs.push_back(path_spec::parse(t));
    return specs;
}

}  // namespace hcq::paths
