// K-best sphere decoder (Guo & Nilsson [17]) — breadth-first tree search
// with a fixed beam width, giving tunable, parallelism-friendly complexity.
// One of the paper's Section-5 candidates for hybrid initialisation.
#ifndef HCQ_DETECT_KBEST_H
#define HCQ_DETECT_KBEST_H

#include "detect/detector.h"

namespace hcq::detect {

/// Breadth-first detector keeping the `k` lowest-cost partial paths per level.
class kbest_detector final : public detector {
public:
    explicit kbest_detector(std::size_t k = 8);

    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override;

    [[nodiscard]] std::size_t beam_width() const noexcept { return k_; }

private:
    std::size_t k_;
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_KBEST_H
