// Fixed-complexity sphere decoder (Barbero & Thompson [4]): exhaustively
// enumerates the top `full_levels` tree levels and completes each branch by
// greedy (Babai) slicing.  Deterministic latency — the property that makes
// it attractive for pipelined base-station processing and, per Section 5 of
// the paper, a tunable-quality hybrid initialiser.
#ifndef HCQ_DETECT_FCSD_H
#define HCQ_DETECT_FCSD_H

#include "detect/detector.h"

namespace hcq::detect {

/// FCSD with `full_levels` fully-enumerated levels (0 = pure Babai slicing).
class fcsd_detector final : public detector {
public:
    explicit fcsd_detector(std::size_t full_levels = 1);

    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override;

    [[nodiscard]] std::size_t full_levels() const noexcept { return full_levels_; }

private:
    std::size_t full_levels_;
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_FCSD_H
