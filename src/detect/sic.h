// Ordered successive interference cancellation (V-BLAST style): detect the
// strongest remaining stream with a linear filter, slice it, subtract its
// contribution, repeat.  A classic middle ground between linear and tree
// detectors — another candidate classical module for the paper's Section-5
// hybrid designs.
#ifndef HCQ_DETECT_SIC_H
#define HCQ_DETECT_SIC_H

#include "detect/detector.h"

namespace hcq::detect {

/// ZF-based ordered SIC.
class sic_detector final : public detector {
public:
    double detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                       std::vector<std::uint8_t>& bits) const override;
    [[nodiscard]] std::string name() const override { return "SIC"; }
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_SIC_H
