#include "detect/detector.h"

#include "detect/scratch.h"

namespace hcq::detect {

detection_result detector::detect(const wireless::mimo_instance& instance) const {
    detect_scratch scratch;
    detection_result result;
    result.ml_cost = detect_into(instance, scratch, result.bits);
    return result;
}

}  // namespace hcq::detect
