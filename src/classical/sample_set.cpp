#include "classical/sample_set.h"

#include <stdexcept>

namespace hcq::solvers {

void sample_set::add(qubo::bit_vector bits, double energy) {
    samples_.push_back(sample{std::move(bits), energy});
}

const sample& sample_set::best() const {
    if (samples_.empty()) throw std::logic_error("sample_set::best: empty");
    const sample* b = &samples_.front();
    for (const auto& s : samples_) {
        if (s.energy < b->energy) b = &s;
    }
    return *b;
}

double sample_set::mean_energy() const {
    if (samples_.empty()) throw std::logic_error("sample_set::mean_energy: empty");
    double acc = 0.0;
    for (const auto& s : samples_) acc += s.energy;
    return acc / static_cast<double>(samples_.size());
}

std::size_t sample_set::count_at_or_below(double reference, double tolerance) const {
    std::size_t count = 0;
    for (const auto& s : samples_) {
        if (s.energy <= reference + tolerance) ++count;
    }
    return count;
}

double sample_set::success_probability(double reference, double tolerance) const {
    if (samples_.empty()) return 0.0;
    return static_cast<double>(count_at_or_below(reference, tolerance)) /
           static_cast<double>(samples_.size());
}

std::vector<double> sample_set::energies() const {
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) out.push_back(s.energy);
    return out;
}

}  // namespace hcq::solvers
