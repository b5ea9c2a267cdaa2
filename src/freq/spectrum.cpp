#include "freq/spectrum.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

FrequencyBand::FrequencyBand(double lo, double hi)
    : loHz(lo), hiHz(hi)
{
    if (hi <= lo)
        fatal("FrequencyBand: hi must exceed lo");
}

int
FrequencyBand::maxSlots(double min_spacing) const
{
    if (min_spacing <= 0.0)
        fatal("FrequencyBand::maxSlots: non-positive spacing");
    return static_cast<int>(std::floor(span() / min_spacing + 1e-9)) + 1;
}

std::vector<double>
FrequencyBand::slots(int count) const
{
    if (count <= 0)
        fatal("FrequencyBand::slots: non-positive count");
    std::vector<double> out;
    out.reserve(count);
    if (count == 1) {
        out.push_back((loHz + hiHz) / 2.0);
        return out;
    }
    const double step = span() / (count - 1);
    for (int i = 0; i < count; ++i)
        out.push_back(loHz + step * i);
    return out;
}

FrequencyBand
FrequencyBand::qubitBand()
{
    return FrequencyBand(kQubitBandLoHz, kQubitBandHiHz);
}

FrequencyBand
FrequencyBand::resonatorBand()
{
    return FrequencyBand(kResonatorBandLoHz, kResonatorBandHiHz);
}

} // namespace qplacer
