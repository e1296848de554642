#include "common/rng.h"

namespace sgnn::common {

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    SGNN_DCHECK(w >= 0.0);
    total += w;
  }
  SGNN_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace sgnn::common
