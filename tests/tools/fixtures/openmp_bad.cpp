// Fixture: every ckat-openmp pattern, one per line.
#include <omp.h>

#include "omp.h"

float fixture_openmp_bad(const float* values, int n) {
  float sum = 0.0f;
#pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    sum += values[i];
  }
  return sum + static_cast<float>(omp_get_max_threads());
}
