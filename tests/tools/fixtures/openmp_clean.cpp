// Fixture: OpenMP named only in comments and strings, and identifiers
// that merely contain "omp_" -- none of it is OpenMP.
//   #pragma omp parallel for
//   #include <omp.h>
#include <cstddef>
#include <string>

std::size_t bomp_count(std::size_t n) { return n; }

std::string fixture_openmp_clean(std::size_t n) {
  const std::string note = "omp_get_max_threads() and #pragma omp are banned";
  return note + std::to_string(bomp_count(n));
}
