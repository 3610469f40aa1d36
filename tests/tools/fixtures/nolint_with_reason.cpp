// Fixture: reasoned ckat NOLINT suppresses the diagnostic (both the
// same-line and NEXTLINE spellings). Prose naming the syntax with a
// wildcard, NOLINT(ckat-*) or NOLINTNEXTLINE(ckat-*), is no suppression
// and needs no reason.
#include <thread>

void fixture_nolint_with_reason() {
  std::thread worker([] {});
  worker.detach();  // NOLINT(ckat-detached-thread): fixture exercising a reasoned same-line suppression

  std::thread other([] {});
  // NOLINTNEXTLINE(ckat-detached-thread): fixture exercising a reasoned next-line suppression
  other.detach();
}
