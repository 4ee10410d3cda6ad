// Shared by the differential sweeps: each seeded run sets the ingest
// reorder stage's lateness bound (EngineOptions::ingest, DESIGN.md §15)
// to 0 or 400 ms. The traces are in timestamp order, so a bound that
// covers them must not change a single output byte.

#ifndef ESLEV_TESTS_PROPERTY_LATENESS_DRAW_H_
#define ESLEV_TESTS_PROPERTY_LATENESS_DRAW_H_

#include <cstdint>

#include "common/time.h"
#include "core/engine.h"

namespace eslev {

// Odd seeds run with a live reorder stage (400 ms), even seeds without
// it. The suites run seeds 1, 2 and 3 and derive each run's seed from
// them; every derivation they use (`a * seed + b` with an odd `a`, or
// `seed ^ c`) alternates parity from seed to seed, so every test runs at
// both bounds. Each suite checks its derivations with RunsBothBounds.
constexpr Duration LatenessBoundFor(uint32_t seed) {
  return (seed & 1u) != 0 ? Milliseconds(400) : Duration{0};
}

// True when seeds 1, 2 and 3, passed through `derive`, cover both bounds.
template <typename Derive>
constexpr bool RunsBothBounds(Derive derive) {
  bool without = false;
  bool with = false;
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    (LatenessBoundFor(derive(seed)) == 0 ? without : with) = true;
  }
  return without && with;
}

inline EngineOptions IngestOptionsWith(Duration lateness_bound) {
  EngineOptions options;
  options.ingest.lateness_bound = lateness_bound;
  return options;
}

}  // namespace eslev

#endif  // ESLEV_TESTS_PROPERTY_LATENESS_DRAW_H_
