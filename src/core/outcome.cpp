#include "core/outcome.hpp"

#include <algorithm>
#include <vector>

#include "sim/hash.hpp"

namespace gridfed::core {

std::uint64_t outcome_digest(std::span<const JobOutcome> outcomes) {
  std::vector<const JobOutcome*> sorted;
  sorted.reserve(outcomes.size());
  for (const JobOutcome& o : outcomes) sorted.push_back(&o);
  std::sort(sorted.begin(), sorted.end(),
            [](const JobOutcome* a, const JobOutcome* b) {
              return a->job.id < b->job.id;
            });
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (const JobOutcome* o : sorted) {
    h = sim::fnv1a_mix(h, o->job.id);
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->accepted));
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->executed_on));
    h = sim::fnv1a_mix(h, o->start);
    h = sim::fnv1a_mix(h, o->completion);
    h = sim::fnv1a_mix(h, o->cost);
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->negotiations));
    h = sim::fnv1a_mix(h, o->messages);
  }
  return h;
}

}  // namespace gridfed::core
