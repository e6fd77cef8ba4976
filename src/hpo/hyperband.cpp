#include "hpo/hyperband.hpp"

#include "hpo/study_run.hpp"

namespace chpo::hpo {

HalvingOutcome successive_halving(rt::StudySession session, const ml::Dataset& dataset,
                                  const SearchSpace& space, const HalvingOptions& options,
                                  std::shared_ptr<reuse::ResultCache> cache) {
  // Blocking convenience over the HalvingRun pump (see study_run.hpp);
  // service::StudyManager drives the same pump cooperatively instead.
  HalvingRun run(session, dataset, space, options, std::move(cache));
  run_to_exhaustion(session, run);
  run.finish();
  return run.outcome();
}

HyperbandOutcome hyperband(rt::StudySession session, const ml::Dataset& dataset,
                           const SearchSpace& space, const HyperbandOptions& options) {
  HyperbandRun run(session, dataset, space, options);
  run_to_exhaustion(session, run);
  run.finish();
  return run.outcome();
}

}  // namespace chpo::hpo
