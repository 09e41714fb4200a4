// The seed's eager (deep-copy-per-candidate) synchronizer: the equivalence
// oracle of the delta enumeration pipeline.  Part of the test/benchmark-only
// eve_oracles library; the production library never links it.

#ifndef EVE_ORACLES_SYNCHRONIZER_EAGER_H_
#define EVE_ORACLES_SYNCHRONIZER_EAGER_H_

#include "synch/synchronizer.h"

namespace eve {
namespace internal {

/// Generates the legal rewritings of `view` under `change` with the seed's
/// eager strategies.  Ungoverned; SynchronizationResult::candidates_considered
/// stays 0.  ViewSynchronizer::Synchronize must match it byte for byte.
Result<SynchronizationResult> SynchronizeEager(const MetaKnowledgeBase& mkb,
                                               const SynchronizerOptions& options,
                                               const ViewDefinition& view,
                                               const SchemaChange& change);

}  // namespace internal
}  // namespace eve

#endif  // EVE_ORACLES_SYNCHRONIZER_EAGER_H_
