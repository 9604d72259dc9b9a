// Delta-debugging reduction of findings (paper §3.5, Figure 2).
//
// A raw finding carries every statement that built the database state plus
// the triggering statement. Reduction first normalizes multi-row INSERTs
// into single-row ones (statement-level granularity is what Figure 2
// measures), then greedily removes statement chunks while the finding still
// reproduces. Reproduction is checked differentially: the reduced script
// must still make the buggy engine disagree with a clean reference engine
// (or crash/error where the reference does not). One buggy and one
// reference connection serve all probes of a reduction — engines
// supporting Connection::Reset() are recycled in place instead of being
// re-constructed per ddmin probe.
#ifndef PQS_SRC_PQS_REDUCER_H_
#define PQS_SRC_PQS_REDUCER_H_

#include "src/engine/connection.h"
#include "src/pqs/oracles.h"

namespace pqs {

// Returns a reduced copy of `finding`. `buggy` must produce engines
// exhibiting the bug; `reference` produces clean engines for the
// differential check. A null `reference` reproduces nothing, so the
// finding comes back unreduced. The input finding is not modified.
Finding ReduceFinding(const EngineFactory& buggy, const Finding& finding,
                      const EngineFactory* reference);

// True if replaying `finding`'s statements still triggers its oracle, using
// the same decision procedure the reducer uses (false for a null
// `reference`). Exposed for tests.
bool FindingReproduces(const EngineFactory& buggy, const Finding& finding,
                       const EngineFactory* reference);

}  // namespace pqs

#endif  // PQS_SRC_PQS_REDUCER_H_
