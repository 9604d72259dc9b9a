// Delta-debugging reduction: the reduced finding must still reproduce the
// bug against the reference engine and must not be larger than the input.
#include <memory>

#include "src/minidb/database.h"
#include "src/pqs/campaign.h"
#include "src/pqs/reducer.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

void TestReductionKeepsReproducing() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 200;
  options.queries_per_database = 25;
  options.reduce = false;  // get the raw finding
  BugHuntResult hunt = HuntBug(BugId::kPartialIndexIsNotInference, options);
  CHECK_MSG(hunt.detected, "bug not detected within the test budget");
  if (!hunt.detected) return;

  EngineFactory buggy = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex,
        BugConfig::Single(BugId::kPartialIndexIsNotInference));
  };
  EngineFactory reference = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };

  CHECK(FindingReproduces(buggy, hunt.reduced, &reference));
  Finding reduced = ReduceFinding(buggy, hunt.reduced, &reference);
  CHECK(FindingReproduces(buggy, reduced, &reference));
  CHECK(reduced.statements.size() <= hunt.reduced.statements.size() + 1);
  CHECK(reduced.statements.size() >= 2);  // at least CREATE TABLE + query
  CHECK(reduced.oracle == hunt.reduced.oracle);

  // A clean engine must NOT reproduce the reduced finding against itself.
  CHECK(!FindingReproduces(reference, reduced, &reference));
  // Without a reference engine nothing reproduces.
  CHECK(!FindingReproduces(buggy, reduced, nullptr));
}

void TestReductionShrinksTypicalFinding() {
  CampaignOptions options;
  options.seed = 99;
  options.databases_per_bug = 200;
  options.queries_per_database = 25;
  options.reduce = true;
  BugHuntResult hunt = HuntBug(BugId::kUniqueNullLost, options);
  CHECK_MSG(hunt.detected, "bug not detected within the test budget");
  if (!hunt.detected) return;
  // Paper Figure 2: reduced cases average ~3.7 statements, max 8. Allow
  // slack but insist on real reduction.
  CHECK_MSG(hunt.reduced.statements.size() <= 10,
            "reduced to %zu statements", hunt.reduced.statements.size());
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestReductionKeepsReproducing();
  pqs::TestReductionShrinksTypicalFinding();
  return pqs::test::Summary("test_reducer");
}
