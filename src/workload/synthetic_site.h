#ifndef DYNAPROX_WORKLOAD_SYNTHETIC_SITE_H_
#define DYNAPROX_WORKLOAD_SYNTHETIC_SITE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analytical/model.h"
#include "appserver/script_registry.h"
#include "common/rng.h"
#include "storage/table.h"

namespace dynaprox::workload {

// Builds the synthetic dynamic site the Section 6 experiments run against:
// `num_pages` scripts, each page made of `fragments_per_page` fragments of
// exactly `fragment_size` bytes, a `cacheability` fraction of which are
// tagged cacheable (assigned the same way as analytical::SiteSpec::Uniform
// so the analytical and experimental series are directly comparable).
//
// Hit-ratio control: the paper's experiments sweep the hit ratio h as an
// independent variable. The site realizes a target h by versioning each
// cacheable fragment: on every access the fragment's version is bumped
// with probability (1 - h). A bumped version changes the fragmentID, which
// forces a directory miss; an unbumped one hits (after first touch). The
// long-run hit fraction therefore converges to h.
//
// Thread-safe: TcpServer's connection threads run the page script
// concurrently, so the version/RNG state is guarded by one mutex. Fragment bodies read the repository, which is
// internally synchronized — generators may run on block-pool threads.
struct SyntheticSiteOptions {
  // Size of a shared fragment pool. 0 gives every page its own fragments
  // (the closed forms' uniform site). A positive pool realizes the
  // model's many-to-many page<->fragment mapping ("a fragment can be
  // associated with many pages"): page i's j-th slot uses pool fragment
  // (i * fragments_per_page + j) % pool, so smaller pools mean more
  // cross-page sharing.
  int fragment_pool = 0;
};

class SyntheticSite {
 public:
  // Registers scripts under "/page" (query parameter id=0..num_pages-1)
  // and stores fragment payloads in `repository` table "content".
  SyntheticSite(const analytical::ModelParams& params, uint64_t seed,
                storage::ContentRepository* repository,
                appserver::ScriptRegistry* registry,
                SyntheticSiteOptions options = {});

  SyntheticSite(const SyntheticSite&) = delete;
  SyntheticSite& operator=(const SyntheticSite&) = delete;

  const analytical::SiteSpec& spec() const { return spec_; }
  int num_pages() const { return static_cast<int>(spec_.pages.size()); }

  // Accesses (cacheable-fragment uses) and version bumps so far; their
  // complement ratio is the realized upper bound on the hit ratio.
  uint64_t fragment_accesses() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return accesses_;
  }
  uint64_t version_bumps() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return bumps_;
  }

  // Distinct fragment slots (pool size when sharing, pages * fragments
  // otherwise).
  int fragment_slots() const {
    return static_cast<int>(versions_.size());
  }

 private:
  // Pool/slot id backing page `page`'s `index`-th fragment position.
  int SlotFor(int page, int index) const;
  // Exact-size fragment body for `slot` at `version`.
  std::string FragmentBody(int slot, uint64_t version) const;

  Status RunPageScript(appserver::ScriptContext& context);

  analytical::ModelParams params_;
  SyntheticSiteOptions options_;
  analytical::SiteSpec spec_;
  storage::ContentRepository* repository_;
  // Mutable hit-ratio state, shared by every server thread running the
  // page script; state_mu_ guards all four.
  mutable std::mutex state_mu_;
  Rng rng_;
  std::vector<uint64_t> versions_;  // Indexed by slot.
  uint64_t accesses_ = 0;
  uint64_t bumps_ = 0;
};

}  // namespace dynaprox::workload

#endif  // DYNAPROX_WORKLOAD_SYNTHETIC_SITE_H_
