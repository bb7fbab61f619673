/**
 * @file
 * Policy factories by name. RunRequests carry a factory rather than a
 * Policy instance because policies hold mutable per-run state (slack
 * ledgers, epoch counters); each engine worker constructs a fresh
 * instance per run so parallel batches stay deterministic.
 */

#ifndef COSCALE_EXP_POLICIES_HH
#define COSCALE_EXP_POLICIES_HH

#include <string>
#include <vector>

#include "sim/runner.hh"

namespace coscale {
namespace exp {

/**
 * The six policies compared in the paper's Figures 8 and 9, in
 * presentation order: MemScale, CPUOnly, Uncoordinated,
 * Semi-coordinated, CoScale, Offline.
 */
const std::vector<std::string> &paperPolicyNames();

/**
 * Every accepted CLI spelling, in the order factories resolve them:
 * baseline, reactive, memscale, cpuonly, uncoordinated, semi,
 * semi-alt, coscale, coscale-dvfs, coscale-chipwide, offline,
 * multiscale, powercap, fastcap.
 */
const std::vector<std::string> &knownPolicyNames();

/**
 * A factory for the named policy, or an empty function for unknown
 * names. Accepts the paper names above plus the CLI spellings from
 * knownPolicyNames(), case-insensitively and ignoring '-', '_' and
 * spaces. @p capWatts only affects powercap and fastcap.
 */
PolicyFactory policyFactoryByName(const std::string &name, int cores,
                                  double gamma,
                                  double capWatts = 120.0);

/**
 * As policyFactoryByName, but rejects unknown names with a
 * std::invalid_argument whose message lists every valid spelling —
 * the entry point CLI front ends should use so a typo produces a
 * helpful error instead of an empty factory.
 */
PolicyFactory requirePolicyFactory(const std::string &name, int cores,
                                   double gamma,
                                   double capWatts = 120.0);

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_POLICIES_HH
