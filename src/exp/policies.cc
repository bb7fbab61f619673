#include "exp/policies.hh"

#include <cctype>
#include <memory>
#include <stdexcept>

#include "policy/coscale_policy.hh"
#include "policy/multiscale.hh"
#include "policy/offline.hh"
#include "policy/power_cap.hh"
#include "policy/simple_policies.hh"
#include "policy/uncoordinated.hh"

namespace coscale {
namespace exp {

namespace {

std::string
canonical(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == ' ')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // namespace

const std::vector<std::string> &
paperPolicyNames()
{
    static const std::vector<std::string> names = {
        "MemScale",  "CPUOnly", "Uncoordinated",
        "Semi-coordinated", "CoScale", "Offline",
    };
    return names;
}

const std::vector<std::string> &
knownPolicyNames()
{
    static const std::vector<std::string> names = {
        "baseline",  "reactive",         "memscale",
        "cpuonly",   "uncoordinated",    "semi",
        "semi-alt",  "coscale",          "coscale-dvfs",
        "coscale-chipwide", "offline",   "multiscale",
        "powercap",  "fastcap",
    };
    return names;
}

PolicyFactory
policyFactoryByName(const std::string &name, int cores, double gamma,
                    double capWatts)
{
    const std::string p = canonical(name);
    if (p == "baseline")
        return [] { return std::make_unique<BaselinePolicy>(); };
    if (p == "reactive") {
        return [cores, gamma] {
            return std::make_unique<ReactivePolicy>(cores, gamma);
        };
    }
    if (p == "memscale") {
        return [cores, gamma] {
            return std::make_unique<MemScalePolicy>(cores, gamma);
        };
    }
    if (p == "cpuonly") {
        return [cores, gamma] {
            return std::make_unique<CpuOnlyPolicy>(cores, gamma);
        };
    }
    if (p == "uncoordinated") {
        return [cores, gamma] {
            return std::make_unique<UncoordinatedPolicy>(cores, gamma);
        };
    }
    if (p == "semi" || p == "semicoordinated" || p == "semialt") {
        auto phase = p == "semialt" ? SemiCoordinatedPolicy::Phase::Alternate
                                    : SemiCoordinatedPolicy::Phase::InPhase;
        return [cores, gamma, phase] {
            return std::make_unique<SemiCoordinatedPolicy>(cores, gamma,
                                                           phase);
        };
    }
    if (p == "coscale" || p == "coscaledvfs" || p == "coscalechipwide") {
        CoScaleOptions o;
        if (p == "coscaledvfs") {
            // Ablation baseline for the generalized knob walk: identical
            // controller, way-partition dimension held.
            o.useWayPartitioning = false;
            o.nameOverride = "CoScale-DVFS";
        } else if (p == "coscalechipwide") {
            o.chipWideCpuDvfs = true;
            o.nameOverride = "CoScale-chipwide";
        }
        return [cores, gamma, o] {
            return std::make_unique<CoScalePolicy>(cores, gamma, o);
        };
    }
    if (p == "offline") {
        return [cores, gamma] {
            return std::make_unique<OfflinePolicy>(cores, gamma);
        };
    }
    if (p == "multiscale") {
        return [cores, gamma] {
            return std::make_unique<MultiScalePolicy>(cores, gamma);
        };
    }
    if (p == "powercap" || p == "fastcap") {
        // FastCap is PowerCap that spends leftover headroom.
        bool spend_headroom = p == "fastcap";
        return [capWatts, spend_headroom] {
            return std::make_unique<PowerCapPolicy>(capWatts,
                                                    spend_headroom);
        };
    }
    return {};
}

PolicyFactory
requirePolicyFactory(const std::string &name, int cores, double gamma,
                     double capWatts)
{
    PolicyFactory f = policyFactoryByName(name, cores, gamma, capWatts);
    if (f)
        return f;
    std::string msg = "unknown policy '" + name + "'; valid names: ";
    const std::vector<std::string> &known = knownPolicyNames();
    for (size_t i = 0; i < known.size(); ++i) {
        if (i)
            msg += ", ";
        msg += known[i];
    }
    throw std::invalid_argument(msg);
}

} // namespace exp
} // namespace coscale
