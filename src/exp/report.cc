#include "exp/report.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.hh"
#include "common/log.hh"

namespace coscale {
namespace exp {

void
writeJsonlReport(const std::vector<RunOutcome> &outcomes,
                 std::ostream &os)
{
    for (const RunOutcome &out : outcomes) {
        if (out.ok) {
            writeJsonReport(out.result,
                            out.hasBaseline ? &out.vsBaseline : nullptr,
                            os);
        } else {
            JsonWriter w(os);
            w.beginObject();
            w.field("index",
                    static_cast<std::uint64_t>(out.index));
            w.field("label", out.label);
            w.field("error", out.error);
            if (out.timedOut)
                w.field("timed_out", true);
            w.endObject();
            os << "\n";
        }
    }
}

std::size_t
appendJsonlReport(const std::vector<RunOutcome> &outcomes,
                  const std::string &path)
{
    if (path.empty())
        return 0;
    std::ofstream os(path, std::ios::app);
    if (!os)
        fatal("cannot open '%s' for JSONL output", path.c_str());
    writeJsonlReport(outcomes, os);
    return outcomes.size();
}

std::size_t
reportFailures(const std::vector<RunOutcome> &outcomes)
{
    std::size_t failed = 0;
    for (const RunOutcome &out : outcomes) {
        if (!out.ok) {
            ++failed;
            std::fprintf(stderr, "[exp] request %zu (%s) failed: %s\n",
                         out.index, out.label.c_str(),
                         out.error.c_str());
        }
    }
    return failed;
}

} // namespace exp
} // namespace coscale
