/**
 * @file
 * Implementation of FaultPlan parsing, validation and rendering.
 */

#include "fault/fault_plan.hh"

#include <cmath>
#include <cstdlib>

#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

namespace {

/** The link-class names accepted as degrade/flap targets. */
const char *const kClassTargets[] = {
    "roce", "nvlink", "pcie-gpu", "pcie-nic", "pcie-nvme",
    "xgmi", "dram", "nvme-media", "iod",
};

/** Parse "<prefix><integer>"; returns false on any mismatch. */
bool
parseIndexed(std::string_view text, std::string_view prefix, int *out)
{
    if (!startsWith(text, prefix))
        return false;
    const std::string digits(text.substr(prefix.size()));
    if (digits.empty())
        return false;
    char *end = nullptr;
    const long v = std::strtol(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0)
        return false;
    *out = static_cast<int>(v);
    return true;
}

/** Is @p name one of the link-class target spellings? */
bool
isClassTarget(std::string_view name)
{
    for (const char *cls : kClassTargets)
        if (name == cls)
            return true;
    return false;
}

/** Syntax check of a target for @p kind; empty string = OK. */
std::string
targetSyntaxError(FaultKind kind, const std::string &target)
{
    int idx = 0;
    switch (kind) {
      case FaultKind::LinkDegrade:
      case FaultKind::LinkFlap:
      case FaultKind::LinkDown: {
        // <class>[/n<k>|/rack<k>] | rail<r> | sw<j>
        if (parseIndexed(target, "rail", &idx) ||
            parseIndexed(target, "sw", &idx)) {
            return "";
        }
        const auto parts = split(target, '/');
        if (parts.empty() || parts.size() > 2 ||
            !isClassTarget(parts[0])) {
            return "expected a link class "
                   "(roce, nvlink, pcie-gpu, pcie-nic, pcie-nvme, "
                   "xgmi, dram, nvme-media, iod) optionally scoped "
                   "'/n<k>' or '/rack<k>', a rail 'rail<r>', or a "
                   "switch 'sw<j>'";
        }
        if (parts.size() == 2 && !parseIndexed(parts[1], "n", &idx) &&
            !parseIndexed(parts[1], "rack", &idx)) {
            return "bad scope '" + parts[1] +
                   "' (expected n<k> or rack<k>)";
        }
        return "";
      }
      case FaultKind::NicFailover: {
        // n<k>.nic<j>
        const auto parts = split(target, '.');
        if (parts.size() != 2 || !parseIndexed(parts[0], "n", &idx) ||
            !parseIndexed(parts[1], "nic", &idx)) {
            return "expected n<k>.nic<j>";
        }
        return "";
      }
      case FaultKind::GpuStraggler:
        if (!parseIndexed(target, "rank", &idx))
            return "expected rank<k>";
        return "";
      case FaultKind::NvmeDegrade:
        if (!parseIndexed(target, "n", &idx))
            return "expected n<k>";
        return "";
      case FaultKind::GpuDown:
        if (!parseIndexed(target, "rank", &idx))
            return "expected rank<k>";
        return "";
      case FaultKind::NodeDown:
        if (!parseIndexed(target, "n", &idx))
            return "expected n<k>";
        return "";
    }
    return "unknown fault kind";
}

/** Does this kind use the fraction field? */
bool
usesFraction(FaultKind kind)
{
    return kind == FaultKind::LinkDegrade ||
           kind == FaultKind::GpuStraggler ||
           kind == FaultKind::NvmeDegrade;
}

/** Parse a kind spelling; returns false when unknown. */
bool
parseKind(std::string_view name, FaultKind *out)
{
    if (name == "degrade")
        *out = FaultKind::LinkDegrade;
    else if (name == "flap")
        *out = FaultKind::LinkFlap;
    else if (name == "linkdown")
        *out = FaultKind::LinkDown;
    else if (name == "nicdown")
        *out = FaultKind::NicFailover;
    else if (name == "straggler")
        *out = FaultKind::GpuStraggler;
    else if (name == "nvme")
        *out = FaultKind::NvmeDegrade;
    else if (name == "gpudown")
        *out = FaultKind::GpuDown;
    else if (name == "nodedown")
        *out = FaultKind::NodeDown;
    else
        return false;
    return true;
}

/** Parse a finite nonnegative double; returns false on any mismatch.
 * Rejecting non-finite values matters: a NaN fraction would slip
 * through the (0, 1] range checks (every comparison is false). */
bool
parseNumber(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v) || v < 0.0)
        return false;
    *out = v;
    return true;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDegrade:
        return "degrade";
      case FaultKind::LinkFlap:
        return "flap";
      case FaultKind::LinkDown:
        return "linkdown";
      case FaultKind::NicFailover:
        return "nicdown";
      case FaultKind::GpuStraggler:
        return "straggler";
      case FaultKind::NvmeDegrade:
        return "nvme";
      case FaultKind::GpuDown:
        return "gpudown";
      case FaultKind::NodeDown:
        return "nodedown";
    }
    panic("unknown FaultKind %d", static_cast<int>(kind));
}

bool
isHardFault(FaultKind kind)
{
    return kind == FaultKind::GpuDown || kind == FaultKind::NodeDown;
}

bool
hasHardFaults(const FaultPlan &plan)
{
    for (const FaultEvent &ev : plan.events)
        if (isHardFault(ev.kind))
            return true;
    return false;
}

std::string
FaultEvent::str() const
{
    std::string out = csprintf("%s@%g", faultKindName(kind), begin);
    if (duration > 0.0)
        out += csprintf("+%g", duration);
    out += ":" + target;
    if (usesFraction(kind))
        out += csprintf(":%g", fraction);
    return out;
}

std::vector<ConfigError>
FaultPlan::validate() const
{
    std::vector<ConfigError> errors;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FaultEvent &ev = events[i];
        const std::string field = csprintf("faults.events[%zu]", i);
        if (ev.begin < 0.0)
            errors.push_back({field, "begin time must be >= 0"});
        if (ev.duration < 0.0)
            errors.push_back({field, "duration must be >= 0"});
        if (ev.begin + ev.duration > kSimHorizon)
            errors.push_back(
                {field, csprintf("window must end by %g s, the "
                                 "simulated-time horizon",
                                 kSimHorizon)});
        if ((isHardFault(ev.kind) || ev.kind == FaultKind::LinkDown) &&
            ev.duration > 0.0) {
            errors.push_back(
                {field, csprintf("%s is permanent and takes no "
                                 "'+<duration>'",
                                 faultKindName(ev.kind))});
        }
        // A near-zero fraction stretches the faulted work past any
        // window worth simulating; flap and linkdown model dead links.
        if (usesFraction(ev.kind) &&
            !(ev.fraction >= 1e-3 && ev.fraction <= 1.0)) {
            errors.push_back(
                {field, csprintf("fraction %g outside [0.001, 1]",
                                 ev.fraction)});
        }
        const std::string terr = targetSyntaxError(ev.kind, ev.target);
        if (!terr.empty())
            errors.push_back({field, "target '" + ev.target +
                                         "': " + terr});
    }
    return errors;
}

std::string
FaultPlan::str() const
{
    std::vector<std::string> parts;
    parts.reserve(events.size());
    for (const FaultEvent &ev : events)
        parts.push_back(ev.str());
    return join(parts, ",");
}

FaultPlan
parseFaultSpec(const std::string &spec, std::vector<ConfigError> *errors)
{
    DSTRAIN_ASSERT(errors != nullptr, "parseFaultSpec needs an error sink");
    FaultPlan plan;
    std::size_t pos = 0;
    std::size_t ordinal = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string raw = spec.substr(pos, comma - pos);
        // Character offset of the trimmed item within the spec, so an
        // error in a long comma-joined spec is locatable.
        const std::size_t lead = raw.find_first_not_of(" \t\r\n");
        const std::size_t offset =
            pos + (lead == std::string::npos ? 0 : lead);
        pos = comma + 1;
        const std::string item = trim(raw);
        if (item.empty()) {
            if (pos > spec.size())
                break;
            continue;
        }
        const std::size_t idx = ordinal++;
        const std::string field =
            csprintf("faults[%zu] at char %zu ('%s')", idx, offset,
                     item.c_str());

        // <kind>@<begin>[+<duration>]:<target>[:<fraction>]
        const auto at = item.find('@');
        if (at == std::string::npos) {
            errors->push_back({field, "missing '@<begin>'"});
            continue;
        }
        FaultEvent ev;
        if (!parseKind(item.substr(0, at), &ev.kind)) {
            errors->push_back(
                {field, "unknown kind '" + item.substr(0, at) +
                            "' (degrade, flap, linkdown, nicdown, "
                            "straggler, nvme, gpudown, nodedown)"});
            continue;
        }
        const auto colon = item.find(':', at);
        if (colon == std::string::npos) {
            errors->push_back({field, "missing ':<target>'"});
            continue;
        }

        std::string when = item.substr(at + 1, colon - at - 1);
        const auto plus = when.find('+');
        std::string dur;
        if (plus != std::string::npos) {
            dur = when.substr(plus + 1);
            when = when.substr(0, plus);
        }
        if (!parseNumber(when, &ev.begin)) {
            errors->push_back({field, "bad begin time '" + when + "'"});
            continue;
        }
        if (plus != std::string::npos &&
            !parseNumber(dur, &ev.duration)) {
            errors->push_back({field, "bad duration '" + dur + "'"});
            continue;
        }

        const auto rest = split(item.substr(colon + 1), ':');
        ev.target = rest.empty() ? "" : rest[0];
        if (rest.size() > 2) {
            errors->push_back({field, "too many ':' fields"});
            continue;
        }
        if (rest.size() == 2) {
            if (!usesFraction(ev.kind)) {
                errors->push_back(
                    {field, csprintf("%s takes no fraction",
                                     faultKindName(ev.kind))});
                continue;
            }
            if (!parseNumber(rest[1], &ev.fraction)) {
                errors->push_back(
                    {field, "bad fraction '" + rest[1] + "'"});
                continue;
            }
        }
        plan.events.push_back(std::move(ev));
    }

    // Structural validation on what parsed, so bad ranges and bad
    // target syntax surface from the same call.
    for (ConfigError &e : plan.validate())
        errors->push_back(std::move(e));
    return plan;
}

} // namespace dstrain
