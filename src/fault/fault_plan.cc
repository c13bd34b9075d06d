/**
 * @file
 * Implementation of FaultPlan parsing, validation and rendering.
 */

#include "fault/fault_plan.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

namespace {

/** The link-class spellings of link-fault targets. */
constexpr std::pair<std::string_view, LinkClass> kLinkClasses[] = {
    {"roce", LinkClass::Roce},         {"nvlink", LinkClass::NvLink},
    {"pcie-gpu", LinkClass::PcieGpu},   {"pcie-nic", LinkClass::PcieNic},
    {"pcie-nvme", LinkClass::PcieNvme}, {"xgmi", LinkClass::Xgmi},
    {"dram", LinkClass::Dram},         {"nvme-media", LinkClass::NvmeMedia},
    {"iod", LinkClass::IodXbar},
};

/**
 * The target index parser: is @p text "<prefix><digits>"? Sets
 * @p out when it is and the digits fit an int. Digits that do not fit
 * set @p error instead; any other form returns false untouched.
 */
bool
parseIndex(std::string_view text, std::string_view prefix, int *out,
           std::string *error)
{
    if (!startsWith(text, prefix) || text.size() == prefix.size())
        return false;
    const std::string_view digits = text.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string_view::npos)
        return false;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), *out);
    if (ec != std::errc()) {
        *error = "index " + std::string(digits) + " is out of range";
        return false;
    }
    return true;
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

std::optional<FaultTarget>
parseFaultTarget(FaultKind kind, std::string_view text, std::string *error)
{
    using Scope = FaultTarget::Scope;
    error->clear();
    FaultTarget t;
    std::string expected = "unknown fault kind";
    switch (kind) {
      case FaultKind::LinkDegrade:
      case FaultKind::LinkFlap:
      case FaultKind::LinkDown: {
        // <class>[/n<k>|/rack<k>] | rail<r> | sw<j>
        t.scope = Scope::Rail;
        if (parseIndex(text, "rail", &t.index, error))
            return t;
        t.scope = Scope::Switch;
        if (parseIndex(text, "sw", &t.index, error))
            return t;
        t.scope = Scope::Class;
        const std::size_t slash = text.find('/');
        const auto *cls = std::find_if(
            std::begin(kLinkClasses), std::end(kLinkClasses),
            [name = text.substr(0, slash)](const auto &entry) {
                return entry.first == name;
            });
        if (cls == std::end(kLinkClasses)) {
            expected = "expected a link class (roce, nvlink, pcie-gpu, "
                       "pcie-nic, pcie-nvme, xgmi, dram, nvme-media, iod) "
                       "optionally scoped '/n<k>' or '/rack<k>', a rail "
                       "'rail<r>', or a switch 'sw<j>'";
            break;
        }
        t.cls = cls->second;
        if (slash == std::string_view::npos)
            return t;
        const std::string_view scope = text.substr(slash + 1);
        if (parseIndex(scope, "n", &t.node, error) ||
            parseIndex(scope, "rack", &t.rack, error)) {
            return t;
        }
        expected = "bad scope '" + std::string(scope) +
                   "' (expected n<k> or rack<k>)";
        break;
      }
      case FaultKind::NicFailover: {
        t.scope = Scope::Nic;
        const std::size_t dot = text.find('.');
        if (dot != std::string_view::npos &&
            parseIndex(text.substr(0, dot), "n", &t.node, error) &&
            parseIndex(text.substr(dot + 1), "nic", &t.index, error)) {
            return t;
        }
        expected = "expected n<k>.nic<j>";
        break;
      }
      case FaultKind::GpuStraggler:
      case FaultKind::GpuDown:
        t.scope = Scope::Rank;
        if (parseIndex(text, "rank", &t.index, error))
            return t;
        expected = "expected rank<k>";
        break;
      case FaultKind::NvmeDegrade:
      case FaultKind::NodeDown:
        t.scope = Scope::Node;
        if (parseIndex(text, "n", &t.node, error))
            return t;
        expected = "expected n<k>";
        break;
    }
    // An index too large to be one outranks the namespace hint.
    if (error->empty())
        *error = std::move(expected);
    return std::nullopt;
}

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
        std::string terr;
        if (!parseFaultTarget(ev.kind, ev.target, &terr))
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
