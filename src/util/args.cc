/**
 * @file
 * Implementation of the argument parser.
 */

#include "util/args.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
ArgParser::addOption(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    DSTRAIN_ASSERT(options_.find(name) == options_.end(),
                   "option '--%s' declared twice", name.c_str());
    options_[name] = Option{default_value, help, false};
    declaration_order_.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    DSTRAIN_ASSERT(options_.find(name) == options_.end(),
                   "flag '--%s' declared twice", name.c_str());
    options_[name] = Option{"", help, true};
    declaration_order_.push_back(name);
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(helpText().c_str(), stdout);
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end()) {
            std::fprintf(stderr, "%s: unknown option '--%s'\n%s",
                         program_.c_str(), name.c_str(),
                         helpText().c_str());
            return false;
        }
        if (it->second.is_flag) {
            if (has_value) {
                std::fprintf(stderr,
                             "%s: flag '--%s' takes no value\n",
                             program_.c_str(), name.c_str());
                return false;
            }
            values_[name] = "true";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: option '--%s' needs a value\n",
                             program_.c_str(), name.c_str());
                return false;
            }
            value = argv[++i];
        }
        values_[name] = std::move(value);
    }
    return true;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    auto it = options_.find(name);
    DSTRAIN_ASSERT(it != options_.end(), "undeclared option '--%s'",
                   name.c_str());
    auto given = values_.find(name);
    return given != values_.end() ? given->second
                                  : it->second.default_value;
}

int
ArgParser::getInt(const std::string &name) const
{
    const std::string &raw = get(name);
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0')
        fatal("option '--%s' expects an integer (got '%s')",
              name.c_str(), raw.c_str());
    if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
        fatal("option '--%s' is out of range (got '%s')", name.c_str(),
              raw.c_str());
    return static_cast<int>(value);
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string &raw = get(name);
    char *end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0')
        fatal("option '--%s' expects a number (got '%s')",
              name.c_str(), raw.c_str());
    return value;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    auto it = options_.find(name);
    DSTRAIN_ASSERT(it != options_.end() && it->second.is_flag,
                   "undeclared flag '--%s'", name.c_str());
    return values_.find(name) != values_.end();
}

bool
ArgParser::provided(const std::string &name) const
{
    return values_.find(name) != values_.end();
}

std::string
ArgParser::helpText() const
{
    std::string out =
        csprintf("%s — %s\n\nusage: %s [options]\n\noptions:\n",
                 program_.c_str(), summary_.c_str(), program_.c_str());
    for (const std::string &name : declaration_order_) {
        const Option &opt = options_.at(name);
        if (opt.is_flag) {
            out += csprintf("  --%-18s %s\n", name.c_str(),
                            opt.help.c_str());
        } else {
            out += csprintf("  --%-18s %s (default: %s)\n",
                            (name + " <v>").c_str(), opt.help.c_str(),
                            opt.default_value.c_str());
        }
    }
    out += "  --help               show this message\n";
    return out;
}

} // namespace dstrain
