/**
 * @file
 * A small dependency-free command-line argument parser for the
 * dstrain CLI and the bench binaries.
 *
 * Supported syntax: `--flag`, `--key value`, `--key=value`, and bare
 * positional arguments. Unknown options are an error (catching typos
 * early); every option is declared with a help string so `--help`
 * output stays in sync with the code.
 */

#ifndef DSTRAIN_UTIL_ARGS_HH
#define DSTRAIN_UTIL_ARGS_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dstrain {

/**
 * Declarative argument parser.
 *
 * @code
 *   ArgParser args("dstrain", "simulate distributed LLM training");
 *   args.addOption("nodes", "1", "number of compute nodes");
 *   args.addFlag("csv", "emit CSV instead of tables");
 *   if (!args.parse(argc, argv)) return 1;   // help or error printed
 *   int nodes = args.getInt("nodes");
 * @endcode
 */
class ArgParser
{
  public:
    /** @param program binary name; @param summary one-line help. */
    ArgParser(std::string program, std::string summary);

    /** Declare a value option with a default and help text. */
    void addOption(const std::string &name,
                   const std::string &default_value,
                   const std::string &help);

    /** Declare a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv.
     * @return false when parsing failed or --help was requested (a
     *         message has been printed either way).
     */
    bool parse(int argc, const char *const *argv);

    /** The value of a declared option (default if not given). */
    const std::string &get(const std::string &name) const;

    /** get() converted to int; fatal() on malformed or out-of-range
     * input. */
    int getInt(const std::string &name) const;

    /** get() converted to double; fatal() on malformed input. */
    double getDouble(const std::string &name) const;

    /** Was a declared flag present? */
    bool getFlag(const std::string &name) const;

    /** Was the option explicitly provided on the command line? */
    bool provided(const std::string &name) const;

    /** Bare (non-option) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The rendered --help text. */
    std::string helpText() const;

  private:
    struct Option {
        std::string default_value;
        std::string help;
        bool is_flag = false;
    };

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
    std::vector<std::string> declaration_order_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace dstrain

#endif // DSTRAIN_UTIL_ARGS_HH
