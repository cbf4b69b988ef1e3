/**
 * @file
 * perfbench: the repository benchmark. One run executes one workload
 * with one seed, checks every output, and prints a report whose last
 * line is the JSON result object. Normally started through run.py,
 * which builds this program first:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR --out-dir DIR [--scale full|tiny]
 *             [--git-sha SHA] [--source-digest HEX]
 *
 * Inputs and durable state go to a per-run directory under --work-dir,
 * removed at the end; records and traces go to --out-dir.
 *
 * Exit status: 0 when every check passed, 1 when a check failed or the
 * run could not complete, 2 on a usage error.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "fingerprint.hpp"
#include "workload.hpp"

using namespace tigr::perfbench;

namespace {

const std::map<std::string, void (*)(RunContext &)> kWorkloads = {
    {"analytics-skewed", runAnalyticsSkewed},
    {"serve-mixed", runServeMixed},
    {"mutate-durable", runMutateDurable},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload "
                 "analytics-skewed|serve-mixed|mutate-durable --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
                 "[--scale full|tiny] [--git-sha SHA] "
                 "[--source-digest HEX]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &key, const std::string &text)
{
    try {
        std::size_t used = 0;
        const unsigned long long value = std::stoull(text, &used);
        if (used == text.size() && text[0] != '-')
            return value;
    } catch (const std::exception &) {
    }
    usage("invalid --" + key + " '" + text + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("expected --KEY VALUE pairs, got '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char *required :
         {"workload", "seed", "seconds", "trace", "work-dir", "out-dir"}) {
        if (!args.count(required))
            usage(std::string("missing --") + required);
    }
    const auto workload = kWorkloads.find(args["workload"]);
    if (workload == kWorkloads.end())
        usage("unknown workload '" + args["workload"] + "'");

    RunConfig cfg;
    cfg.workload = workload->first;
    cfg.seed = parseCount("seed", args["seed"]);
    cfg.seconds = static_cast<double>(parseCount("seconds", args["seconds"]));
    if (args["trace"] != "0" && args["trace"] != "1")
        usage("--trace takes 0 or 1");
    cfg.trace = args["trace"] == "1";
    const std::string scale = args.count("scale") ? args["scale"] : "full";
    if (scale != "full" && scale != "tiny")
        usage("--scale takes full or tiny");
    cfg.sizes = scale == "tiny" ? Sizes::tiny() : Sizes::full();
    const std::filesystem::path work_root = args["work-dir"];
    const std::filesystem::path out_dir = args["out-dir"];
    BuildIdentity build;
    if (args.count("git-sha"))
        build.gitSha = args["git-sha"];
    if (args.count("source-digest"))
        build.sourceDigest = args["source-digest"];

    const std::string stem =
        cfg.workload + "-seed" + std::to_string(cfg.seed);
    cfg.workDir = work_root / stem;
    std::filesystem::remove_all(cfg.workDir);
    std::filesystem::create_directories(cfg.workDir);
    std::filesystem::create_directories(out_dir);

    pinToLastCpus(2);
    const std::string fingerprint = machineFingerprint(cfg.workDir, build);
    std::cout << "perfbench " << cfg.workload << " seed=" << cfg.seed
              << " seconds=" << cfg.seconds << " trace=" << cfg.trace
              << " scale=" << scale << "\nfingerprint: " << fingerprint
              << std::endl;

    RunContext ctx(cfg);
    try {
        workload->second(ctx);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << cfg.workload
                  << " did not complete: " << e.what() << "\n";
        return 1;
    }
    std::filesystem::remove_all(cfg.workDir);
    ctx.report.set("error_rate", static_cast<double>(ctx.failed) /
                                     static_cast<double>(ctx.attempted));
    for (const std::string &failure : ctx.failures)
        std::cout << "check failed: " << failure << "\n";

    std::map<std::string, double> self_ms;
    if (cfg.trace) {
        const std::filesystem::path trace_path =
            out_dir / (stem + ".trace.json");
        std::ofstream trace(trace_path);
        writeChromeTrace(trace, ctx.tracer.spans());
        self_ms = layerSelfMs(ctx.tracer.spans());
        std::cout << "trace: " << trace_path.string()
                  << "\nlayer self time (ms, traced requests):\n";
        for (const auto &[layer, ms] : self_ms)
            std::cout << "  " << layer << " " << jsonNumber(ms) << "\n";
    }

    const bool correct = ctx.failed == 0;
    const std::string result = ctx.report.resultJson(
        cfg.trace, correct, ctx.attempted, ctx.failed);
    {
        std::ofstream record(out_dir /
                             (stem + (cfg.trace ? "-traced" : "") + ".json"));
        record << "{\"workload\": " << jsonString(cfg.workload)
               << ", \"seed\": " << cfg.seed
               << ", \"seconds\": " << jsonNumber(cfg.seconds)
               << ", \"trace\": " << (cfg.trace ? "true" : "false")
               << ", \"fingerprint\": " << fingerprint
               << ", \"layer_self_ms\": {";
        bool first = true;
        for (const auto &[layer, ms] : self_ms) {
            record << (first ? "" : ", ") << jsonString(layer) << ": "
                   << jsonNumber(ms);
            first = false;
        }
        record << "}, \"result\": " << result << "}\n";
    }
    std::cout << (cfg.trace ? "per-layer" : "end-to-end") << " metrics:\n";
    ctx.report.printTable(std::cout, cfg.trace);
    std::cout << result << std::endl;
    return correct ? 0 : 1;
}
