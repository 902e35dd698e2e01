#include "report/experiment.hh"

#include <algorithm>
#include <iostream>

#include "support/logging.hh"

namespace capo::report {

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment experiment)
{
    CAPO_ASSERT(!experiment.name.empty(),
                "experiment registered without a name");
    CAPO_ASSERT(find(experiment.name) == nullptr,
                "duplicate experiment registration");
    experiments_.push_back(std::move(experiment));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    for (const auto &experiment : experiments_) {
        if (experiment.name == name)
            return &experiment;
    }
    return nullptr;
}

std::vector<const Experiment *>
ExperimentRegistry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &experiment : experiments_)
        out.push_back(&experiment);
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  return a->name < b->name;
              });
    return out;
}

RegisterExperiment::RegisterExperiment(Experiment experiment)
{
    ExperimentRegistry::instance().add(std::move(experiment));
}

support::Flags
standardFlags(const std::string &description)
{
    support::Flags flags(description);
    flags.addBool("full", false,
                  "use the paper's full methodology (10 invocations, "
                  "5 iterations) instead of the quick configuration");
    flags.addInt("invocations", 0,
                 "override the number of invocations (0 = preset)");
    flags.addInt("iterations", 0,
                 "override the number of iterations (0 = preset)");
    flags.addInt("seed", 0x5eed, "base random seed");
    flags.addInt("jobs", 1,
                 "cells/invocations to run concurrently (0 = all "
                 "hardware threads); results are identical for any "
                 "value");
    flags.addAlias("j", "jobs");
    flags.addString("artifacts", "",
                    "directory for result-table artifacts (empty = "
                    "print only); tables land as <experiment>/<table>"
                    ".csv");
    flags.addBool("jsonl", false,
                  "also emit result tables as JSON-lines next to the "
                  "CSVs");
    return flags;
}

harness::ExperimentOptions
optionsFromFlags(const support::Flags &flags, int quick_invocations,
                 int quick_iterations)
{
    harness::ExperimentOptions options;
    if (flags.getBool("full")) {
        options.invocations = 10;
        options.iterations = 5;
    } else {
        options.invocations = quick_invocations;
        options.iterations = quick_iterations;
    }
    if (flags.getInt("invocations") > 0)
        options.invocations = static_cast<int>(flags.getInt("invocations"));
    if (flags.getInt("iterations") > 0)
        options.iterations = static_cast<int>(flags.getInt("iterations"));
    options.base_seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    options.jobs = static_cast<int>(flags.getInt("jobs"));
    return options;
}

namespace {

/** Flush the store's tables through the sink as
 *  <experiment>/<table>.csv (plus .jsonl on request). */
void
flushStore(const Experiment &experiment, const ResultStore &store,
           ArtifactSink &sink, bool jsonl)
{
    for (const auto &name : store.names()) {
        const ResultTable *table = store.find(name);
        const std::string base = experiment.name + "/" + name;
        sink.writeTable(base + formatSuffix(Format::Csv), *table,
                        Format::Csv);
        if (jsonl) {
            sink.writeTable(base + formatSuffix(Format::Jsonl), *table,
                            Format::Jsonl);
        }
    }
}

int
runParsed(const Experiment &experiment, support::Flags &flags,
          ArtifactSink &sink, ResultStore &store)
{
    ExperimentContext context{
        experiment, flags,
        optionsFromFlags(flags, experiment.quick_invocations,
                         experiment.quick_iterations),
        sink, store};
    return experiment.run(context);
}

} // namespace

int
runRegistered(const Experiment &experiment,
              const std::vector<std::string> &args, ArtifactSink &sink,
              ResultStore &store)
{
    auto flags = standardFlags(experiment.description);
    if (experiment.add_flags)
        experiment.add_flags(flags);
    std::vector<const char *> argv = {experiment.name.c_str()};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    flags.parse(static_cast<int>(argv.size()), argv.data());
    return runParsed(experiment, flags, sink, store);
}

int
runExperimentMain(const std::string &name, int argc, char **argv)
{
    const Experiment *experiment =
        ExperimentRegistry::instance().find(name);
    if (experiment == nullptr) {
        std::cerr << "unknown experiment '" << name
                  << "' (see capo-bench --list)\n";
        return 2;
    }

    auto flags = standardFlags(experiment->description);
    if (experiment->add_flags)
        experiment->add_flags(flags);
    flags.parse(argc, argv);

    std::cout << "# " << experiment->title << "\n# (reproduces "
              << experiment->paper_ref
              << " of 'Rethinking Java Performance Analysis', "
                 "ASPLOS'25)\n\n";

    const std::string artifact_dir = flags.getString("artifacts");
    ArtifactSink sink(artifact_dir.empty() ? "." : artifact_dir);
    ResultStore store;
    const int code = runParsed(*experiment, flags, sink, store);

    if (!artifact_dir.empty()) {
        flushStore(*experiment, store, sink, flags.getBool("jsonl"));
        std::size_t landed = 0;
        for (const auto &record : sink.artifacts())
            landed += record.ok ? 1 : 0;
        std::cerr << "  artifacts: " << landed << "/"
                  << sink.artifacts().size() << " under "
                  << artifact_dir << "/" << experiment->name << "\n";
    }
    // Quarantined artifacts are reported (by the sink) but never
    // flip a successful experiment's exit code: losing a report file
    // must not look like losing the experiment.
    return code;
}

int
benchMain(int argc, char **argv)
{
    const auto usage = [] {
        std::cerr
            << "usage: capo-bench <command>\n"
               "  list | --list      list registered experiments\n"
               "                     (--list: bare names for scripts)\n"
               "  run <name> [args]  run one experiment with its own\n"
               "                     flags (run <name> --help)\n";
        return 2;
    };
    if (argc < 2)
        return usage();

    const std::string command = argv[1];
    const auto &registry = ExperimentRegistry::instance();

    if (command == "--list") {
        for (const auto *experiment : registry.all())
            std::cout << experiment->name << "\n";
        return 0;
    }
    if (command == "list") {
        for (const auto *experiment : registry.all()) {
            std::cout << experiment->name << "\t"
                      << experiment->paper_ref << "\t"
                      << experiment->title << "\n";
        }
        return 0;
    }
    if (command == "run") {
        if (argc < 3) {
            std::cerr << "capo-bench run: missing experiment name\n";
            return usage();
        }
        const std::string name = argv[2];
        // Shift argv so the experiment sees its own name as argv[0]
        // and only its own flags after it.
        return runExperimentMain(name, argc - 2, argv + 2);
    }
    std::cerr << "capo-bench: unknown command '" << command << "'\n";
    return usage();
}

} // namespace capo::report
