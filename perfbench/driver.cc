/**
 * @file
 * perfbench_driver entry point. Subcommands (all options required
 * unless a default is shown):
 *
 *   campaign  --mode full|sampled --jobs J --workloads W,.. --platforms P,..
 *             --csv OUT --predictions OUT
 *       exp::CampaignRunner::runReport over the grid, then one
 *       models::Mosmodel fit per pair. Untraced.
 *   cells     --mode full|sampled --jobs J --workloads W,.. --platforms P,..
 *             --cells OUT --spans OUT --fits OUT --predictions OUT
 *       The same cells driven directly through cpu::System (and the
 *       sampling layer) and the same fits, spanned per call, then
 *       Mosmodel::predict over every row in one batched span.
 *   serve     --serve-bin B --dataset CSV --socket PATH --queries F
 *             --warm-seconds S --sessions K --rtt OUT --answers OUT
 *             --log OUT [--spans OUT]
 *       Starts mosaic_serve and drives one closed-loop client.
 *   serve-layers --dataset CSV --queries F --jobs J --cold P:W,..
 *             --spans OUT --fits OUT --cells OUT
 *       The serve workload's inputs through each layer in process.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "cpu/platform.hh"
#include "support/str.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
    std::exit(2);
}

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            die("expected --option value, got '" + key + "'");
        values_[key.substr(2)] = argv[i + 1];
    }
}

const std::string &
Args::get(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        die("missing --" + key);
    return it->second;
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
Args::number(const std::string &key) const
{
    const std::string &text = get(key);
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        text[0] == '-')
        die("--" + key + " needs a non-negative integer, got '" + text +
            "'");
    return value;
}

double
Args::real(const std::string &key) const
{
    const std::string &text = get(key);
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value < 0)
        die("--" + key + " needs a non-negative number, got '" + text +
            "'");
    return value;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    if (!out)
        die("cannot write " + path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

mosaic::exp::CampaignConfig
campaignConfig(const Args &args)
{
    const std::string &mode = args.get("mode");
    if (mode != "full" && mode != "sampled")
        die("--mode must be full or sampled, got '" + mode + "'");
    mosaic::exp::CampaignConfig config;
    config.workloads = mosaic::splitString(args.get("workloads"), ',');
    for (const auto &name : mosaic::splitString(args.get("platforms"), ','))
        config.platforms.push_back(mosaic::cpu::platformByName(name));
    config.jobs = static_cast<unsigned>(args.number("jobs"));
    config.verbose = false;
    if (mode == "sampled")
        config.sampling.mode = mosaic::sampling::SampleMode::Interval;
    return config;
}

Tracer::Tracer(unsigned lanes) : origin_(Clock::now()), lanes_(lanes) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Tracer::Span::Span(Tracer &tracer, unsigned lane, const char *name,
                   std::uint64_t id, std::uint64_t work)
    : tracer_(tracer), lane_(lane)
{
    Lane &owner = tracer_.lanes_.at(lane_);
    const std::int64_t parent =
        owner.open.empty() ? -1
                           : static_cast<std::int64_t>(owner.open.back());
    index_ = owner.records.size();
    owner.records.push_back(
        {name, id, parent, tracer_.nowNs(), -1, work});
    owner.open.push_back(index_);
}

Tracer::Span::~Span()
{
    Lane &owner = tracer_.lanes_[lane_];
    owner.records[index_].endNs = tracer_.nowNs();
    owner.open.pop_back();
}

void
Tracer::Span::setWork(std::uint64_t work)
{
    tracer_.lanes_[lane_].records[index_].work = work;
}

void
Tracer::write(const std::string &path) const
{
    std::string out = "span,parent,name,id,begin_ns,end_ns,work\n";
    char buf[256];
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        const auto &records = lanes_[lane].records;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            std::string parent;
            if (r.parent >= 0)
                parent = std::to_string(lane) + ":" +
                         std::to_string(r.parent);
            std::snprintf(buf, sizeof buf, "%zu:%zu,%s,%s,%llu,%lld,%lld,%llu\n",
                          lane, i, parent.c_str(), r.name,
                          static_cast<unsigned long long>(r.id),
                          static_cast<long long>(r.beginNs),
                          static_cast<long long>(r.endNs),
                          static_cast<unsigned long long>(r.work));
            out += buf;
        }
    }
    writeFile(path, out);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        die("usage: perfbench_driver campaign|cells|serve|serve-layers "
            "--option value ...");
    const std::string command = argv[1];
    Args args(argc, argv, 2);
    if (command == "campaign")
        return runCampaign(args);
    if (command == "cells")
        return runCells(args);
    if (command == "serve")
        return runServe(args);
    if (command == "serve-layers")
        return runServeLayers(args);
    die("unknown subcommand '" + command + "'");
}
