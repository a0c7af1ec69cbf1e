/**
 * @file
 * Shared pieces of the benchmark driver: command-line options, the
 * span recorder of the traced runs, and the fixed workload settings.
 *
 * The driver prints one JSON summary line per subcommand on stdout and
 * writes bulky results (dataset CSVs, per-cell counters, spans,
 * round-trip samples) to files; run.py derives every metric and check
 * from those, so all of the benchmark's arithmetic lives in one place.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiments/campaign.hh"
#include "models/mosmodel.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** "--key value" options; every option takes exactly one value. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    /** The value of a required option; exits with status 2 if absent. */
    const std::string &get(const std::string &key) const;
    std::string get(const std::string &key,
                    const std::string &fallback) const;
    std::uint64_t number(const std::string &key) const;
    double real(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/** Writes @p text to @p path; exits with status 2 on failure. */
void writeFile(const std::string &path, const std::string &text);

/** Reads @p path whole; exits with status 2 on failure. */
std::string readFile(const std::string &path);

/** Prints a diagnostic to stderr and exits with status 2. */
[[noreturn]] void die(const std::string &message);

/**
 * The campaign configuration both campaign paths use, from --mode
 * (full, or sampled: interval sampling at its default settings),
 * --jobs, --workloads and --platforms (comma lists, in grid order).
 * Everything else, the layout seed included, keeps its default, which
 * is what the committed dataset was made with.
 */
mosaic::exp::CampaignConfig campaignConfig(const Args &args);

/**
 * In-memory span recorder for the traced runs. Each thread records
 * into its own lane (callers pass the lane index), so recording never
 * takes a lock; spans nest by lane, and write() emits them all at the
 * end as CSV rows
 *   span,parent,name,id,begin_ns,end_ns,work
 * where span/parent are run-unique ("lane:index", parent empty for a
 * root), id groups the spans of one cell or request, and work is an
 * optional count (records replayed, calls batched).
 */
class Tracer
{
  public:
    explicit Tracer(unsigned lanes);

    /** RAII span: opens on construction, closes on destruction. */
    class Span
    {
      public:
        Span(Tracer &tracer, unsigned lane, const char *name,
             std::uint64_t id, std::uint64_t work = 0);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        void setWork(std::uint64_t work);

      private:
        Tracer &tracer_;
        unsigned lane_;
        std::size_t index_;
    };

    void write(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        std::uint64_t id;
        std::int64_t parent; ///< index in the same lane, -1 for a root
        std::int64_t beginNs;
        std::int64_t endNs;
        std::uint64_t work;
    };

    struct Lane
    {
        std::vector<Record> records;
        std::vector<std::size_t> open;
    };

    std::int64_t nowNs() const;

    Clock::time_point origin_;
    std::deque<Lane> lanes_;
};

/** Formats a double with all its digits for the JSON summaries. */
std::string num(double value);

struct FitSummary
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

using PairKey = std::pair<std::string, std::string>;

/**
 * Fit Mosmodel on every (platform, workload) pair of @p dataset, in
 * key order, and append one "platform,workload,layout,prediction" row
 * per run to @p predictions. With a tracer, each fit is spanned as
 * "models.fit" (id = pair ordinal) on lane 0 and @p fits gets a
 * "platform,workload,lasso_fits,lasso_iterations" row read from the
 * counters the Lasso solver publishes. @p keep, when set, receives the
 * fitted models.
 */
FitSummary fitPairs(
    const mosaic::exp::Dataset &dataset, std::string &predictions,
    Tracer *tracer, std::string *fits,
    std::map<PairKey, std::unique_ptr<mosaic::models::Mosmodel>> *keep =
        nullptr);

/**
 * Time Mosmodel::predict over every run of @p dataset with its pair's
 * model from @p fitted, in one "models.predict" span on lane 0 whose
 * work is the number of calls. Returns the sum of the predictions, for
 * the caller to print so the calls cannot be optimised away.
 */
double timePredictions(
    const mosaic::exp::Dataset &dataset,
    const std::map<PairKey, std::unique_ptr<mosaic::models::Mosmodel>>
        &fitted,
    Tracer &tracer);

/** Workload label plus the platforms its cells run on. */
using GridRow =
    std::pair<std::string, std::vector<mosaic::cpu::PlatformSpec>>;

/** What driveCells() produced. */
struct CellRun
{
    double prepareSeconds = 0.0;
    double cellSeconds = 0.0;
    std::size_t cells = 0;
    std::size_t cellFailures = 0;
    std::size_t prepareFailures = 0;

    /** One row per successful cell (see kCellsHeader in
     *  campaign_bench.cc). */
    std::string rows;

    /** The successful cells, pairs in key order and layouts in
     *  builder order, as the campaign's dataset holds them. */
    mosaic::exp::Dataset dataset;
};

/**
 * Replay the campaign cells of @p grid without CampaignRunner: each
 * workload is prepared once (trace, layouts, and with sampling the
 * interval signatures and plan), then every (platform, layout) cell
 * runs through Mosalloc + cpu::System (and sampling::extrapolate),
 * @p config.jobs threads wide, each call inside a span on lanes
 * 1..jobs.
 */
CellRun driveCells(const std::vector<GridRow> &grid,
                   const mosaic::exp::CampaignConfig &config,
                   Tracer &tracer);

int runCampaign(const Args &args);
int runCells(const Args &args);
int runServe(const Args &args);
int runServeLayers(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
