#include "experiments/dataset.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/fault_injector.hh"
#include "support/io_util.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace mosaic::exp
{

models::Sample
toSample(const RunRecord &record)
{
    models::Sample sample;
    sample.layoutName = record.layout;
    sample.r = static_cast<double>(record.result.runtimeCycles);
    sample.h = static_cast<double>(record.result.tlbHitsL2);
    sample.m = static_cast<double>(record.result.tlbMisses);
    sample.c = static_cast<double>(record.result.walkCycles);
    sample.s = static_cast<double>(record.result.swapCycles);
    return sample;
}

void
Dataset::add(RunRecord record)
{
    runs_[{record.platform, record.workload}].push_back(std::move(record));
}

const std::vector<RunRecord> &
Dataset::runs(const std::string &platform,
              const std::string &workload) const
{
    auto it = runs_.find({platform, workload});
    mosaic_assert(it != runs_.end(), "no runs for ", platform, "/",
                  workload);
    return it->second;
}

bool
Dataset::has(const std::string &platform,
             const std::string &workload) const
{
    return runs_.count({platform, workload}) != 0;
}

std::vector<std::string>
Dataset::platforms() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : runs_) {
        if (out.empty() || out.back() != key.first) {
            if (std::find(out.begin(), out.end(), key.first) == out.end())
                out.push_back(key.first);
        }
    }
    return out;
}

std::vector<std::string>
Dataset::workloads() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : runs_) {
        if (std::find(out.begin(), out.end(), key.second) == out.end())
            out.push_back(key.second);
    }
    return out;
}

std::size_t
Dataset::totalRuns() const
{
    std::size_t total = 0;
    for (const auto &[key, value] : runs_)
        total += value.size();
    return total;
}

Result<models::SampleSet>
Dataset::sampleSetResult(const std::string &platform,
                         const std::string &workload) const
{
    if (!has(platform, workload))
        return configError("no runs for " + platform + "/" + workload);
    models::SampleSet set;
    bool got4k = false, got2m = false, got1g = false;
    for (const auto &record : runs(platform, workload)) {
        models::Sample sample = toSample(record);
        if (record.layout == layoutAll1g) {
            set.all1g = sample;
            got1g = true;
            continue; // The 1GB point is held out (case-study test set).
        }
        set.samples.push_back(sample);
        if (record.layout == layoutAll4k) {
            set.all4k = sample;
            got4k = true;
        } else if (record.layout == layoutAll2m) {
            set.all2m = sample;
            got2m = true;
        }
    }
    if (!got4k || !got2m) {
        return configError("missing uniform reference layouts for " +
                           platform + "/" + workload);
    }
    if (!got1g)
        set.all1g = set.all2m; // Tolerate campaigns without a 1GB run.
    return set;
}

models::SampleSet
Dataset::sampleSet(const std::string &platform,
                   const std::string &workload) const
{
    auto set = sampleSetResult(platform, workload);
    mosaic_assert(set.ok(), set.error().message());
    return std::move(set).okOrThrow();
}

const RunRecord &
Dataset::findRun(const std::string &platform, const std::string &workload,
                 const std::string &layout) const
{
    for (const auto &record : runs(platform, workload)) {
        if (record.layout == layout)
            return record;
    }
    mosaic_fatal("no run with layout ", layout, " for ", platform, "/",
                 workload);
}

namespace
{

constexpr const char *kCsvHeader =
    "platform,workload,layout,runtime,h,m,c,instructions,refs,l1tlbhits,"
    "queue,progL1,progL2,progL3,progDram,walkL1,walkL2,walkL3,walkDram";

/** The OS layer's swap column rides at the end so legacy tooling that
 *  indexes columns by position keeps working on the shared prefix. */
constexpr const char *kCsvHeaderSwap =
    "platform,workload,layout,runtime,h,m,c,instructions,refs,l1tlbhits,"
    "queue,progL1,progL2,progL3,progDram,walkL1,walkL2,walkL3,walkDram,"
    "s";

/** Sampled campaigns append est_err after every other column (after s
 *  when both extensions are on), keeping the shared prefix in place for
 *  the same reason. */
constexpr const char *kCsvHeaderEstErr =
    "platform,workload,layout,runtime,h,m,c,instructions,refs,l1tlbhits,"
    "queue,progL1,progL2,progL3,progDram,walkL1,walkL2,walkL3,walkDram,"
    "est_err";

constexpr const char *kCsvHeaderSwapEstErr =
    "platform,workload,layout,runtime,h,m,c,instructions,refs,l1tlbhits,"
    "queue,progL1,progL2,progL3,progDram,walkL1,walkL2,walkL3,walkDram,"
    "s,est_err";

/** Fixed-precision est_err cell: %.6f is deterministic for a given
 *  double (correctly-rounded per the C standard), which the
 *  byte-identical-for-any-jobs-count CSV property requires. */
std::string
formatEstErr(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return buf;
}

} // namespace

const char *
datasetCsvHeader()
{
    return kCsvHeader;
}

const char *
datasetCsvHeaderSwap()
{
    return kCsvHeaderSwap;
}

const char *
datasetCsvHeaderEstErr()
{
    return kCsvHeaderEstErr;
}

const char *
Dataset::csvHeader() const
{
    if (swapColumn_)
        return estErrColumn_ ? kCsvHeaderSwapEstErr : kCsvHeaderSwap;
    return estErrColumn_ ? kCsvHeaderEstErr : kCsvHeader;
}

std::string
Dataset::toCsv() const
{
    std::ostringstream out;
    out << csvHeader() << "\n";
    for (const auto &[key, records] : runs_) {
        for (const auto &record : records) {
            const auto &r = record.result;
            std::ostringstream row;
            row << record.platform << ',' << record.workload << ','
                << record.layout << ',' << r.runtimeCycles << ','
                << r.tlbHitsL2 << ',' << r.tlbMisses << ','
                << r.walkCycles << ',' << r.instructions << ','
                << r.memoryRefs << ',' << r.l1TlbHits << ','
                << r.walkerQueueCycles << ',' << r.progL1dLoads << ','
                << r.progL2Loads << ',' << r.progL3Loads << ','
                << r.progDramLoads << ',' << r.walkL1dLoads << ','
                << r.walkL2Loads << ',' << r.walkL3Loads << ','
                << r.walkDramLoads;
            if (swapColumn_)
                row << ',' << r.swapCycles;
            if (estErrColumn_)
                row << ',' << formatEstErr(record.estErr);
            std::string text = row.str();
            if (faults().shouldFail(FaultSite::CsvTruncate))
                text = text.substr(0, text.size() / 2);
            out << text << "\n";
        }
    }
    return out.str();
}

Result<void>
Dataset::saveResult(const std::string &path) const
{
    return writeFileAtomic(path, toCsv());
}

Result<Dataset>
Dataset::loadResult(const std::string &path, DatasetLoadStats *stats)
{
    std::ifstream file(path);
    if (!file.good() || faults().shouldFail(FaultSite::CsvOpen))
        return ioError("cannot open " + path);
    std::string line;
    std::getline(file, line);
    std::string header = trimString(line);
    bool swap_column =
        header == kCsvHeaderSwap || header == kCsvHeaderSwapEstErr;
    bool est_err_column =
        header == kCsvHeaderEstErr || header == kCsvHeaderSwapEstErr;
    if (header != kCsvHeader && !swap_column && !est_err_column) {
        return corruptError("unexpected dataset header in " + path +
                            " (not a mosaic dataset CSV?)");
    }

    Dataset dataset;
    dataset.setSwapColumn(swap_column);
    dataset.setEstErrColumn(est_err_column);
    const std::size_t expected_fields =
        19 + (swap_column ? 1 : 0) + (est_err_column ? 1 : 0);
    DatasetLoadStats local;
    while (std::getline(file, line)) {
        std::string trimmed = trimString(line);
        if (trimmed.empty())
            continue;
        auto fields = splitString(line, ',');
        RunRecord record;
        // getline() hit end of file before a newline: the row is the
        // torn tail of a killed writer, even if a counter cut short
        // still parses as a number.
        bool good = !file.eof() && fields.size() == expected_fields;
        if (good) {
            record.platform = fields[0];
            record.workload = fields[1];
            record.layout = fields[2];
            auto &r = record.result;
            // Strict full-match parses: std::stoull would admit "-1"
            // (wrapping to 2^64-1) and "123abc" (ignoring the tail) —
            // garbage counters that would silently poison the (R, H,
            // M, C) dataset the models are fitted on.
            std::uint64_t *counters[] = {
                &r.runtimeCycles,   &r.tlbHitsL2,
                &r.tlbMisses,       &r.walkCycles,
                &r.instructions,    &r.memoryRefs,
                &r.l1TlbHits,       &r.walkerQueueCycles,
                &r.progL1dLoads,    &r.progL2Loads,
                &r.progL3Loads,     &r.progDramLoads,
                &r.walkL1dLoads,    &r.walkL2Loads,
                &r.walkL3Loads,     &r.walkDramLoads,
            };
            std::size_t i = 3;
            for (std::uint64_t *counter : counters) {
                if (!parseUnsignedFull(fields[i++], *counter)) {
                    good = false;
                    break;
                }
            }
            if (good && swap_column &&
                !parseUnsignedFull(fields[i++], r.swapCycles))
                good = false;
            if (good && est_err_column &&
                !parseNonNegativeDoubleFull(fields[i], record.estErr))
                good = false;
        }
        if (!good) {
            // A malformed row is recoverable damage: drop it and let
            // the campaign recompute that cell, keeping the rest.
            ++local.rowsSkipped;
            continue;
        }
        dataset.add(std::move(record));
        ++local.rowsLoaded;
    }
    if (local.rowsSkipped > 0) {
        mosaic_warn("dataset ", path, ": skipped ", local.rowsSkipped,
                    " malformed row(s), kept ", local.rowsLoaded);
    }
    if (stats)
        *stats = local;
    return dataset;
}

void
Dataset::save(const std::string &path) const
{
    saveResult(path).okOrThrow();
}

Dataset
Dataset::load(const std::string &path)
{
    return loadResult(path).okOrThrow();
}

} // namespace mosaic::exp
