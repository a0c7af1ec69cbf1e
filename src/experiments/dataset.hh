/**
 * @file
 * Campaign datasets: every simulated run of every (platform, workload,
 * layout) triple, with CSV persistence so the expensive simulation
 * campaign runs once and every bench/example loads the cached samples.
 */

#ifndef MOSAIC_EXPERIMENTS_DATASET_HH
#define MOSAIC_EXPERIMENTS_DATASET_HH

#include <map>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "models/sample.hh"
#include "support/error.hh"

namespace mosaic::exp
{

/** One simulated execution, fully identified. */
struct RunRecord
{
    std::string platform;
    std::string workload; ///< paper label, e.g. "spec06/mcf"
    std::string layout;   ///< e.g. "grow-3", "slide-40%-2", "all-1GB"
    cpu::RunResult result;

    /**
     * Reported error bound of a sampled (partial-replay) run — the
     * est_err CSV column. Exactly 0 for full replays; sampled
     * campaigns record the extrapolation model's max per-counter
     * relative bound here.
     */
    double estErr = 0.0;
};

/** Uniform reference layout names. */
inline const std::string layoutAll4k = "grow-0";  ///< empty window
inline const std::string layoutAll2m = "grow-8";  ///< full window
inline const std::string layoutAll1g = "all-1GB";

/** What loadResult() accepted and what it had to drop. */
struct DatasetLoadStats
{
    std::size_t rowsLoaded = 0;

    /** Malformed rows skipped (half-written tail of a killed run). */
    std::size_t rowsSkipped = 0;
};

/**
 * All runs of a campaign, keyed by (platform, workload).
 */
class Dataset
{
  public:
    void add(RunRecord record);

    /** Runs of one (platform, workload) pair, in insertion order. */
    const std::vector<RunRecord> &runs(const std::string &platform,
                                       const std::string &workload) const;

    bool has(const std::string &platform,
             const std::string &workload) const;

    std::vector<std::string> platforms() const;
    std::vector<std::string> workloads() const;
    std::size_t totalRuns() const;

    /**
     * Convert one pair's runs into the model-facing SampleSet: the 54
     * campaign layouts as samples, the uniform layouts as references.
     * The all-1GB run is held out of the samples (the case-study test
     * set); all-2MB stands in for it when the pair has none. A pair
     * that is absent or lacks its all-4KB or all-2MB run (a partial
     * campaign) is a Config error.
     */
    Result<models::SampleSet>
    sampleSetResult(const std::string &platform,
                    const std::string &workload) const;

    /** Asserting wrapper around sampleSetResult(). */
    models::SampleSet sampleSet(const std::string &platform,
                                const std::string &workload) const;

    /** Find one run by layout name; fatal if absent. */
    const RunRecord &findRun(const std::string &platform,
                             const std::string &workload,
                             const std::string &layout) const;

    /**
     * Render the dataset as CSV text: the canonical header plus one
     * row per run, pairs in key order, rows in insertion order —
     * exactly the bytes saveResult() persists.
     */
    std::string toCsv() const;

    /**
     * Persist to CSV atomically (temp file + fsync + rename): readers
     * and a rerun after a mid-write kill see either the previous
     * complete file or the new one, never a torn mix.
     */
    Result<void> saveResult(const std::string &path) const;

    /**
     * Load a previously saved dataset. Malformed data rows — the tail
     * a killed writer without atomic rename would leave, or rot — are
     * skipped and counted in @p stats, so a partial cache still seeds
     * a campaign resume. Every row a writer emits ends in a newline,
     * so a last line without one is such a tail even when its fields
     * parse. Errors: Io (unreadable), Corrupt (wrong header — not a
     * mosaic dataset).
     */
    static Result<Dataset> loadResult(const std::string &path,
                                      DatasetLoadStats *stats = nullptr);

    /** Throwing wrapper around saveResult(). */
    void save(const std::string &path) const;

    /** Throwing wrapper around loadResult(). */
    static Dataset load(const std::string &path);

    /**
     * Whether rows carry the OS layer's S (swap cycles) column.
     * Paging-mode campaigns set this before emitting; loadResult()
     * derives it from the header. Off by default, so unbounded-mode
     * output stays byte-identical to the pre-OS-layer format (the
     * committed mosaic_dataset.csv and the campaign byte-identity
     * gates depend on that).
     */
    void setSwapColumn(bool enabled) { swapColumn_ = enabled; }
    bool swapColumn() const { return swapColumn_; }

    /**
     * Whether rows carry the sampled-replay est_err column (reported
     * extrapolation error bound). Sampled campaigns set this before
     * emitting; loadResult() derives it from the header. Off by
     * default for the same byte-identity reason as the swap column.
     * Orthogonal to setSwapColumn(): all four header combinations are
     * valid formats.
     */
    void setEstErrColumn(bool enabled) { estErrColumn_ = enabled; }
    bool estErrColumn() const { return estErrColumn_; }

    /** The CSV header this dataset emits (legacy, swap- and/or
     *  est_err-extended). */
    const char *csvHeader() const;

  private:
    using Key = std::pair<std::string, std::string>;
    std::map<Key, std::vector<RunRecord>> runs_;
    bool swapColumn_ = false;
    bool estErrColumn_ = false;
};

/** Convert one run into a model-facing sample. */
models::Sample toSample(const RunRecord &record);

/** The canonical dataset CSV header row (no trailing newline). */
const char *datasetCsvHeader();

/** The swap-extended header (legacy + ",s"), emitted by paging-mode
 *  campaigns. */
const char *datasetCsvHeaderSwap();

/** The sampling-extended header (legacy + ",est_err"), emitted by
 *  interval-sampled campaigns. */
const char *datasetCsvHeaderEstErr();

} // namespace mosaic::exp

#endif // MOSAIC_EXPERIMENTS_DATASET_HH
