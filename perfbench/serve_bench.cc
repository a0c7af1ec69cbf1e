/**
 * @file
 * The serve workload. `serve` starts the mosaic_serve daemon and drives
 * it through one client connection in a closed loop: each request is
 * sent only after the previous answer arrived, modelling a caller that
 * waits for every prediction. `serve-layers` pushes the same inputs
 * through each layer in process (dataset load, Mosmodel fit and
 * predict, request parsing, registry predict, and the cold pairs'
 * trace generation and replay), one span per call or batch.
 *
 * The queries file holds one "<phase>\t<request>" line per request.
 * Each session starts a fresh daemon and runs the phases in the order
 * first, warm, cold, verify:
 *   first   one query per resident pair (each triggers a lazy fit); the
 *           session's set-up time ends with the last of their answers;
 *   warm    cycled for --warm-seconds, split evenly over the sessions,
 *           and at least once through in each session;
 *   cold    the first query of each non-resident pair;
 *   verify  every layout of the cold pairs, now resident.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "experiments/dataset.hh"
#include "serve/model_registry.hh"
#include "serve/protocol.hh"
#include "support/fault_injector.hh"
#include "support/metrics.hh"

namespace perfbench
{

using namespace mosaic;

namespace
{

struct Query
{
    std::string phase;
    std::string line;
};

std::vector<Query>
loadQueries(const std::string &path)
{
    std::vector<Query> queries;
    std::istringstream in(readFile(path));
    for (std::string line; std::getline(in, line);) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            die("malformed query line in " + path + ": " + line);
        queries.push_back({line.substr(0, tab), line.substr(tab + 1)});
    }
    return queries;
}

/** One blocking client connection speaking the line protocol. */
class Connection
{
  public:
    explicit Connection(int fd) : fd_(fd) {}
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send @p request and wait for its one-line answer; empty when
     *  the connection failed. */
    std::string
    roundTrip(const std::string &request)
    {
        std::string out = request + "\n";
        for (std::size_t sent = 0; sent < out.size();) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return "";
            }
            sent += static_cast<std::size_t>(n);
        }
        while (true) {
            const auto newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string answer = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return answer;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return "";
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buffer_;
};

/** A running mosaic_serve child. stop() reaps it; it also dies with
 *  the driver, so a killed benchmark leaves no daemon behind. */
class Daemon
{
  public:
    explicit Daemon(const Args &args) : socketPath_(args.get("socket"))
    {
        std::vector<std::string> argv_text = {
            args.get("serve-bin"), "--dataset", args.get("dataset"),
            "--socket", socketPath_, "--jobs", "2"};
        std::vector<char *> argv;
        for (auto &arg : argv_text)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        const int log = ::open(args.get("log").c_str(),
                               O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                               0644);
        if (log < 0)
            die("cannot open " + args.get("log"));
        ::unlink(socketPath_.c_str());
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::dup2(log, 1);
            ::dup2(log, 2);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(log);
        if (pid_ < 0)
            die("fork: " + std::string(std::strerror(errno)));
    }

    ~Daemon()
    {
        if (pid_ > 0)
            stop();
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect to the daemon's socket, retrying while it starts. */
    int
    connect()
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socketPath_.size() >= sizeof addr.sun_path)
            fail("socket path too long: " + socketPath_);
        std::memcpy(addr.sun_path, socketPath_.c_str(),
                    socketPath_.size() + 1);
        const auto start = Clock::now();
        while (secondsSince(start) < 60.0) {
            int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (fd < 0)
                fail("socket: " + std::string(std::strerror(errno)));
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0)
                return fd;
            ::close(fd);
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                die("mosaic_serve exited before accepting connections");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        fail("mosaic_serve did not accept connections within 60 s");
    }

    /** SIGTERM, wait; returns the exit status (-1 when killed) and
     *  stores the child's peak RSS in KiB. */
    int
    stop(long *peak_rss_kb = nullptr)
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        rusage usage{};
        while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        if (peak_rss_kb)
            *peak_rss_kb = usage.ru_maxrss;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    /** Kill and reap the daemon, then exit with @p message. */
    [[noreturn]] void
    fail(const std::string &message)
    {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        die(message);
    }

    std::string socketPath_;
    pid_t pid_ = -1;
};

} // namespace

int
runServe(const Args &args)
{
    const std::vector<Query> queries = loadQueries(args.get("queries"));
    const double warm_seconds = args.real("warm-seconds");
    const std::uint64_t sessions = args.number("sessions");
    const bool traced = !args.get("spans", "").empty();
    Tracer tracer(1);

    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (queries[i].phase == "warm")
            warm.push_back(i);
    }

    std::string answers = "session\tphase\tquery\tanswer\n";
    std::string rtts;
    std::vector<std::string> first_pass(queries.size());
    std::vector<double> setup_seconds;
    std::vector<double> cold_seconds;
    std::vector<double> peak_rss_kb;
    std::uint64_t attempted = 0;
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t warm_count = 0;
    std::uint64_t request_id = 0;
    std::string exit_codes;
    double session1_wall = 0.0;

    for (std::uint64_t session = 1; session <= sessions; ++session) {
        std::optional<Tracer::Span> session_span;
        if (traced)
            session_span.emplace(tracer, 0, "serve.session", session);
        const auto start = Clock::now();
        Daemon daemon(args);
        std::optional<Connection> conn;
        {
            std::optional<Tracer::Span> span;
            if (traced)
                span.emplace(tracer, 0, "serve.start", session);
            conn.emplace(daemon.connect());
        }

        // Every answer is recorded the first time its query is sent and
        // compared against that record afterwards: the daemon is
        // deterministic, so a differing answer is a failure.
        auto ask = [&](std::size_t index) {
            const std::uint64_t id = request_id++;
            std::optional<Tracer::Span> span;
            if (traced)
                span.emplace(tracer, 0, "serve.request", id);
            const auto begin = Clock::now();
            std::string answer = conn->roundTrip(queries[index].line);
            const double rtt = secondsSince(begin);
            span.reset();
            ++attempted;
            if (answer.rfind("ok ", 0) != 0) {
                ++errors;
                std::fprintf(stderr, "query '%s' answered '%s'\n",
                             queries[index].line.c_str(), answer.c_str());
            }
            if (first_pass[index].empty()) {
                first_pass[index] = answer;
                answers += std::to_string(session) + "\t" +
                           queries[index].phase + "\t" +
                           std::to_string(index) + "\t" + answer + "\n";
            } else if (first_pass[index] != answer) {
                ++mismatches;
                std::fprintf(stderr, "query '%s' answered '%s', then '%s'\n",
                             queries[index].line.c_str(),
                             first_pass[index].c_str(), answer.c_str());
            }
            return rtt;
        };
        auto runPhase = [&](const char *phase, const char *span_name) {
            std::optional<Tracer::Span> span;
            if (traced)
                span.emplace(tracer, 0, span_name, session);
            std::vector<double> times;
            for (std::size_t i = 0; i < queries.size(); ++i) {
                if (queries[i].phase == phase)
                    times.push_back(ask(i));
            }
            return times;
        };

        runPhase("first", "serve.first");
        setup_seconds.push_back(secondsSince(start));
        {
            // Each daemon gets an equal share of the warm loop, so the
            // latency figures average over the daemons' placements, and
            // at least one pass over every warm query, so every
            // resident row is answered and checked in every session.
            std::optional<Tracer::Span> span;
            if (traced)
                span.emplace(tracer, 0, "serve.warm", session);
            const auto warm_start = Clock::now();
            for (std::size_t k = 0;
                 k < warm.size() ||
                 (!warm.empty() &&
                  secondsSince(warm_start) < warm_seconds / sessions);
                 ++k) {
                const std::size_t index = warm[k % warm.size()];
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.0f\n", ask(index) * 1e9);
                rtts += buf;
                ++warm_count;
            }
        }
        double cold_total = 0.0;
        for (double seconds : runPhase("cold", "serve.cold"))
            cold_total += seconds;
        cold_seconds.push_back(cold_total);
        runPhase("verify", "serve.verify");
        conn.reset();
        long rss_kb = 0;
        const int code = daemon.stop(&rss_kb);
        peak_rss_kb.push_back(static_cast<double>(rss_kb));
        exit_codes += (exit_codes.empty() ? "" : ", ") + std::to_string(code);
        if (code != 0)
            ++errors;
        if (session == 1)
            session1_wall = secondsSince(start);
    }

    writeFile(args.get("rtt"), rtts);
    writeFile(args.get("answers"), answers);
    if (traced)
        tracer.write(args.get("spans"));

    auto list = [](const std::vector<double> &values) {
        std::string out;
        for (double v : values)
            out += (out.empty() ? "" : ", ") + num(v);
        return "[" + out + "]";
    };
    std::printf("{\"setup_s\": %s, \"cold_s\": %s, \"session_wall_s\": %s, "
                "\"warm_queries\": %llu, \"attempted\": %llu, "
                "\"errors\": %llu, \"mismatches\": %llu, "
                "\"peak_rss_kb\": %s, \"exit_codes\": [%s], "
                "\"connections\": 1, \"workers\": 2}\n",
                list(setup_seconds).c_str(), list(cold_seconds).c_str(),
                num(session1_wall).c_str(),
                static_cast<unsigned long long>(warm_count),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(mismatches),
                list(peak_rss_kb).c_str(), exit_codes.c_str());
    return 0;
}

int
runServeLayers(const Args &args)
{
    const std::string dataset_path = args.get("dataset");
    const std::vector<Query> queries = loadQueries(args.get("queries"));
    // Layouts keep the default seed, as in the daemon the client talks
    // to and in the committed dataset.
    exp::CampaignConfig config;
    config.jobs = static_cast<unsigned>(args.number("jobs"));
    Tracer tracer(config.jobs + 1);
    const auto start = Clock::now();
    std::uint64_t failures = 0;

    serve::ModelRegistry::Options options;
    options.allowCold = false;
    serve::ModelRegistry registry(options);
    {
        Tracer::Span span(tracer, 0, "serve.load", 0);
        auto loaded = registry.loadDataset(dataset_path);
        if (!loaded.ok())
            die(loaded.error().str());
        span.setWork(loaded.value());
    }

    // Mosmodel on each resident pair, as the daemon's lazy fits do.
    exp::Dataset dataset = exp::Dataset::load(dataset_path);
    std::string predictions;
    std::string fit_rows = "platform,workload,lasso_fits,lasso_iterations\n";
    std::map<PairKey, std::unique_ptr<models::Mosmodel>> fitted;
    FitSummary fits =
        fitPairs(dataset, predictions, &tracer, &fit_rows, &fitted);
    failures += fits.failed;
    writeFile(args.get("fits"), fit_rows);

    // Printed at the end so the timed calls cannot be optimised away.
    double checksum = timePredictions(dataset, fitted, tracer);

    // The protocol parser and the registry's warm predict over the
    // warm query stream, batched the same way.
    std::vector<serve::PredictQuery> first;
    std::vector<serve::PredictQuery> warm;
    std::vector<std::string> warm_lines;
    for (const auto &query : queries) {
        if (query.phase == "warm")
            warm_lines.push_back(query.line);
    }
    {
        Tracer::Span span(tracer, 0, "serve.parse", 0, warm_lines.size());
        for (const auto &line : warm_lines) {
            auto parsed = serve::parseRequest(line);
            if (!parsed.ok()) {
                ++failures;
                continue;
            }
            warm.push_back(parsed.value().predict);
        }
    }
    for (const auto &query : queries) {
        if (query.phase != "first")
            continue;
        auto parsed = serve::parseRequest(query.line);
        if (!parsed.ok())
            ++failures;
        else
            first.push_back(parsed.value().predict);
    }
    SimContext context(metrics(), faults(), options.seed, 0);
    {
        Tracer::Span span(tracer, 0, "serve.registry_first", 0,
                          first.size());
        for (const auto &query : first)
            failures += registry.predict(query, context).ok() ? 0 : 1;
    }
    {
        Tracer::Span span(tracer, 0, "serve.predict", 0, warm.size());
        for (const auto &query : warm) {
            auto answer = registry.predict(query, context);
            if (!answer.ok())
                ++failures;
            else
                checksum += answer.value().predictedCycles;
        }
    }

    // The cold pairs' trace generation and replay, layout by layout.
    std::vector<GridRow> grid;
    std::istringstream cold(args.get("cold"));
    for (std::string pair; std::getline(cold, pair, ',');) {
        const auto colon = pair.find(':');
        if (colon == std::string::npos)
            die("--cold needs platform:workload pairs, got " + pair);
        grid.push_back({pair.substr(colon + 1),
                        {cpu::platformByName(pair.substr(0, colon))}});
    }
    CellRun run = driveCells(grid, config, tracer);
    writeFile(args.get("cells"), run.rows);
    failures += run.cellFailures + run.prepareFailures;

    tracer.write(args.get("spans"));
    std::printf("{\"wall_s\": %s, \"pairs\": %zu, \"fits\": %zu, "
                "\"cells\": %zu, \"failures\": %llu, \"checksum\": %s}\n",
                num(secondsSince(start)).c_str(), fitted.size(),
                fits.attempted, run.cells,
                static_cast<unsigned long long>(failures),
                num(checksum).c_str());
    return 0;
}

} // namespace perfbench
