/**
 * @file
 * Live-socket tests for the serve daemon front end: real connections
 * against a Server bound to a Unix-domain socket or an ephemeral
 * loopback TCP port, covering the protocol edges a socket adds on top
 * of the parser — partial lines across sends, pipelined requests,
 * oversize floods, mid-query disconnects, concurrent clients, and the
 * graceful drain.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "serve/server.hh"

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

/** A warm-only registry over the tiny campaign, built once. */
ModelRegistry &
warmRegistry()
{
    static ModelRegistry *registry = [] {
        exp::Dataset dataset =
            exp::CampaignRunner(test::tinyCampaign({cpu::sandyBridge()}))
                .runReport()
                .dataset;
        static test::ScratchDir scratch("serve_server_data");
        const std::string csv = scratch.path() + "/campaign.csv";
        dataset.save(csv);
        ModelRegistry::Options options;
        options.allowCold = false;
        auto *built = new ModelRegistry(std::move(options));
        auto loaded = built->loadDataset(csv);
        if (!loaded.ok() || loaded.value() != 1)
            std::abort();
        return built;
    }();
    return *registry;
}

/** Simple blocking test client with a receive timeout. */
class Client
{
  public:
    explicit Client(const Server &server,
                    const std::string &socketPath = "")
    {
        if (!socketPath.empty()) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, socketPath.c_str(),
                         sizeof(addr.sun_path) - 1);
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0) {
                ::close(fd_);
                fd_ = -1;
            }
        } else {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(server.port());
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0) {
                ::close(fd_);
                fd_ = -1;
            }
        }
        if (fd_ >= 0) {
            timeval timeout{5, 0};
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout));
        }
    }

    ~Client() { close(); }

    bool connected() const { return fd_ >= 0; }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    bool
    send(const std::string &text)
    {
        std::size_t sent = 0;
        while (sent < text.size()) {
            const ssize_t n =
                ::send(fd_, text.data() + sent, text.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** One '\n'-terminated line, or "" on EOF/timeout. */
    std::string
    readLine()
    {
        for (;;) {
            const std::size_t nl = carry_.find('\n');
            if (nl != std::string::npos) {
                std::string line = carry_.substr(0, nl);
                carry_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            carry_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** True when the peer has closed (EOF within the timeout). */
    bool
    eof()
    {
        char byte;
        return ::recv(fd_, &byte, 1, 0) == 0;
    }

  private:
    int fd_ = -1;
    std::string carry_;
};

} // namespace

TEST(ServeServer, PingModelsAndQuitOverUnixSocket)
{
    test::ScratchDir scratch("serve_srv");
    ServerOptions options;
    options.socketPath = scratch.path() + "/sock";
    options.workers = 2;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());
    EXPECT_EQ(server.endpoint(), "unix:" + options.socketPath);

    Client client(server, options.socketPath);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("PING\n"));
    EXPECT_EQ(client.readLine(), "ok pong");

    ASSERT_TRUE(client.send("MODELS\n"));
    const std::string models = client.readLine();
    EXPECT_EQ(models.rfind("ok ", 0), 0u);
    EXPECT_NE(models.find("mosmodel"), std::string::npos);

    ASSERT_TRUE(client.send("QUIT\n"));
    EXPECT_EQ(client.readLine(), "ok bye");
    EXPECT_TRUE(client.eof());
    server.stop();
}

TEST(ServeServer, WarmPredictAndStatsOverTcp)
{
    ServerOptions options; // port 0 → kernel-assigned
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());
    ASSERT_GT(server.port(), 0);

    Client client(server);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send(
        "PREDICT SandyBridge test/tiny layout=grow-3\n"));
    const std::string response = client.readLine();
    EXPECT_EQ(response.rfind("ok predicted_cycles=", 0), 0u)
        << response;
    EXPECT_NE(response.find("model=mosmodel"), std::string::npos);
    EXPECT_NE(response.find("source=warm"), std::string::npos);
    EXPECT_NE(response.find("measured_cycles="), std::string::npos);

    ASSERT_TRUE(client.send("STATS\n"));
    const std::string stats = client.readLine();
    EXPECT_EQ(stats.rfind("ok {", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"schema\":\"mosaic-serve-stats/1\""),
              std::string::npos);
    EXPECT_NE(stats.find("\"resident_pairs\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"predictions\":1"), std::string::npos);
    server.stop();
}

TEST(ServeServer, PartialLinesAndPipelinedRequests)
{
    ServerOptions options;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    Client client(server);
    ASSERT_TRUE(client.connected());

    // A request split across sends must only answer once complete.
    ASSERT_TRUE(client.send("PI"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.send("NG\r\n"));
    EXPECT_EQ(client.readLine(), "ok pong");

    // Two requests in one send answer in order.
    ASSERT_TRUE(client.send("PING\nMODELS\n"));
    EXPECT_EQ(client.readLine(), "ok pong");
    EXPECT_EQ(client.readLine().rfind("ok ", 0), 0u);
    server.stop();
}

TEST(ServeServer, OversizeLineAnswersOnceAndCloses)
{
    ServerOptions options;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    Client client(server);
    ASSERT_TRUE(client.connected());
    const std::string flood(kMaxRequestBytes + 100, 'a');
    ASSERT_TRUE(client.send(flood));
    const std::string response = client.readLine();
    EXPECT_EQ(response.rfind("err parse ", 0), 0u) << response;
    EXPECT_TRUE(client.eof());
    server.stop();
}

TEST(ServeServer, UnknownVerbAndBadPredictKeepTheConnection)
{
    ServerOptions options;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    Client client(server);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("FETCH something\n"));
    EXPECT_EQ(client.readLine().rfind("err parse ", 0), 0u);

    ASSERT_TRUE(client.send("PREDICT nowhere test/tiny h=1 m=2 c=3\n"));
    EXPECT_EQ(client.readLine().rfind("err config ", 0), 0u);

    ASSERT_TRUE(client.send("PING\n"));
    EXPECT_EQ(client.readLine(), "ok pong");
    server.stop();
}

TEST(ServeServer, MidQueryDisconnectLeavesTheServerServing)
{
    ServerOptions options;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    {
        Client dropper(server);
        ASSERT_TRUE(dropper.connected());
        // Half a request, then vanish.
        ASSERT_TRUE(dropper.send("PREDICT SandyBridge test/ti"));
        dropper.close();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Client client(server);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("PING\n"));
    EXPECT_EQ(client.readLine(), "ok pong");
    server.stop();
}

TEST(ServeServer, ConcurrentClientsAllGetTheirOwnAnswers)
{
    ServerOptions options;
    options.workers = 4;
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    constexpr int kClients = 8;
    constexpr int kRequests = 50;
    std::vector<std::thread> threads;
    std::vector<int> okCounts(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Client client(server);
            if (!client.connected())
                return;
            for (int i = 0; i < kRequests; ++i) {
                const bool predict = (c + i) % 2 == 0;
                if (!client.send(
                        predict ? "PREDICT SandyBridge test/tiny "
                                  "layout=grow-3\nPING\n"
                                : "PING\nPING\n")) {
                    return;
                }
                const std::string first = client.readLine();
                const std::string second = client.readLine();
                if (first.rfind("ok", 0) == 0 && second == "ok pong")
                    ++okCounts[c];
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(okCounts[c], kRequests) << "client " << c;
    server.stop();
}

TEST(ServeServer, GracefulStopDrainsAndFoldsMetrics)
{
    test::ScratchDir scratch("serve_srv");
    ServerOptions options;
    options.socketPath = scratch.path() + "/sock";
    Server server(warmRegistry(), options);
    ASSERT_TRUE(server.start().ok());

    {
        Client client(server, options.socketPath);
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.send("PING\n"));
        EXPECT_EQ(client.readLine(), "ok pong");
    }

    server.stop();
    // Worker shards folded into the central registry at drain.
    EXPECT_GE(server.centralMetrics().counter("serve/requests"), 1u);
    EXPECT_GE(server.centralMetrics().counter("serve/connections"),
              1u);
    // The socket file is gone and stop() is idempotent.
    EXPECT_NE(::access(options.socketPath.c_str(), F_OK), 0);
    server.stop();
}

TEST(ServeServer, QueryTimeoutSurfacesAsTimeoutError)
{
    // A registry that allows cold simulation but with an impossible
    // deadline: the PREDICT must come back "err timeout", not hang.
    ModelRegistry::Options regOptions;
    regOptions.workloadFactory = test::tinyFactory;
    ModelRegistry registry(std::move(regOptions));

    ServerOptions options;
    options.queryTimeoutSeconds = 1e-9;
    Server server(registry, options);
    ASSERT_TRUE(server.start().ok());

    Client client(server);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(
        client.send("PREDICT SandyBridge test/tiny h=1 m=2 c=3\n"));
    EXPECT_EQ(client.readLine().rfind("err timeout ", 0), 0u);
    server.stop();
}
