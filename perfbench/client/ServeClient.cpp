//===- perfbench/client/ServeClient.cpp - The serve-mixed client ---------===//
//
// Starts one stird-serve on the doop-like points-to program, loads the
// initial EDB, then drives it over TCP loopback from this one process:
// reader connections send skewed point queries in a closed loop while one
// writer connection sends a mixed insert/retract batch after every Ratio
// queries. Every load reply is checked against the benchmark's EDB model
// (inserted/duplicates/deleted/missing, epoch +1 per load); at fixed load
// numbers and at the end the writer reads back every derived relation, and
// after the run each is compared with an independent points-to fixpoint of
// the model's EDB at that epoch.
//
// Usage:
//   perfbench_serve --server PATH --work DIR --seed N --seconds S
//                   --trace 0|1 [--corrupt 1]
//
// Prints one JSON object with the measured figures and the check outcome.
// --corrupt 1 alters what the checks see (one load's expected count, one
// read-back tuple), to show that they fail; selfcheck.py uses it.
//
//===----------------------------------------------------------------------===//

#include "ServeStream.h"

#include "obs/Json.h"
#include "srv/Wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace stird;
using Clock = std::chrono::steady_clock;
namespace json = stird::obs::json;

namespace {

/// Reader connections; with the writer, fewer connections than cores.
constexpr int Readers = 1;
/// Queries per load: the fixed read/write mix of every round.
constexpr std::uint64_t Ratio = 40;
/// Loads after which the writer reads back every derived relation.
constexpr std::uint64_t CheckEvery = 500;
/// Loads between stats polls in traced runs (request-trace ring reads).
constexpr std::uint64_t PollEvery = 32;

double since(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// The server process, stopped by die() so no failure leaves it running.
pid_t ServerPid = 0;

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench_serve: %s\n", Message.c_str());
  if (ServerPid > 0) {
    ::kill(ServerPid, SIGKILL);
    ::waitpid(ServerPid, nullptr, 0);
  }
  std::exit(1);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t I = static_cast<std::size_t>(Q * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

int connectTo(int Port) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    die("socket failed");
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    die("connect failed");
  const int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// One request/reply exchange; the parsed reply (null object on error).
json::Value call(int Fd, const std::string &Request) {
  std::string Reply;
  if (!srv::writeFrame(Fd, Request) || !srv::readFrame(Fd, Reply))
    die("connection lost");
  auto Doc = json::parse(Reply);
  if (!Doc || !Doc->isObject())
    die("malformed reply");
  return std::move(*Doc);
}

bool ok(const json::Value &Reply) {
  const json::Value *Ok = Reply.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

std::uint64_t number(const json::Value &Reply, const char *Key) {
  const json::Value *V = Reply.find(Key);
  return V && V->isNumber() ? V->asUint() : ~std::uint64_t(0);
}

std::string tuples(const std::vector<perfbench::Pair> &Rows) {
  std::string S = "[";
  for (const perfbench::Pair &P : Rows) {
    if (S.size() > 1)
      S += ',';
    S += '[' + std::to_string(P[0]) + ',' + std::to_string(P[1]) + ']';
  }
  return S + ']';
}

std::string loadRequest(const perfbench::Batch &B) {
  std::string Facts, Retract;
  for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel) {
    const std::string Name = std::string("\"") + perfbench::Edb[Rel].Name + "\":";
    if (!B.Ops[Rel].Inserts.empty())
      Facts += (Facts.empty() ? "" : ",") + Name + tuples(B.Ops[Rel].Inserts);
    if (!B.Ops[Rel].Retracts.empty())
      Retract +=
          (Retract.empty() ? "" : ",") + Name + tuples(B.Ops[Rel].Retracts);
  }
  return "{\"cmd\":\"load\",\"facts\":{" + Facts + "},\"retract\":{" +
         Retract + "}}";
}

/// A served relation read back at a known epoch, with the model's EDB then.
struct Checkpoint {
  std::uint64_t Epoch;
  std::array<std::set<perfbench::Pair>, perfbench::NumEdb> Edb;
  std::map<std::string, json::Value> Replies;
};

std::set<std::vector<int>> rows(const json::Value &Reply) {
  std::set<std::vector<int>> Out;
  const json::Value *T = Reply.find("tuples");
  if (!T || !T->isArray())
    return Out;
  for (const json::Value &Row : T->asArray()) {
    std::vector<int> R;
    for (const json::Value &Cell : Row.asArray())
      R.push_back(std::atoi(Cell.asString().c_str()));
    Out.insert(R);
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < Argc; I += 2)
    Args[Argv[I]] = Argv[I + 1];
  for (const char *Required :
       {"--server", "--work", "--seed", "--seconds", "--trace"})
    if (!Args.count(Required))
      die(std::string("missing ") + Required);
  const std::uint64_t Seed = std::strtoull(Args["--seed"].c_str(), nullptr, 10);
  const double Seconds = std::atof(Args["--seconds"].c_str());
  const bool Traced = Args["--trace"] == "1";
  const std::string Work = Args["--work"];
  const bool Corrupt = Args["--corrupt"] == "1";

  const std::string ProgramPath = Work + "/serve.dl";
  std::ofstream(ProgramPath) << perfbench::ServeProgram;
  const std::string LogPath = Work + "/serve.log";

  perfbench::Model Model(Seed);
  std::string Initial;
  {
    perfbench::Batch B;
    for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel)
      B.Ops[Rel].Inserts.assign(Model.live(Rel).begin(),
                                Model.live(Rel).end());
    Initial = loadRequest(B);
  }

  // Set-up: spawn the server, wait for its endpoint, load the initial EDB.
  const Clock::time_point SetupStart = Clock::now();
  ::unlink(LogPath.c_str()); // the port is read from the new log only
  const pid_t Pid = ::fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    const int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(Log, 2);
    std::vector<std::string> Cmd = {Args["--server"], ProgramPath, "--port",
                                    "0", "--pool-threads",
                                    std::to_string(Readers + 1)};
    if (Traced)
      for (const char *A : {"--trace-sample", "16"})
        Cmd.push_back(A);
    std::vector<char *> Argv2;
    for (std::string &A : Cmd)
      Argv2.push_back(A.data());
    Argv2.push_back(nullptr);
    ::execv(Argv2[0], Argv2.data());
    ::_exit(127);
  }
  ServerPid = Pid;
  int Port = 0;
  while (Port == 0) {
    std::ifstream In(LogPath);
    std::string Line;
    while (std::getline(In, Line)) {
      const std::size_t At = Line.find("listening on 127.0.0.1:");
      if (At != std::string::npos)
        Port = std::atoi(Line.c_str() + At + 23);
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid)
      die("stird-serve exited during start-up; see " + LogPath);
    if (since(SetupStart) > 60)
      die("stird-serve did not start");
    if (Port == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int Writer = connectTo(Port);
  std::vector<std::string> Errors;
  std::uint64_t Failed = 0;
  {
    const json::Value Reply = call(Writer, Initial);
    if (!ok(Reply) || number(Reply, "epoch") != 1)
      Errors.push_back("initial load failed");
  }
  const double SetupSeconds = since(SetupStart);

  std::vector<int> ReaderFds;
  for (int I = 0; I < Readers; ++I)
    ReaderFds.push_back(connectTo(Port));

  // Round pacing: the writer sends load k once k*Ratio queries finished;
  // readers may run at most two rounds ahead of the finished loads.
  std::mutex M;
  std::condition_variable Cv;
  std::uint64_t QueriesIssued = 0, QueriesDone = 0, LoadsDone = 0;
  bool Stop = false;
  // Read-backs run with the readers paused, so their large replies never
  // overlap other requests and the server's peak memory repeats.
  bool Paused = false;

  std::vector<std::vector<double>> QueryLat(Readers);
  std::atomic<std::uint64_t> QueryFailures{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < Readers; ++I)
    Threads.emplace_back([&, I] {
      perfbench::Rng R(Seed * 7 + 1000 + I);
      for (;;) {
        {
          std::unique_lock<std::mutex> Lock(M);
          Cv.wait(Lock, [&] {
            return Stop ||
                   (!Paused && QueriesIssued < (LoadsDone + 2) * Ratio);
          });
          if (Stop)
            return;
          ++QueriesIssued;
        }
        const int Key = perfbench::queryKey(R);
        const std::string Request =
            "{\"cmd\":\"query\",\"relation\":\"vpt\",\"pattern\":[" +
            std::to_string(Key) + ",null]}";
        const Clock::time_point T0 = Clock::now();
        const json::Value Reply = call(ReaderFds[I], Request);
        QueryLat[I].push_back(since(T0));
        if (!ok(Reply))
          ++QueryFailures;
        {
          std::lock_guard<std::mutex> Lock(M);
          ++QueriesDone;
        }
        Cv.notify_all();
      }
    });

  std::vector<double> LoadLat, RoundLat;
  std::vector<Checkpoint> Checkpoints;
  std::map<std::uint64_t, std::uint64_t> QueueWaits; // trace seq -> micros
  auto readBack = [&](std::uint64_t Epoch) {
    {
      std::unique_lock<std::mutex> Lock(M);
      Paused = true;
      Cv.wait(Lock, [&] { return QueriesDone == QueriesIssued; });
    }
    Checkpoint C{Epoch, {}, {}};
    for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel)
      C.Edb[Rel] = Model.live(Rel);
    for (const char *Rel : {"vpt", "heap", "query"})
      C.Replies[Rel] =
          call(Writer, std::string("{\"cmd\":\"query\",\"relation\":\"") +
                           Rel + "\"}");
    Checkpoints.push_back(std::move(C));
    {
      std::lock_guard<std::mutex> Lock(M);
      Paused = false;
    }
    Cv.notify_all();
  };
  auto pollTraces = [&] {
    const json::Value Stats = call(Writer, "{\"cmd\":\"stats\"}");
    const json::Value *Trace = Stats.find("trace");
    const json::Value *Recent = Trace ? Trace->find("recent") : nullptr;
    if (!Recent || !Recent->isArray())
      return;
    for (const json::Value &T : Recent->asArray()) {
      const json::Value *Seq = T.find("seq"), *Spans = T.find("spans");
      const json::Value *Queue = Spans ? Spans->find("queue") : nullptr;
      if (Seq && Queue)
        QueueWaits[Seq->asUint()] = Queue->asUint();
    }
  };

  readBack(1);
  const Clock::time_point RunStart = Clock::now();
  Clock::time_point RoundStart = RunStart;
  std::uint64_t Loads = 0;
  while (since(RunStart) < Seconds) {
    {
      std::unique_lock<std::mutex> Lock(M);
      Cv.wait(Lock, [&] { return QueriesDone >= (Loads + 1) * Ratio; });
    }
    const perfbench::Batch B = Model.next();
    const std::string Request = loadRequest(B);
    const Clock::time_point T0 = Clock::now();
    const json::Value Reply = call(Writer, Request);
    LoadLat.push_back(since(T0));
    ++Loads;
    if (!ok(Reply)) {
      ++Failed;
    } else if (number(Reply, "inserted") !=
                   B.Inserted + (Corrupt && Loads == 1) ||
               number(Reply, "duplicates") != B.Duplicates ||
               number(Reply, "deleted") != B.Deleted ||
               number(Reply, "missing") != B.Missing ||
               number(Reply, "epoch") != Loads + 1) {
      Errors.push_back("load " + std::to_string(Loads) +
                       ": reply counts or epoch differ from the model");
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      ++LoadsDone;
    }
    Cv.notify_all();
    RoundLat.push_back(since(RoundStart));
    if (Loads % CheckEvery == 0)
      readBack(Loads + 1);
    if (Traced && Loads % PollEvery == 0)
      pollTraces();
    RoundStart = Clock::now();
  }
  const double Measured = since(RunStart);
  {
    std::lock_guard<std::mutex> Lock(M);
    Stop = true;
  }
  Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
  readBack(Loads + 1);
  if (Traced)
    pollTraces();

  const json::Value Stats = call(Writer, "{\"cmd\":\"stats\"}");
  double CacheHitRatio = 0;
  if (const json::Value *Cache = Stats.find("cache")) {
    const double Hits = static_cast<double>(number(*Cache, "hits"));
    const double Misses = static_cast<double>(number(*Cache, "misses"));
    CacheHitRatio = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  }
  call(Writer, "{\"cmd\":\"shutdown\"}");
  ::close(Writer);
  for (int Fd : ReaderFds)
    ::close(Fd);
  int Status = 0;
  rusage Usage{};
  if (::wait4(Pid, &Status, 0, &Usage) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    Errors.push_back("stird-serve did not exit cleanly");
  ServerPid = 0;

  // The served relations against an independent fixpoint of the model.
  for (const Checkpoint &C : Checkpoints) {
    const perfbench::Derived Want = perfbench::fixpoint(C.Edb);
    std::set<std::vector<int>> WantVpt, WantHeap, WantQuery;
    for (const perfbench::Pair &P : Want.Vpt)
      WantVpt.insert({P[0], P[1]});
    for (const perfbench::Pair &P : Want.Heap)
      WantHeap.insert({P[0], P[1]});
    for (int V : Want.Query)
      WantQuery.insert({V});
    const std::pair<const char *, std::set<std::vector<int>> *> Expect[] = {
        {"vpt", &WantVpt}, {"heap", &WantHeap}, {"query", &WantQuery}};
    for (const auto &[Rel, Rows] : Expect) {
      const json::Value &Reply = C.Replies.at(Rel);
      std::set<std::vector<int>> Got = rows(Reply);
      if (Corrupt && !Got.empty())
        Got.erase(Got.begin());
      if (!ok(Reply) || number(Reply, "epoch") != C.Epoch || Got != *Rows)
        Errors.push_back("epoch " + std::to_string(C.Epoch) + ": " + Rel +
                         " differs from the reference fixpoint");
    }
  }

  std::vector<double> AllQueries;
  for (const auto &L : QueryLat)
    AllQueries.insert(AllQueries.end(), L.begin(), L.end());
  std::vector<double> Waits;
  for (const auto &[Seq, Micros] : QueueWaits)
    Waits.push_back(static_cast<double>(Micros));

  json::Object Out;
  Out.emplace_back("setup_s", SetupSeconds);
  Out.emplace_back("seconds", Measured);
  Out.emplace_back("loads", Loads);
  Out.emplace_back("queries", static_cast<std::uint64_t>(AllQueries.size()));
  Out.emplace_back("failed", Failed + QueryFailures.load());
  Out.emplace_back("load_p50_ms", quantile(LoadLat, 0.5) * 1e3);
  Out.emplace_back("load_p90_ms", quantile(LoadLat, 0.9) * 1e3);
  Out.emplace_back("round_s", quantile(RoundLat, 0.5));
  Out.emplace_back("query_p50_us", quantile(AllQueries, 0.5) * 1e6);
  Out.emplace_back("query_p90_us", quantile(AllQueries, 0.9) * 1e6);
  Out.emplace_back("query_p99_us", quantile(AllQueries, 0.99) * 1e6);
  Out.emplace_back("query_p999_us", quantile(AllQueries, 0.999) * 1e6);
  Out.emplace_back("cache_hit_ratio", CacheHitRatio);
  Out.emplace_back("queue_wait_p50_us", quantile(Waits, 0.5));
  Out.emplace_back("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024);
  json::Array Errs;
  for (const std::string &E : Errors)
    Errs.push_back(E);
  Out.emplace_back("errors", json::Value(std::move(Errs)));
  std::printf("%s\n", json::Value(std::move(Out)).dump().c_str());
  return 0;
}
