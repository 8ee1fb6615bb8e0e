//===- perfbench/trace/LayerTrace.cpp - Per-layer timing of stird --------===//
//
// The benchmark's traced mode. It calls each layer's public functions from
// here, records one span per call (name, start, end, parent, and an id
// shared by every span of one program or request), keeps the spans in
// memory and writes them out when the run ends. Nothing inside stird is
// instrumented beyond the engine's own existing trace option.
//
// Usage:
//   perfbench_trace --jobs FILE --work DIR --seed N --reps N --spans FILE
//
// FILE lists one program per line as "program.dl<TAB>facts-dir", or the
// line "@serve" for the serve-mixed program over its initial EDB. Every
// timing is a median over --reps repetitions interleaved round-robin across
// the programs, and each repetition also runs the untraced pipeline
// (core::Program::fromSource + run) for the tracing-overhead ratio. The
// incremental (inc) and serving (srv) layers replay Batches batches of the
// serve-mixed stream for --seed. Prints one JSON object of metrics.
//
//===----------------------------------------------------------------------===//

#include "../client/ServeStream.h"

#include "ast/Parser.h"
#include "ast/SemanticAnalysis.h"
#include "core/Program.h"
#include "inc/Maintainer.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "ram/Transforms.h"
#include "srv/Session.h"
#include "srv/Wire.h"
#include "translate/AstToRam.h"
#include "translate/IndexSelection.h"
#include "util/Csv.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace stird;
using Clock = std::chrono::steady_clock;

namespace {

/// Batches of the serve-mixed stream replayed through inc and srv, and
/// point queries timed on snapshots and through the request handler.
constexpr int Batches = 200;
constexpr int Queries = 2000;

const Clock::time_point Epoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

struct Span {
  std::string Name;
  double Start, End;
  long Parent; ///< index of the enclosing span, -1 for none
  std::string Id;
};

/// In-memory span log; written once, at the end of the run.
class Spans {
public:
  /// Times \p Fn as a span named \p Name under the innermost open span.
  template <typename F> double time(const std::string &Name, F &&Fn) {
    const long Index = static_cast<long>(Log.size());
    Log.push_back({Name, now(), 0, Open.empty() ? -1 : Open.back(), Id});
    Open.push_back(Index);
    Fn();
    Open.pop_back();
    Log[Index].End = now();
    return Log[Index].End - Log[Index].Start;
  }
  /// Records an already measured child span (engine-internal phases).
  void child(const std::string &Name, double Start, double End) {
    Log.push_back({Name, Start, End, Open.empty() ? -1 : Open.back(), Id});
  }
  void setId(std::string NewId) { Id = std::move(NewId); }

  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const Span &S : Log)
      Out << "{\"name\":\"" << S.Name << "\",\"start\":" << S.Start
          << ",\"end\":" << S.End << ",\"parent\":" << S.Parent
          << ",\"id\":\"" << S.Id << "\"}\n";
  }

private:
  std::vector<Span> Log;
  std::vector<long> Open;
  std::string Id;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t I = static_cast<std::size_t>(Q * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", Message.c_str());
  std::exit(1);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Per-program timings, one entry per repetition.
struct ProgramTimes {
  std::map<std::string, std::vector<double>> Phase;
  std::vector<double> Untraced, Traced;
};

/// Counters of the last traced run of a program (identical every run at
/// -j1, so one is enough).
struct Counters {
  std::uint64_t Dispatches = 0, Inserts = 0, InsertsNew = 0,
                PointLookups = 0, RangeScans = 0, Resident = 0;
  double HotRule = 0, Execute = 0;
};

/// The engine's "generate tree" and "execute" spans from its own trace.
std::pair<double, double> engineSpans(const obs::TraceRecorder &Trace) {
  auto Doc = obs::json::parse(Trace.toJson());
  double Gen = 0, Exec = 0;
  if (!Doc)
    return {Gen, Exec};
  const obs::json::Value *Events = Doc->find("traceEvents");
  if (!Events)
    return {Gen, Exec};
  // Main-track spans nest; match each 'E' with the innermost open 'B'.
  std::vector<std::pair<std::string, double>> Stack;
  for (const obs::json::Value &E : Events->asArray()) {
    const obs::json::Value *Ph = E.find("ph"), *Tid = E.find("tid"),
                           *Ts = E.find("ts");
    if (!Ph || !Ts || !Tid || Tid->asNumber() != 0)
      continue;
    if (Ph->asString() == "B") {
      const obs::json::Value *Name = E.find("name");
      Stack.emplace_back(Name ? Name->asString() : "", Ts->asNumber());
    } else if (Ph->asString() == "E" && !Stack.empty()) {
      const double Dur = (Ts->asNumber() - Stack.back().second) / 1e6;
      if (Stack.back().first == "generate tree")
        Gen += Dur;
      else if (Stack.back().first == "execute")
        Exec += Dur;
      Stack.pop_back();
    }
  }
  return {Gen, Exec};
}

/// One traced pass over a program: each compile phase called separately,
/// then fromSource as a whole, then a traced engine run and the CSV reader.
void tracedPass(Spans &S, const std::string &Source, const std::string &Facts,
                const std::string &Out, bool CompileFirst, ProgramTimes &T,
                Counters &C) {
  // The two compile totals alternate in order between repetitions, so
  // neither always runs on warmer caches.
  std::unique_ptr<core::Program> Prog;
  auto compile = [&] {
    T.Phase["core.compile_s"].push_back(S.time("core.Program.fromSource", [&] {
      Prog = core::Program::fromSource(Source);
    }));
    if (!Prog)
      die("compile failed");
  };
  if (CompileFirst)
    compile();
  const double Start = now();
  ast::ParseResult Parsed;
  ast::SemanticInfo Info;
  translate::TranslationResult Translated;
  translate::IndexSelectionResult Indexes;
  SymbolTable Symbols;
  T.Phase["ast.parse_s"].push_back(
      S.time("ast.parseProgram", [&] { Parsed = ast::parseProgram(Source); }));
  if (!Parsed.succeeded())
    die("parse failed");
  T.Phase["ast.analyze_s"].push_back(
      S.time("ast.analyze", [&] { Info = ast::analyze(*Parsed.Prog); }));
  T.Phase["translate.to_ram_s"].push_back(S.time("translate.translateToRam", [&] {
    Translated = translate::translateToRam(*Parsed.Prog, Info, Symbols);
  }));
  if (!Translated.succeeded())
    die("translation failed");
  T.Phase["ram.transforms_s"].push_back(S.time("ram.transforms", [&] {
    ram::foldConstants(*Translated.Prog, Symbols);
    ram::mergeAdjacentFilters(*Translated.Prog);
  }));
  T.Phase["translate.index_select_s"].push_back(
      S.time("translate.selectIndexes",
             [&] { Indexes = translate::selectIndexes(*Translated.Prog); }));
  const double Phases = now() - Start;
  if (!CompileFirst)
    compile();

  interp::EngineOptions Opts;
  Opts.FactDir = Facts;
  Opts.OutputDir = Out;
  Opts.EchoPrintSize = false;
  Opts.EnableTrace = true;
  std::unique_ptr<interp::Engine> Eng;
  const double RunStart = now();
  const double RunSeconds = S.time("interp.Engine.run", [&] {
    Eng = Prog->makeEngine(Opts);
    Eng->run();
  });
  const auto [Gen, Exec] = engineSpans(*Eng->getTrace());
  S.child("interp.generateTree", RunStart, RunStart + Gen);
  S.child("interp.execute", RunStart + Gen, RunStart + Gen + Exec);
  T.Phase["interp.tree_gen_s"].push_back(Gen);
  T.Phase["interp.execute_s"].push_back(Exec);
  T.Traced.push_back(Phases + RunSeconds);

  C = Counters();
  C.Dispatches = Eng->getNumDispatches();
  const auto &Rels = Eng->getStatsRelations();
  for (std::size_t I = 0; I < Rels.size(); ++I) {
    const obs::RelationStats &R = Eng->getStats()[I];
    C.Inserts += R.Inserts;
    C.InsertsNew += R.InsertsNew;
    C.PointLookups += R.PointLookups;
    C.RangeScans += R.RangeScans;
    C.Resident += Rels[I]->size();
  }
  for (const interp::RuleProfile &R : Eng->getProfiler().rules())
    C.HotRule = std::max(C.HotRule, R.Seconds);
  C.Execute = Exec;

  // util's CSV reader on the same fact files the engine just loaded.
  T.Phase["util.csv_read_s"].push_back(S.time("util.readFactFile", [&] {
    for (const auto &Rel : Prog->getRam().getRelations()) {
      if (!Rel->isInput())
        continue;
      const std::string Path =
          Facts + "/" +
          (Rel->getInputPath().empty() ? Rel->getName() + ".facts"
                                       : Rel->getInputPath());
      std::vector<FactError> Errors;
      readFactFile(Path, Rel->getColumnTypes(), Prog->getSymbolTable(),
                   &Errors);
    }
  }));
}

/// The untraced pipeline a user runs: compile, then run.
double untracedPass(const std::string &Source, const std::string &Facts,
                    const std::string &Out) {
  const double Start = now();
  auto Prog = core::Program::fromSource(Source);
  if (!Prog)
    die("compile failed");
  interp::EngineOptions Opts;
  Opts.FactDir = Facts;
  Opts.OutputDir = Out;
  Opts.EchoPrintSize = false;
  Prog->makeEngine(Opts)->run();
  return now() - Start;
}

inc::MixedBatch toMixed(const perfbench::Batch &B) {
  inc::MixedBatch Mixed;
  for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel) {
    inc::RelationOps Ops;
    Ops.Relation = perfbench::Edb[Rel].Name;
    for (const perfbench::Pair &P : B.Ops[Rel].Inserts)
      Ops.Inserts.push_back({P[0], P[1]});
    for (const perfbench::Pair &P : B.Ops[Rel].Retracts)
      Ops.Retracts.push_back({P[0], P[1]});
    if (!Ops.Inserts.empty() || !Ops.Retracts.empty())
      Mixed.push_back(std::move(Ops));
  }
  return Mixed;
}

inc::MixedBatch initialBatch(const perfbench::Model &M) {
  inc::MixedBatch Mixed;
  for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel) {
    inc::RelationOps Ops;
    Ops.Relation = perfbench::Edb[Rel].Name;
    for (const perfbench::Pair &P : M.live(Rel))
      Ops.Inserts.push_back({P[0], P[1]});
    Mixed.push_back(std::move(Ops));
  }
  return Mixed;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < Argc; I += 2)
    Args[Argv[I]] = Argv[I + 1];
  for (const char *Required :
       {"--jobs", "--work", "--seed", "--reps", "--spans"})
    if (!Args.count(Required))
      die(std::string("missing ") + Required);
  const std::uint64_t Seed = std::strtoull(Args["--seed"].c_str(), nullptr, 10);
  const int Reps = std::atoi(Args["--reps"].c_str());
  const std::string Out = Args["--work"];

  struct Job {
    std::string Source, Facts;
  };
  std::vector<Job> Jobs;
  {
    std::ifstream In(Args["--jobs"]);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line == "@serve") {
        // The serve-mixed program one-shot over its initial EDB.
        const perfbench::Model Model(Seed);
        const std::string Dir = Out + "/serve-facts";
        std::filesystem::create_directories(Dir);
        std::string Source = perfbench::ServeProgram;
        for (std::size_t Rel = 0; Rel < perfbench::NumEdb; ++Rel) {
          const std::string Name = perfbench::Edb[Rel].Name;
          Source += ".input " + Name + "\n";
          std::ofstream Facts(Dir + "/" + Name + ".facts");
          for (const perfbench::Pair &P : Model.live(Rel))
            Facts << P[0] << '\t' << P[1] << '\n';
        }
        Jobs.push_back({Source, Dir});
        continue;
      }
      const std::size_t Tab = Line.find('\t');
      if (Tab == std::string::npos)
        continue;
      Jobs.push_back({readFile(Line.substr(0, Tab)), Line.substr(Tab + 1)});
    }
  }
  if (Jobs.empty())
    die("no programs in " + Args["--jobs"]);

  Spans S;
  std::vector<ProgramTimes> Times(Jobs.size());
  std::vector<Counters> Count(Jobs.size());
  for (int Rep = 0; Rep < Reps; ++Rep)
    for (std::size_t I = 0; I < Jobs.size(); ++I) {
      S.setId("program-" + std::to_string(I) + "-rep-" + std::to_string(Rep));
      // The untraced and traced passes alternate in order between
      // repetitions, like the two compile totals, so neither always runs
      // on warmer caches.
      const bool Odd = Rep % 2 == 1;
      auto untraced = [&] {
        Times[I].Untraced.push_back(
            untracedPass(Jobs[I].Source, Jobs[I].Facts, Out));
      };
      if (!Odd)
        untraced();
      S.time("program", [&] {
        tracedPass(S, Jobs[I].Source, Jobs[I].Facts, Out, Odd, Times[I],
                   Count[I]);
      });
      if (Odd)
        untraced();
    }

  obs::json::Object M;
  auto put = [&M](const std::string &Name, double Value) {
    M.emplace_back(Name, Value);
  };
  // Each phase: per-program median over repetitions, summed over programs.
  std::map<std::string, double> Phase;
  double Untraced = 0, Traced = 0;
  for (const ProgramTimes &T : Times) {
    for (const auto &[Name, Values] : T.Phase)
      Phase[Name] += median(Values);
    Untraced += median(T.Untraced);
    Traced += median(T.Traced);
  }
  for (const auto &[Name, Value] : Phase)
    put(Name, Value);
  const double PhaseSum = Phase["ast.parse_s"] + Phase["ast.analyze_s"] +
                          Phase["translate.to_ram_s"] +
                          Phase["ram.transforms_s"] +
                          Phase["translate.index_select_s"];
  put("phase_sum_s", PhaseSum);
  put("obs.trace_overhead_share", (Traced - Untraced) / Untraced);

  // The hottest rule's share of execute time, weighted over programs by
  // their execute time.
  Counters Total;
  for (const Counters &C : Count) {
    Total.Dispatches += C.Dispatches;
    Total.Inserts += C.Inserts;
    Total.InsertsNew += C.InsertsNew;
    Total.PointLookups += C.PointLookups;
    Total.RangeScans += C.RangeScans;
    Total.Resident += C.Resident;
    Total.HotRule += C.HotRule;
    Total.Execute += C.Execute;
  }
  put("interp.dispatches", static_cast<double>(Total.Dispatches));
  put("interp.hot_rule_share",
      Total.Execute > 0 ? Total.HotRule / Total.Execute : 0);
  put("der.inserts", static_cast<double>(Total.Inserts));
  put("der.insert_new_ratio",
      Total.Inserts ? static_cast<double>(Total.InsertsNew) / Total.Inserts
                    : 0);
  put("der.point_lookups", static_cast<double>(Total.PointLookups));
  put("der.range_scans", static_cast<double>(Total.RangeScans));
  put("der.resident_tuples", static_cast<double>(Total.Resident));

  // inc: the serve-mixed batch stream through a standalone maintainer.
  {
    perfbench::Model Model(Seed);
    core::CompileOptions Compile;
    Compile.EmitMaintenance = true;
    auto Prog = core::Program::fromSource(perfbench::ServeProgram, nullptr,
                                          Compile);
    if (!Prog || !Prog->getRam().hasMaintenance())
      die("serve program has no maintenance plan");
    interp::EngineOptions Opts;
    Opts.SuppressIo = true;
    Opts.EchoPrintSize = false;
    auto Eng = Prog->makeEngine(Opts);
    for (const inc::RelationOps &Ops : initialBatch(Model))
      Eng->insertTuples(Ops.Relation, Ops.Inserts);
    Eng->run();
    inc::Maintainer Maint(Prog->getRam(), *Eng);
    Maint.bootstrap();
    std::vector<double> Apply;
    std::uint64_t Overdeleted = 0, Rederived = 0, Reeval = 0;
    for (int B = 0; B < Batches; ++B) {
      const perfbench::Batch Next = Model.next();
      const inc::MixedBatch Mixed = toMixed(Next);
      S.setId("batch-" + std::to_string(B));
      inc::MaintenanceReport Report;
      Apply.push_back(S.time("inc.Maintainer.apply",
                             [&] { Report = Maint.apply(Mixed); }));
      if (Report.Deleted != Next.Deleted || Report.Missing != Next.Missing ||
          Report.Inserted != Next.Inserted)
        die("inc::Maintainer::apply counts differ from the EDB model");
      Reeval += Report.ReevalStrata;
      for (const inc::StratumReport &SR : Report.Strata)
        if (SR.Strategy == ram::Program::MaintStrategy::DRed) {
          Overdeleted += SR.Deleted + SR.Rederived;
          Rederived += SR.Rederived;
        }
    }
    put("inc.apply_p50_ms", quantile(Apply, 0.5) * 1e3);
    put("inc.apply_p90_ms", quantile(Apply, 0.9) * 1e3);
    put("inc.overdeleted", static_cast<double>(Overdeleted));
    put("inc.rederived", static_cast<double>(Rederived));
    put("inc.rederive_ratio",
        Overdeleted ? static_cast<double>(Rederived) / Overdeleted : 0);
    put("inc.reeval_strata", static_cast<double>(Reeval));
  }

  // srv: the same stream through a resident session, then point queries
  // on snapshots and through the socketless request handler.
  {
    perfbench::Model Model(Seed);
    auto Session = srv::EngineSession::fromSource(perfbench::ServeProgram);
    if (!Session)
      die("serve program failed to compile");
    Session->applyMixed(initialBatch(Model));
    std::vector<double> Apply;
    for (int B = 0; B < Batches; ++B) {
      const inc::MixedBatch Mixed = toMixed(Model.next());
      S.setId("session-batch-" + std::to_string(B));
      Apply.push_back(S.time("srv.EngineSession.applyMixed",
                             [&] { Session->applyMixed(Mixed); }));
    }
    put("srv.session_apply_p50_ms", quantile(Apply, 0.5) * 1e3);
    put("srv.session_apply_p90_ms", quantile(Apply, 0.9) * 1e3);

    perfbench::Rng R(Seed + 99);
    std::vector<double> Snap, Handle;
    srv::TenantRegistry Tenants;
    Tenants.add("default", *Session);
    for (int Q = 0; Q < Queries; ++Q) {
      const int Key = perfbench::queryKey(R);
      S.setId("query-" + std::to_string(Q));
      Snap.push_back(S.time("srv.Snapshot.query", [&] {
        srv::Snapshot Snapshot = Session->snapshot();
        Snapshot.query("vpt", {Key, std::nullopt});
      }));
      const std::string Payload =
          "{\"cmd\":\"query\",\"relation\":\"vpt\",\"pattern\":[" +
          std::to_string(Key) + ",null]}";
      Handle.push_back(S.time("srv.handleRequest",
                              [&] { srv::handleRequest(Tenants, Payload); }));
    }
    put("srv.snapshot_query_p50_us", quantile(Snap, 0.5) * 1e6);
    put("srv.handle_request_p50_us", quantile(Handle, 0.5) * 1e6);
  }

  S.write(Args["--spans"]);
  std::printf("%s\n", obs::json::Value(std::move(M)).dump().c_str());
  return 0;
}
