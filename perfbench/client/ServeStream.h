//===- perfbench/client/ServeStream.h - The serve-mixed stream -*- C++ -*-===//
//
// The serve-mixed workload's inputs, shared by the wire client and the
// layer tracer so both replay exactly the same facts and batches: a
// module-partitioned doop-like points-to program, its initial EDB, a seeded
// stream of mixed insert/retract batches, the benchmark's own EDB model with
// the reply counts each batch must produce, and an independent points-to
// fixpoint to check served relations against.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVESTREAM_H
#define PERFBENCH_SERVESTREAM_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace perfbench {

inline const char *ServeProgram =
    ".decl new(v:number, o:number)\n"
    ".decl assign(d:number, s:number)\n"
    ".decl load(d:number, s:number)\n"
    ".decl store(d:number, s:number)\n"
    ".decl vpt(v:number, o:number)\n"
    ".decl heap(o:number, p:number)\n"
    ".decl query(v:number)\n"
    "vpt(v, o) :- new(v, o).\n"
    "vpt(d, o) :- assign(d, s), vpt(s, o).\n"
    "heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).\n"
    "vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).\n"
    "query(v) :- vpt(v, o), new(_, o).\n";

using Pair = std::array<int, 2>;

/// SplitMix64: identical streams on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  std::uint64_t below(std::uint64_t Bound) { return next() % Bound; }

private:
  std::uint64_t State;
};

/// The four EDB relations. Values are drawn inside one partition block of
/// PartSize values (a program edit touches one module), with SkewPct of
/// draws forced into the hot partition 0.
struct EdbRelation {
  const char *Name;
  std::size_t Initial;
};
inline constexpr EdbRelation Edb[] = {
    {"new", 12000}, {"assign", 10000}, {"load", 4000}, {"store", 4000}};
inline constexpr std::size_t NumEdb = 4;
inline constexpr int Domain = 24000;
inline constexpr int PartSize = 12;
inline constexpr int SkewPct = 10;
/// Operations drawn per batch, and the share that retract a live tuple; a
/// further share retracts a fresh draw, which is usually absent (missing).
inline constexpr int OpsPerBatch = 4;
inline constexpr int RetractPct = 35;
inline constexpr int AbsentRetractPct = 5;

inline Pair drawPair(Rng &R) {
  const int Part = static_cast<int>(R.below(100)) < SkewPct
                       ? 0
                       : static_cast<int>(R.below(Domain / PartSize));
  return {Part * PartSize + static_cast<int>(R.below(PartSize)),
          Part * PartSize + static_cast<int>(R.below(PartSize))};
}

/// A point-query key for vpt: half of them from a small hot set, so the
/// epoch-invalidated query cache has repeats to serve.
inline int queryKey(Rng &R) {
  return R.below(2) ? static_cast<int>(R.below(16))
                    : static_cast<int>(R.below(Domain));
}

/// One relation's part of a batch, net of repeats (last operation wins).
struct RelOps {
  std::vector<Pair> Inserts, Retracts;
};

/// One batch plus the reply counts the model predicts for it.
struct Batch {
  std::array<RelOps, NumEdb> Ops;
  std::uint64_t Inserted = 0, Duplicates = 0, Deleted = 0, Missing = 0;
};

/// The EDB model: the set of live tuples per relation, advanced batch by
/// batch exactly as the wire protocol specifies (retractions first).
class Model {
public:
  explicit Model(std::uint64_t Seed) : R(Seed * 0x2545F4914F6CDD1DULL + 17) {
    for (std::size_t I = 0; I < NumEdb; ++I)
      while (Live[I].size() < Edb[I].Initial)
        Live[I].insert(drawPair(R));
  }

  const std::set<Pair> &live(std::size_t Rel) const { return Live[Rel]; }

  /// Draws the next batch and applies it to the model.
  Batch next() {
    std::array<std::map<Pair, bool>, NumEdb> Net; // tuple -> retract?
    for (int I = 0; I < OpsPerBatch; ++I) {
      const std::size_t Rel = R.below(NumEdb);
      const int Kind = static_cast<int>(R.below(100));
      if (Kind < RetractPct && !Live[Rel].empty()) {
        // A live tuple, found by a random probe into the ordered set.
        auto It = Live[Rel].lower_bound(drawPair(R));
        if (It == Live[Rel].end())
          It = Live[Rel].begin();
        Net[Rel][*It] = true;
      } else {
        Net[Rel][drawPair(R)] = Kind < RetractPct + AbsentRetractPct;
      }
    }
    Batch B;
    for (std::size_t Rel = 0; Rel < NumEdb; ++Rel)
      for (const auto &[T, Retract] : Net[Rel]) {
        const bool Present = Live[Rel].count(T) != 0;
        if (Retract) {
          B.Ops[Rel].Retracts.push_back(T);
          (Present ? B.Deleted : B.Missing) += 1;
          Live[Rel].erase(T);
        } else {
          B.Ops[Rel].Inserts.push_back(T);
          (Present ? B.Duplicates : B.Inserted) += 1;
          Live[Rel].insert(T);
        }
      }
    return B;
  }

private:
  Rng R;
  std::array<std::set<Pair>, NumEdb> Live;
};

/// The derived relations of ServeProgram, computed by a worklist fixpoint
/// over the model's EDB (independent of stird's evaluator).
struct Derived {
  std::set<Pair> Vpt, Heap;
  std::set<int> Query;
};

inline Derived fixpoint(const std::array<std::set<Pair>, NumEdb> &E) {
  const auto &New = E[0], &Assign = E[1], &Load = E[2], &Store = E[3];
  std::unordered_map<int, std::vector<int>> AssignTo, LoadTo, StoreD, StoreS;
  for (const Pair &P : Assign)
    AssignTo[P[1]].push_back(P[0]);
  for (const Pair &P : Load)
    LoadTo[P[1]].push_back(P[0]);
  for (const Pair &P : Store) {
    StoreD[P[0]].push_back(P[1]); // d -> s
    StoreS[P[1]].push_back(P[0]); // s -> d
  }
  // Pts: v -> objects; Holders: o -> variables pointing to it.
  std::unordered_map<int, std::unordered_set<int>> Pts, Holders, HeapOf;
  std::vector<Pair> Work;
  auto addVpt = [&](int V, int O) {
    if (Pts[V].insert(O).second) {
      Holders[O].insert(V);
      Work.push_back({V, O});
    }
  };
  std::vector<Pair> HeapWork;
  auto addHeap = [&](int O, int P) {
    if (HeapOf[O].insert(P).second)
      HeapWork.push_back({O, P});
  };
  for (const Pair &P : New)
    addVpt(P[0], P[1]);
  while (!Work.empty() || !HeapWork.empty()) {
    while (!Work.empty()) {
      const auto [V, O] = Work.back();
      Work.pop_back();
      if (auto It = AssignTo.find(V); It != AssignTo.end())
        for (int D : It->second)
          addVpt(D, O);
      // heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p): V as d or as s.
      if (auto It = StoreD.find(V); It != StoreD.end())
        for (int S : It->second)
          for (int P : std::vector<int>(Pts[S].begin(), Pts[S].end()))
            addHeap(O, P);
      if (auto It = StoreS.find(V); It != StoreS.end())
        for (int D : It->second)
          for (int Ob : std::vector<int>(Pts[D].begin(), Pts[D].end()))
            addHeap(Ob, O);
      // vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p): V as s.
      if (auto It = LoadTo.find(V); It != LoadTo.end())
        for (int D : It->second)
          for (int P : std::vector<int>(HeapOf[O].begin(), HeapOf[O].end()))
            addVpt(D, P);
    }
    while (!HeapWork.empty()) {
      const auto [O, P] = HeapWork.back();
      HeapWork.pop_back();
      // Every load(d, s) with o in pts(s) now reaches p.
      for (int S : std::vector<int>(Holders[O].begin(), Holders[O].end()))
        if (auto It = LoadTo.find(S); It != LoadTo.end())
          for (int D : It->second)
            addVpt(D, P);
    }
  }
  Derived Out;
  std::unordered_set<int> Objects;
  for (const Pair &P : New)
    Objects.insert(P[1]);
  for (const auto &[V, Os] : Pts)
    for (int O : Os) {
      Out.Vpt.insert({V, O});
      if (Objects.count(O))
        Out.Query.insert(V);
    }
  for (const auto &[O, Ps] : HeapOf)
    for (int P : Ps)
      Out.Heap.insert({O, P});
  return Out;
}

} // namespace perfbench

#endif // PERFBENCH_SERVESTREAM_H
