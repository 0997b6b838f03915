//===- tests/StoreTests.cpp - Persistent optimization service -------------===//
//
// The durable cross-run store's acceptance criteria (DESIGN.md §17):
//
//   (a) serialize() is canonical and deserialize() is its exact inverse
//       for current-schema documents — load -> save is a byte fixed
//       point, so store bytes are comparable across --jobs and reruns;
//   (b) load() never fails the caller: missing file -> silent cold
//       start; corrupt/truncated/other-schema -> cold start + warning;
//       a sparse document decodes absent fields to defaults;
//   (c) the k-means device classing is a pure function of (points, K,
//       seed) with stable lexicographic class ids and no empty classes;
//   (d) Server::exportState/importState round-trip every board byte-for-
//       byte — including the quarantine set, which must keep blocking
//       injectHint() after a reload;
//   (e) parseGenome() inverts Genome::name() for arbitrary genomes.
//
//===----------------------------------------------------------------------===//

#include "store/KMeans.h"
#include "store/Store.h"

#include "fleet/Server.h"
#include "search/Genome.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

using namespace ropt;

namespace {

store::StoredEntry makeEntry(const std::string &Genome, double Speedup,
                             bool Quarantined = false) {
  store::StoredEntry E;
  E.Genome = Genome;
  E.BinaryHash = 0xdeadbeef12345678ull;
  E.CodeSize = 4096;
  E.Samples = {Speedup - 0.1, Speedup, Speedup + 0.1};
  E.Speedup = Speedup;
  E.Devices = {-1, 0, 3};
  E.Classes = {0, 2};
  E.Reports = 3;
  E.Quarantined = Quarantined;
  if (Quarantined)
    E.RejectVerdict = "wrong-output";
  E.LastReportTick = 1234;
  E.Prov.Id = 0x0123456789abcdefull;
  E.Prov.Device = 3;
  E.Prov.Step = 1;
  E.Prov.Time = 987;
  return E;
}

store::StoreState sampleState() {
  store::StoreState S;
  S.Nights = 2;
  S.FleetSeed = 42;
  S.Classes.K = 2;
  S.Classes.Dims = 3;
  S.Classes.Centroids = {{0.5, 1.0, 1.5}, {2.0, 2.5, 3.0}};
  S.Classes.Assignments = {0, 1, 0, 1};
  // Deliberately unsorted app order: serialize() owns the canonical
  // by-name ordering.
  store::StoredApp B;
  B.Name = "Zed";
  B.Entries.push_back(makeEntry("gvn,dce", 1.5));
  store::StoredApp A;
  A.Name = "App";
  A.Entries.push_back(makeEntry("licm!,loop-unroll=4|ra=freq", 2.25));
  A.Entries.push_back(makeEntry("sink,dce", 1.125, /*Quarantined=*/true));
  S.Apps.push_back(B);
  S.Apps.push_back(A);
  return S;
}

std::string tempStoreDir(const char *Name) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / "ropt_store_tests" / Name;
  std::filesystem::remove_all(P);
  return P.string();
}

} // namespace

// --- Canonical serialization ------------------------------------------------

TEST(StoreFormat, SerializeDeserializeIsByteFixedPoint) {
  store::StoreState S = sampleState();
  std::string Doc = store::serialize(S);
  // Canonical shape: apps by name, hex identities, trailing newline.
  EXPECT_NE(Doc.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"hash\":\"0xdeadbeef12345678\""), std::string::npos);
  EXPECT_LT(Doc.find("\"name\":\"App\""), Doc.find("\"name\":\"Zed\""));
  EXPECT_EQ(Doc.back(), '\n');

  store::DecodeResult D = store::deserialize(Doc);
  EXPECT_TRUE(D.Warning.empty()) << D.Warning;
  // The fixed point: decode -> re-encode reproduces the exact bytes.
  EXPECT_EQ(store::serialize(D.State), Doc);

  // And the decoded state is faithful, not just re-printable.
  ASSERT_EQ(D.State.Apps.size(), 2u);
  EXPECT_EQ(D.State.Apps[0].Name, "App");
  ASSERT_EQ(D.State.Apps[0].Entries.size(), 2u);
  EXPECT_EQ(D.State.Apps[0].Entries[0].Genome,
            "licm!,loop-unroll=4|ra=freq");
  EXPECT_TRUE(D.State.Apps[0].Entries[1].Quarantined);
  EXPECT_EQ(D.State.Apps[0].Entries[1].RejectVerdict, "wrong-output");
  EXPECT_EQ(D.State.Apps[0].Entries[0].Prov.Id, 0x0123456789abcdefull);
  EXPECT_EQ(D.State.Apps[0].Entries[0].Devices,
            (std::vector<int>{-1, 0, 3}));
  EXPECT_EQ(D.State.Classes.K, 2);
  EXPECT_EQ(D.State.Classes.Centroids[1][2], 3.0);
  EXPECT_EQ(D.State.Nights, 2u);
}

TEST(StoreFormat, CorruptAndTruncatedDocumentsColdStartWithWarning) {
  store::DecodeResult Garbage = store::deserialize("not json at all");
  EXPECT_FALSE(Garbage.Warning.empty());
  EXPECT_TRUE(Garbage.State.Apps.empty());

  std::string Doc = store::serialize(sampleState());
  store::DecodeResult Truncated =
      store::deserialize(Doc.substr(0, Doc.size() / 2));
  EXPECT_FALSE(Truncated.Warning.empty());
  EXPECT_TRUE(Truncated.State.Apps.empty());

  store::DecodeResult NotObject = store::deserialize("[1,2,3]");
  EXPECT_FALSE(NotObject.Warning.empty());
  EXPECT_TRUE(NotObject.State.Apps.empty());
}

TEST(StoreFormat, DeserializeSurvivesRandomCorruption) {
  // Seeded truncations and bit flips of a real store document: each
  // either starts cold with a warning or decodes to a state that is
  // itself a valid store — its canonical form decodes back to itself.
  std::string Doc = store::serialize(sampleState());
  Rng R(0x5702e);
  int Decoded = 0, Cold = 0;
  for (int I = 0; I != 4000; ++I) {
    std::string Bad = Doc;
    uint64_t Mode = R.below(3);
    if (Mode != 1)
      Bad.resize(R.below(Bad.size() + 1));
    if (Mode != 0 && !Bad.empty())
      for (uint64_t F = 0, N = 1 + R.below(4); F != N; ++F)
        Bad[R.below(Bad.size())] ^= static_cast<char>(1u << R.below(8));
    store::DecodeResult D = store::deserialize(Bad);
    if (!D.Warning.empty()) {
      EXPECT_TRUE(D.State.Apps.empty());
      EXPECT_EQ(D.State.Nights, 0u);
      ++Cold;
      continue;
    }
    std::string Canonical = store::serialize(D.State);
    store::DecodeResult Again = store::deserialize(Canonical);
    EXPECT_TRUE(Again.Warning.empty()) << Again.Warning << "\n" << Bad;
    EXPECT_EQ(store::serialize(Again.State), Canonical);
    ++Decoded;
  }
  EXPECT_GT(Decoded, 0);
  EXPECT_GT(Cold, 0);
}

TEST(StoreFormat, OtherSchemaColdStartsWithWarning) {
  // Only CurrentSchema loads: older, newer and missing schemas all start
  // cold with the one warning.
  for (const char *Schema : {"0", "2", "99"}) {
    store::DecodeResult D = store::deserialize(
        std::string("{\"schema\":") + Schema +
        ",\"apps\":[{\"name\":\"App\",\"entries\":[]}]}");
    EXPECT_EQ(D.Warning, std::string("store: unsupported schema ") + Schema +
                             " (this build reads 1); starting cold");
    EXPECT_TRUE(D.State.Apps.empty());
  }
  EXPECT_FALSE(store::deserialize("{\"apps\":[]}").Warning.empty());
}

TEST(StoreFormat, SparseDocumentDecodesMissingFieldsToDefaults) {
  // A sparse (hand-written or damaged) document: every absent field
  // decodes to its default, and entries without a genome key are skipped
  // rather than trusted.
  store::DecodeResult D = store::deserialize(
      "{\"schema\":1,\"apps\":[{\"name\":\"App\",\"entries\":["
      "{\"genome\":\"gvn,dce\",\"speedup\":1.5},"
      "{\"speedup\":9.9}]}]}");
  EXPECT_TRUE(D.Warning.empty()) << D.Warning;
  EXPECT_EQ(D.State.Nights, 0u);
  EXPECT_EQ(D.State.Classes.K, 0);
  ASSERT_EQ(D.State.Apps.size(), 1u);
  ASSERT_EQ(D.State.Apps[0].Entries.size(), 1u);
  const store::StoredEntry &E = D.State.Apps[0].Entries[0];
  EXPECT_EQ(E.Genome, "gvn,dce");
  EXPECT_EQ(E.Speedup, 1.5);
  EXPECT_EQ(E.Reports, 0);
  EXPECT_FALSE(E.Quarantined);
  EXPECT_EQ(E.Prov.Id, 0u);
  EXPECT_EQ(E.Prov.Device, -1);
}

// --- Disk round trip --------------------------------------------------------

TEST(StoreIO, SaveLoadRoundTripsAtomically) {
  std::string Dir = tempStoreDir("roundtrip");
  store::Store St(Dir);

  // Missing store: a silent cold start, no warning.
  store::Store::LoadResult Missing = St.load();
  EXPECT_FALSE(Missing.Found);
  EXPECT_TRUE(Missing.Warning.empty());

  store::StoreState S = sampleState();
  std::string Err;
  ASSERT_TRUE(St.save(S, &Err)) << Err;
  // Atomic publish: no tmp file left behind.
  EXPECT_FALSE(std::filesystem::exists(St.path() + ".tmp"));

  store::Store::LoadResult L = St.load();
  ASSERT_TRUE(L.Found);
  EXPECT_TRUE(L.Warning.empty()) << L.Warning;
  EXPECT_EQ(L.RawBytes, store::serialize(S));

  // load -> save is a byte fixed point on disk too.
  ASSERT_TRUE(St.save(L.State, &Err)) << Err;
  store::Store::LoadResult L2 = St.load();
  EXPECT_EQ(L2.RawBytes, L.RawBytes);

  // A corrupt store on disk cold-starts with a warning naming the path.
  std::FILE *F = std::fopen(St.path().c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("{\"schema\":1,", F);
  std::fclose(F);
  store::Store::LoadResult Corrupt = St.load();
  EXPECT_TRUE(Corrupt.Found);
  EXPECT_FALSE(Corrupt.Warning.empty());
  EXPECT_NE(Corrupt.Warning.find(St.path()), std::string::npos);
  EXPECT_TRUE(Corrupt.State.Apps.empty());

  std::filesystem::remove_all(Dir);
}

// --- K-means device classing ------------------------------------------------

TEST(StoreKMeans, DeterministicWithStableLexicographicIds) {
  // Three well-separated blobs in 2D, deliberately interleaved.
  std::vector<std::vector<double>> Points = {
      {10.0, 10.0}, {0.1, 0.0}, {5.0, 5.1}, {0.0, 0.2},  {10.1, 9.9},
      {5.1, 4.9},   {0.2, 0.1}, {9.9, 10.2}, {5.0, 5.0},
  };
  store::KMeansResult A = store::kmeans(Points, 3, /*Seed=*/1);
  store::KMeansResult B = store::kmeans(Points, 3, /*Seed=*/1);
  EXPECT_EQ(A.Centroids, B.Centroids);
  EXPECT_EQ(A.Assignment, B.Assignment);

  // Lexicographic centroid order: class 0 is the blob at the origin,
  // class 1 the middle one, class 2 the far one — independent of which
  // random point seeded which cluster.
  ASSERT_EQ(A.Centroids.size(), 3u);
  EXPECT_LT(A.Centroids[0][0], A.Centroids[1][0]);
  EXPECT_LT(A.Centroids[1][0], A.Centroids[2][0]);
  EXPECT_EQ(A.Assignment,
            (std::vector<int>{2, 0, 1, 0, 2, 1, 0, 2, 1}));

  // Perfect separation converges well under the iteration cap.
  EXPECT_LE(A.Iterations, 24);
}

TEST(StoreKMeans, ClampsKAndNeverEmitsEmptyClasses) {
  // K greater than the population: clamped to one class per point.
  std::vector<std::vector<double>> Two = {{1.0}, {2.0}};
  store::KMeansResult R = store::kmeans(Two, 8, /*Seed=*/7);
  EXPECT_EQ(R.Centroids.size(), 2u);

  // Duplicated points invite empty clusters; every class id must still
  // have at least one member (an empty class would cost a full pipeline
  // setup for nobody).
  std::vector<std::vector<double>> Dups = {
      {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0},
      {9.0, 9.0}, {9.0, 9.0}, {3.0, 3.0}, {3.0, 3.0},
  };
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    store::KMeansResult D = store::kmeans(Dups, 3, Seed);
    ASSERT_EQ(D.Centroids.size(), 3u);
    std::set<int> Used(D.Assignment.begin(), D.Assignment.end());
    EXPECT_EQ(Used.size(), 3u) << "seed " << Seed;
    for (int C : D.Assignment) {
      EXPECT_GE(C, 0);
      EXPECT_LT(C, 3);
    }
  }

  // Empty input and K=0 degenerate cleanly.
  EXPECT_TRUE(store::kmeans({}, 3, 1).Centroids.empty());
  EXPECT_TRUE(store::kmeans(Two, 0, 1).Centroids.empty());
}

// --- Genome string round trip -----------------------------------------------

TEST(StoreGenome, ParseGenomeInvertsName) {
  // Random genomes: name -> parse -> name is exact, including integer
  // parameters, aggressive flags and the register-allocator suffix.
  search::GenomeConfig Config;
  Rng R(1234);
  for (int I = 0; I != 64; ++I) {
    search::Genome G = search::randomGenome(R, Config);
    if (I % 3 == 0)
      G.RegAlloc = hgraph::RegAllocKind::Frequency;
    else if (I % 3 == 1)
      G.RegAlloc = hgraph::RegAllocKind::None;
    search::Genome Parsed;
    ASSERT_TRUE(search::parseGenome(G.name(), Parsed)) << G.name();
    EXPECT_EQ(Parsed.name(), G.name());
    EXPECT_TRUE(Parsed == G);
  }

  // The empty string is the empty genome.
  search::Genome Empty;
  ASSERT_TRUE(search::parseGenome("", Empty));
  EXPECT_TRUE(Empty.Passes.empty());

  // Unknown spellings fail without touching the output.
  search::Genome Out;
  Out.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
  EXPECT_FALSE(search::parseGenome("gvn,no-such-pass", Out));
  EXPECT_FALSE(search::parseGenome("gvn|ra=bogus", Out));
  ASSERT_EQ(Out.Passes.size(), 1u);
}

// --- Server export/import ---------------------------------------------------

namespace {

fleet::GenomeReport storeGenomeReport(const search::Genome &G,
                                      uint64_t Hash,
                                      std::vector<double> Speedups) {
  fleet::GenomeReport R;
  R.G = G;
  R.Key = G.name();
  R.BinaryHash = Hash;
  R.SpeedupSamples = std::move(Speedups);
  R.SpeedupMedian = R.SpeedupSamples[R.SpeedupSamples.size() / 2];
  R.Prov.Id = Hash * 0x9e3779b97f4a7c15ull;
  R.Prov.Device = 0;
  R.Prov.Time = 17;
  return R;
}

/// A server with two apps, classed reports, one quarantined entry.
void populate(fleet::Server &Srv) {
  search::Genome G1, G2, G3;
  G1.Passes.push_back(lir::PassInstance{lir::PassId::Gvn, 0, false});
  G1.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
  G2.Passes.push_back(lir::PassInstance{lir::PassId::Licm, 0, true});
  G2.Passes.push_back(
      lir::PassInstance{lir::PassId::LoopUnroll, 4, false});
  G2.RegAlloc = hgraph::RegAllocKind::Frequency;
  G3.Passes.push_back(lir::PassInstance{lir::PassId::Sink, 0, false});
  G3.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});

  fleet::StepReport R0;
  R0.Device = 0;
  R0.DeviceClass = 0;
  R0.Best.push_back(storeGenomeReport(G1, 0xaaa, {1.2, 1.3, 1.4}));
  R0.Best.push_back(storeGenomeReport(G2, 0xbbb, {2.0, 2.1, 2.2}));
  Srv.merge("App", R0, /*Now=*/100);

  fleet::StepReport R1;
  R1.Device = 3;
  R1.DeviceClass = 1;
  R1.Best.push_back(storeGenomeReport(G1, 0xaaa, {1.5, 1.6, 1.7}));
  R1.Best.push_back(storeGenomeReport(G3, 0xccc, {1.05, 1.06, 1.07}));
  Srv.merge("App", R1, /*Now=*/140);
  Srv.merge("Other", R1, /*Now=*/150);

  // Quarantine G3: the reload must keep blocking it.
  fleet::StepReport Rej;
  Rej.Device = 1;
  Rej.Rejections.push_back(
      fleet::HintRejection{G3.name(), "wrong-output", 0});
  Srv.merge("App", Rej, /*Now=*/160);
}

} // namespace

TEST(StoreServer, ExportImportExportIsIdentity) {
  fleet::Server Srv;
  populate(Srv);

  store::StoreState S1;
  Srv.exportState(S1);
  ASSERT_EQ(S1.Apps.size(), 2u);

  fleet::Server Restored;
  std::vector<std::string> Warnings;
  size_t N = Restored.importState(S1, &Warnings);
  EXPECT_TRUE(Warnings.empty());
  EXPECT_EQ(N, 5u);
  EXPECT_EQ(Restored.stats().EntriesRestored, 5u);

  // The round trip is exact at the byte level — the property that makes
  // a warm night's load -> save a fixed point.
  store::StoreState S2;
  Restored.exportState(S2);
  EXPECT_EQ(store::serialize(S2), store::serialize(S1));

  // Boards behave identically: same hint sets, same apps.
  EXPECT_EQ(Restored.apps(), Srv.apps());
  std::vector<fleet::Hint> A = Srv.hints("App");
  std::vector<fleet::Hint> B = Restored.hints("App");
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Key, B[I].Key);
    EXPECT_EQ(A[I].Speedup, B[I].Speedup);
    EXPECT_EQ(A[I].Prov.Id, B[I].Prov.Id);
  }
}

TEST(StoreServer, QuarantineSurvivesReloadAndKeepsBlockingInjection) {
  fleet::Server Srv;
  populate(Srv);
  store::StoreState S;
  Srv.exportState(S);

  fleet::Server Restored;
  Restored.importState(S);

  // The quarantined genome stays quarantined after the reload...
  search::Genome G3;
  G3.Passes.push_back(lir::PassInstance{lir::PassId::Sink, 0, false});
  G3.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
  for (const fleet::Hint &H : Restored.hints("App"))
    EXPECT_NE(H.Key, G3.name());

  // ...and injectHint cannot resurrect it.
  Restored.injectHint("App", G3, 99.0);
  EXPECT_EQ(Restored.stats().InjectionsDropped, 1u);
  for (const fleet::Hint &H : Restored.hints("App"))
    EXPECT_NE(H.Key, G3.name());
}

TEST(StoreServer, ImportSkipsUnparseableEntriesButKeepsQuarantineKeys) {
  store::StoreState S;
  store::StoredApp A;
  A.Name = "App";
  A.Entries.push_back(makeEntry("gvn,dce", 1.5));
  // An unparseable non-quarantined entry is dropped with a warning...
  A.Entries.push_back(makeEntry("no-such-pass,dce", 2.0));
  // ...but an unparseable *quarantined* entry keeps its key: the key
  // alone must keep blocking injection.
  A.Entries.push_back(
      makeEntry("other-unknown-pass", 3.0, /*Quarantined=*/true));
  S.Apps.push_back(A);

  fleet::Server Srv;
  std::vector<std::string> Warnings;
  size_t N = Srv.importState(S, &Warnings);
  EXPECT_EQ(N, 2u);
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].find("no-such-pass"), std::string::npos);

  std::vector<fleet::Hint> H = Srv.hints("App");
  ASSERT_EQ(H.size(), 1u);
  EXPECT_EQ(H[0].Key, "gvn,dce");
}
