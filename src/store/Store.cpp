//===- store/Store.cpp - Durable cross-run optimization store -------------===//

#include "store/Store.h"

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

using namespace ropt;
using namespace ropt::store;

namespace {

std::string hex64(uint64_t V) {
  return format("0x%016llx", static_cast<unsigned long long>(V));
}

uint64_t parseHex64(const std::string &S) {
  return std::strtoull(S.c_str(), nullptr, 16);
}

std::string provJson(const StoredProvenance &P) {
  json::Builder B;
  B.field("id", hex64(P.Id));
  B.field("device", P.Device);
  B.field("step", P.Step);
  B.field("time", static_cast<uint64_t>(P.Time));
  return std::move(B).str();
}

std::string entryJson(const StoredEntry &E) {
  json::Builder B;
  B.field("genome", E.Genome);
  B.field("hash", hex64(E.BinaryHash));
  B.field("code_size", E.CodeSize);
  {
    json::Builder A(/*Array=*/true);
    for (double S : E.Samples)
      A.element(S);
    B.fieldRaw("samples", std::move(A).str());
  }
  B.field("speedup", E.Speedup);
  {
    json::Builder A(/*Array=*/true);
    for (int D : E.Devices)
      A.element(static_cast<double>(D));
    B.fieldRaw("devices", std::move(A).str());
  }
  {
    json::Builder A(/*Array=*/true);
    for (int C : E.Classes)
      A.element(static_cast<double>(C));
    B.fieldRaw("classes", std::move(A).str());
  }
  B.field("reports", E.Reports);
  B.field("quarantined", E.Quarantined);
  B.field("verdict", E.RejectVerdict);
  B.field("last_report_tick", E.LastReportTick);
  B.field("expired", E.Expired);
  B.fieldRaw("prov", provJson(E.Prov));
  return std::move(B).str();
}

std::string classesJson(const StoredClassModel &M) {
  json::Builder B;
  B.field("k", M.K);
  B.field("dims", M.Dims);
  {
    json::Builder Rows(/*Array=*/true);
    for (const std::vector<double> &C : M.Centroids) {
      json::Builder Row(/*Array=*/true);
      for (double V : C)
        Row.element(V);
      Rows.elementRaw(std::move(Row).str());
    }
    B.fieldRaw("centroids", std::move(Rows).str());
  }
  {
    json::Builder A(/*Array=*/true);
    for (int V : M.Assignments)
      A.element(static_cast<double>(V));
    B.fieldRaw("assignments", std::move(A).str());
  }
  return std::move(B).str();
}

StoredProvenance decodeProv(const json::Value &V) {
  StoredProvenance P;
  P.Id = parseHex64(V.string("id", "0x0"));
  P.Device = json::toInteger<int>(V.number("device", -1));
  P.Step = json::toInteger<int>(V.number("step", 0));
  P.Time = json::toInteger<uint64_t>(V.number("time", 0));
  return P;
}

StoredEntry decodeEntry(const json::Value &V) {
  StoredEntry E;
  E.Genome = V.string("genome");
  E.BinaryHash = parseHex64(V.string("hash", "0x0"));
  E.CodeSize = json::toInteger<uint64_t>(V.number("code_size", 0));
  if (const json::Value *S = V.find("samples"))
    for (const json::Value &Elem : S->elements())
      E.Samples.push_back(Elem.asNumber());
  E.Speedup = V.number("speedup", 0.0);
  if (const json::Value *D = V.find("devices"))
    for (const json::Value &Elem : D->elements())
      E.Devices.push_back(json::toInteger<int>(Elem.asNumber()));
  if (const json::Value *C = V.find("classes"))
    for (const json::Value &Elem : C->elements())
      E.Classes.push_back(json::toInteger<int>(Elem.asNumber()));
  E.Reports = json::toInteger<int>(V.number("reports", 0));
  if (const json::Value *Q = V.find("quarantined"))
    E.Quarantined = Q->asBool();
  E.RejectVerdict = V.string("verdict");
  E.LastReportTick =
      json::toInteger<uint64_t>(V.number("last_report_tick", 0));
  if (const json::Value *X = V.find("expired"))
    E.Expired = X->asBool();
  if (const json::Value *P = V.find("prov"))
    E.Prov = decodeProv(*P);
  return E;
}

} // namespace

std::string store::serialize(const StoreState &S) {
  // Canonical app order: by name. The fleet server exports map-ordered
  // boards so this is usually a no-op, but the contract belongs to the
  // serializer — any producer yields the same bytes for the same state.
  std::vector<const StoredApp *> Apps;
  for (const StoredApp &A : S.Apps)
    Apps.push_back(&A);
  std::stable_sort(Apps.begin(), Apps.end(),
                   [](const StoredApp *A, const StoredApp *B) {
                     return A->Name < B->Name;
                   });

  json::Builder B;
  B.field("schema", CurrentSchema);
  B.field("tool", "ropt-store");
  B.field("nights", S.Nights);
  B.field("fleet_seed", S.FleetSeed);
  B.fieldRaw("classes", classesJson(S.Classes));
  {
    json::Builder AppArr(/*Array=*/true);
    for (const StoredApp *A : Apps) {
      json::Builder AB;
      AB.field("name", A->Name);
      json::Builder Entries(/*Array=*/true);
      for (const StoredEntry &E : A->Entries)
        Entries.elementRaw(entryJson(E));
      AB.fieldRaw("entries", std::move(Entries).str());
      AppArr.elementRaw(std::move(AB).str());
    }
    B.fieldRaw("apps", std::move(AppArr).str());
  }
  return std::move(B).str() + "\n";
}

DecodeResult store::deserialize(const std::string &Text) {
  DecodeResult Out;
  support::Result<json::Value> Parsed = json::parse(Text);
  if (!Parsed) {
    Out.Warning = "store: corrupt document (" + Parsed.error().Message +
                  "); starting cold";
    return Out;
  }
  const json::Value &V = Parsed.value();
  if (!V.isObject()) {
    Out.Warning = "store: document is not an object; starting cold";
    return Out;
  }
  double Schema = V.number("schema");
  if (Schema != CurrentSchema) {
    Out.Warning = format("store: unsupported schema %g (this build reads "
                         "%d); starting cold",
                         Schema, CurrentSchema);
    return Out;
  }

  StoreState &S = Out.State;
  S.Nights = json::toInteger<uint64_t>(V.number("nights", 0));
  S.FleetSeed = json::toInteger<uint64_t>(V.number("fleet_seed", 0));
  if (const json::Value *C = V.find("classes")) {
    S.Classes.K = json::toInteger<int>(C->number("k", 0));
    S.Classes.Dims = json::toInteger<int>(C->number("dims", 0));
    if (const json::Value *Cen = C->find("centroids"))
      for (const json::Value &Row : Cen->elements()) {
        std::vector<double> R;
        for (const json::Value &Elem : Row.elements())
          R.push_back(Elem.asNumber());
        S.Classes.Centroids.push_back(std::move(R));
      }
    if (const json::Value *A = C->find("assignments"))
      for (const json::Value &Elem : A->elements())
        S.Classes.Assignments.push_back(
            json::toInteger<int>(Elem.asNumber()));
  }
  if (const json::Value *Apps = V.find("apps")) {
    for (const json::Value &AV : Apps->elements()) {
      if (!AV.isObject())
        continue;
      StoredApp A;
      A.Name = AV.string("name");
      if (A.Name.empty())
        continue;
      if (const json::Value *Entries = AV.find("entries"))
        for (const json::Value &EV : Entries->elements())
          if (EV.isObject() && !EV.string("genome").empty())
            A.Entries.push_back(decodeEntry(EV));
      S.Apps.push_back(std::move(A));
    }
  }
  return Out;
}

std::string Store::path() const {
  return (std::filesystem::path(Dir) / "store.json").string();
}

Store::LoadResult Store::load() const {
  LoadResult Out;
  std::string P = path();
  std::FILE *F = std::fopen(P.c_str(), "rb");
  if (!F)
    return Out; // Missing store: a silent cold start.
  Out.Found = true;
  char Buf[1 << 14];
  size_t Read;
  while ((Read = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.RawBytes.append(Buf, Read);
  std::fclose(F);

  DecodeResult D = deserialize(Out.RawBytes);
  Out.State = std::move(D.State);
  Out.Warning = std::move(D.Warning);
  if (!Out.Warning.empty())
    Out.Warning += " (" + P + ")";
  return Out;
}

bool Store::save(const StoreState &S, std::string *Err) const {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    if (Err)
      *Err = "store: cannot create " + Dir + ": " + Ec.message();
    return false;
  }
  std::string Doc = serialize(S);
  std::string P = path();
  std::string Tmp = P + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "store: cannot write " + Tmp;
    return false;
  }
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    if (Err)
      *Err = "store: short write to " + Tmp;
    std::remove(Tmp.c_str());
    return false;
  }
  // Atomic publish: a crashed run leaves the previous night intact.
  std::filesystem::rename(Tmp, P, Ec);
  if (Ec) {
    if (Err)
      *Err = "store: rename to " + P + " failed: " + Ec.message();
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
