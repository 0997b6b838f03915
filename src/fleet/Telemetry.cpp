//===- fleet/Telemetry.cpp - Coordinator-side telemetry hub ---------------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fleet/Telemetry.h"

#include <algorithm>

namespace ropt {
namespace fleet {

TelemetryHub::TelemetryHub(std::string App, int Devices, int NumClasses,
                           size_t EventsPerDevice)
    : App(std::move(App)), Devices(Devices),
      NumClasses(NumClasses < 1 ? 1 : NumClasses),
      EventsPerDevice(EventsPerDevice < 8 ? 8 : EventsPerDevice),
      DeviceClass(static_cast<size_t>(Devices), 0),
      Buffers(static_cast<size_t>(Devices) + 1) {
  Classes.resize(static_cast<size_t>(this->NumClasses));
  for (int C = 0; C < this->NumClasses; ++C)
    Classes[static_cast<size_t>(C)].ClassId = C;
}

void TelemetryHub::setDeviceClass(int Device, int ClassId) {
  ClassId %= NumClasses;
  DeviceClass[static_cast<size_t>(Device)] = ClassId;
  ++Classes[static_cast<size_t>(ClassId)].Devices;
}

void TelemetryHub::push(int Device, analysis::FleetTraceEvent E) {
  E.Seq = NextSeq++;
  E.Device = Device;
  E.Track = Device < 0 ? -1 : DeviceClass[static_cast<size_t>(Device)];
  std::deque<analysis::FleetTraceEvent> &Buf =
      Buffers[static_cast<size_t>(Device + 1)];
  if (Buf.size() >= EventsPerDevice) {
    Buf.pop_front(); // Drop-oldest, like the bounded TraceRecorder.
    ++Dropped;
    ROPT_METRIC_INC("fleet.telemetry_dropped");
  }
  Buf.push_back(std::move(E));
}

ProvenanceChain &TelemetryHub::chainFor(const Provenance &P,
                                        const std::string &Key) {
  ProvenanceChain &C = Chains[P.Id];
  if (C.Id == 0) {
    C.Id = P.Id;
    C.Key = Key;
    C.Device = P.Device;
    C.Step = P.Step;
    C.DiscoveryTime = P.Time;
  }
  return C;
}

void TelemetryHub::onJoin(int Device, VirtualTime At) {
  analysis::FleetTraceEvent E;
  E.K = analysis::FleetTraceEvent::Kind::Join;
  E.Time = At;
  E.Name = "join d" + std::to_string(Device);
  push(Device, std::move(E));
}

void TelemetryHub::onLeave(int Device, VirtualTime At) {
  analysis::FleetTraceEvent E;
  E.K = analysis::FleetTraceEvent::Kind::Leave;
  E.Time = At;
  E.Name = "leave d" + std::to_string(Device);
  push(Device, std::move(E));
}

void TelemetryHub::onDelivery(bool HintChannel, int Device, VirtualTime Send,
                              VirtualTime Arrive) {
  analysis::FleetTraceEvent E;
  E.K = analysis::FleetTraceEvent::Kind::Delivery;
  E.Time = Send;
  E.EndTime = Arrive;
  E.FlowId = NextFlowId++;
  E.Name = (HintChannel ? "hints d" : "report d") + std::to_string(Device);
  push(Device, std::move(E));
}

void TelemetryHub::onMerge(int Device, VirtualTime At) {
  analysis::FleetTraceEvent E;
  E.K = analysis::FleetTraceEvent::Kind::Merge;
  E.Time = At;
  E.Name = "merge d" + std::to_string(Device);
  push(-1, std::move(E)); // Server track.
}

void TelemetryHub::onGenomeMerged(const Provenance &P, const std::string &Key,
                                  VirtualTime At) {
  if (P.Id == 0)
    return;
  ProvenanceChain &C = chainFor(P, Key);
  if (C.FirstMergeTime == 0)
    C.FirstMergeTime = At;
}

void TelemetryHub::onHintArrival(int Device, const Provenance &P,
                                 const std::string &Key, VirtualTime At) {
  if (P.Id == 0)
    return;
  ProvenanceChain &C = chainFor(P, Key);
  ++C.Arrivals;
  // Injected hints (Device -1) have no discovery time, and a restored
  // chain's discovery is on a prior run's clock; only chains minted on a
  // real device *this run* get a latency observation.
  if (P.Device >= 0 && !C.Restored && At >= P.Time) {
    uint64_t Lat = At - P.Time;
    C.LatencyTicksTotal += Lat;
    int Cls = DeviceClass[static_cast<size_t>(Device)];
    Classes[static_cast<size_t>(Cls)].Sketches.HintLatency.observe(
        static_cast<double>(Lat));
    ROPT_METRIC_OBSERVE("fleet.hint_latency", static_cast<double>(Lat),
                        (sketchBounds(SketchKind::HintLatency)));
  }
}

void TelemetryHub::onAdoption(int Device, uint64_t ProvId, VirtualTime At) {
  auto It = Chains.find(ProvId);
  if (It == Chains.end())
    return;
  ProvenanceChain &C = It->second;
  if (C.Adoptions == 0) {
    C.FirstAdoptDevice = Device;
    C.FirstAdoptTime = At;
  }
  ++C.Adoptions;
}

void TelemetryHub::onRejection(int Device, uint64_t ProvId) {
  int Cls = DeviceClass[static_cast<size_t>(Device)];
  ++Classes[static_cast<size_t>(Cls)].Quarantines;
  auto It = Chains.find(ProvId);
  if (It != Chains.end())
    ++It->second.Rejections;
}

void TelemetryHub::onStep(int Device, int StepIndex, VirtualTime Start,
                          VirtualTime End, double BestSpeedup) {
  int Cls = DeviceClass[static_cast<size_t>(Device)];
  ClassTelemetry &CT = Classes[static_cast<size_t>(Cls)];
  CT.Sketches.StepTicks.observe(static_cast<double>(End - Start));
  if (BestSpeedup > 0.0)
    CT.Sketches.Speedup.observe(BestSpeedup);

  analysis::FleetTraceEvent E;
  E.K = analysis::FleetTraceEvent::Kind::Step;
  E.Time = Start;
  E.Duration = End - Start;
  E.Value = BestSpeedup;
  E.Name = "step " + std::to_string(StepIndex);
  push(Device, std::move(E));
}

void TelemetryHub::markWinner(uint64_t ProvId) {
  auto It = Chains.find(ProvId);
  if (It != Chains.end())
    It->second.Won = true;
}

void TelemetryHub::markRestored(const Provenance &P, const std::string &Key) {
  if (P.Id == 0)
    return;
  chainFor(P, Key).Restored = true;
}

FleetTelemetry TelemetryHub::telemetry() const {
  FleetTelemetry Out;
  Out.App = App;
  Out.Devices = Devices;
  Out.Classes = Classes;
  for (const ClassTelemetry &C : Out.Classes)
    Out.Total += C.Sketches;
  Out.Chains.reserve(Chains.size());
  for (const auto &KV : Chains)
    Out.Chains.push_back(KV.second);
  std::stable_sort(Out.Chains.begin(), Out.Chains.end(),
                   [](const ProvenanceChain &A, const ProvenanceChain &B) {
                     if (A.DiscoveryTime != B.DiscoveryTime)
                       return A.DiscoveryTime < B.DiscoveryTime;
                     return A.Id < B.Id;
                   });
  Out.DroppedEvents = Dropped;
  return Out;
}

std::vector<analysis::FleetTraceEvent> TelemetryHub::traceEvents() const {
  std::vector<analysis::FleetTraceEvent> Out;
  size_t Total = 0;
  for (const auto &Buf : Buffers)
    Total += Buf.size();
  Out.reserve(Total);
  for (const auto &Buf : Buffers)
    for (const analysis::FleetTraceEvent &E : Buf)
      Out.push_back(E);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const analysis::FleetTraceEvent &A,
                      const analysis::FleetTraceEvent &B) {
                     if (A.Time != B.Time)
                       return A.Time < B.Time;
                     return A.Seq < B.Seq;
                   });
  return Out;
}

} // namespace fleet
} // namespace ropt
