//===- core/AppInstance.h - A booted application process --------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One running application: a simulated kernel + process + runtime with
/// the app's dex file loaded, init() executed, and (by default) every
/// compilable method AOT-compiled with the stock Android pipeline — the
/// out-of-the-box device state the paper's baseline represents.
///
/// An app boots once: a BootImage runs init() and keeps the result, and
/// every AppInstance is a fork of an image, the way an Android app process
/// starts from the zygote instead of from scratch (DESIGN.md §24).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CORE_APP_INSTANCE_H
#define ROPT_CORE_APP_INSTANCE_H

#include "os/Kernel.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <memory>
#include <optional>

namespace ropt {
namespace core {

/// Code installed at boot.
enum class BootCode {
  AndroidCompiled, ///< Stock pipeline for every compilable method.
  InterpretOnly,   ///< Nothing compiled.
};

/// An application booted once: its address space right after init() and
/// the runtime state init() left (vm::BootState). It boots without cycle
/// attribution; each fork chooses its own. An image lives as long as its
/// owner and pins, copy-on-write, the pages its forks have not written.
class BootImage {
public:
  /// Boots \p App: maps the standard layout, installs \p Code and runs
  /// init() with the environment seeded by \p Seed.
  BootImage(const workloads::Application &App, uint64_t Seed,
            BootCode Code = BootCode::AndroidCompiled);
  BootImage(const BootImage &) = delete;
  BootImage &operator=(const BootImage &) = delete;

  /// init()'s result. A trapped init() leaves a half-built heap; forks of
  /// such an image still run, but their sessions mean nothing.
  const vm::CallResult &init() const { return Init; }

  /// True when a fork seeded with \p Seed equals a boot at \p Seed. That
  /// holds for every seed when init() read no environment (the seed only
  /// reaches the app through the input queue and the environment RNG),
  /// and otherwise only for the seed the image booted with.
  bool serves(uint64_t Seed) const {
    return State.EnvironmentReads == 0 || Seed == BootSeed;
  }

  /// This image when it serves \p Seed; otherwise a new image of the same
  /// app and boot code booted at \p Seed, which \p Spare then owns.
  BootImage &forSeed(uint64_t Seed, std::optional<BootImage> &Spare);

  const workloads::Application &app() const { return App; }

private:
  friend class AppInstance;

  workloads::Application App;
  uint64_t BootSeed;
  BootCode Code;
  os::AddressSpace Space;
  vm::BootState State;
  /// The environment RNG after init(); a fork continues it when init()
  /// drew from the environment.
  Rng EnvRng;
  vm::CallResult Init;
  /// Forks made so far. The first takes over the init() the image ran for
  /// it; each later one adopts that work (pipeline.boot_shared_*).
  mutable uint64_t Forks = 0;
};

class AppInstance {
public:
  using BootCode = core::BootCode;

  /// Forks \p Image, which must serve \p Seed and whose init() must not
  /// have trapped: a fresh kernel process over a copy-on-write clone of
  /// the image's pages, a runtime that takes over the image's state, and
  /// input and environment streams seeded by \p Seed. \p AttributeCycles
  /// turns on the per-method profile, which starts empty.
  AppInstance(const BootImage &Image, uint64_t Seed,
              bool AttributeCycles = false);

  /// Boots \p App into a single-use image and forks it. The image dies
  /// when this constructor returns, so the fork owns every page alone.
  AppInstance(const workloads::Application &App, uint64_t Seed,
              bool AttributeCycles = false,
              BootCode Boot = BootCode::AndroidCompiled);

  /// Runs one session with the given parameter (queues one scripted user
  /// input first).
  vm::CallResult runSession(int64_t Param);

  /// Runs \p Count sessions with deterministic parameters derived from the
  /// app default; returns the summed cycles (0 if any session trapped —
  /// callers treat that as a failed measurement).
  uint64_t runSessionBlock(int Count, int64_t BaseParam);

  /// Replaces the code for \p Methods with the functions in \p Code,
  /// keeping everything else as booted (the paper applies the winning
  /// binary to the hot region only).
  void overrideRegionCode(const std::vector<dex::MethodId> &Methods,
                          const vm::CodeCache &Code);

  vm::Runtime &runtime() { return *RT; }
  os::Kernel &kernel() { return Kernel; }
  os::Process &process() { return *Proc; }
  const workloads::Application &app() const { return App; }

private:
  workloads::Application App;
  os::Kernel Kernel;
  os::Process *Proc = nullptr;
  vm::NativeRegistry Natives;
  std::unique_ptr<vm::Runtime> RT;
  Rng InputRng;
  Rng EnvRng;
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_APP_INSTANCE_H
