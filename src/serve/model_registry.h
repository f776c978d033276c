#ifndef GRIMP_SERVE_MODEL_REGISTRY_H_
#define GRIMP_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"

namespace grimp {

class ModelRegistry;

// One loaded model artifact. Owned by the registry, pinned by ModelHandle;
// the engine is immutable after loading (only the thread-safe const
// TransformMany surface is exposed), so any number of handles may serve from
// it concurrently.
struct LoadedModel {
  std::string name;
  std::string version;
  std::string path;  // empty for engines adopted in-process
  std::unique_ptr<GrimpEngine> engine;
  std::atomic<int64_t> live_handles{0};
};

// RAII pin on one model version. While any handle is alive the version
// cannot finish unloading, so an in-flight request keeps "its" weights even
// after a hot swap replaces the serving version. Handles must not outlive
// the registry they came from.
class ModelHandle {
 public:
  ModelHandle() = default;
  ModelHandle(ModelHandle&& other) noexcept;
  ModelHandle& operator=(ModelHandle&& other) noexcept;
  ModelHandle(const ModelHandle&) = delete;
  ModelHandle& operator=(const ModelHandle&) = delete;
  ~ModelHandle() { Release(); }

  explicit operator bool() const { return model_ != nullptr; }
  const GrimpEngine& engine() const { return *model_->engine; }
  const std::string& name() const { return model_->name; }
  const std::string& version() const { return model_->version; }
  // Stable identity of the pinned version; requests with equal ids are
  // batchable (same weights, same schema).
  const void* id() const { return model_.get(); }

  void Release();

 private:
  friend class ModelRegistry;
  ModelHandle(ModelRegistry* registry, std::shared_ptr<LoadedModel> model);

  ModelRegistry* registry_ = nullptr;
  std::shared_ptr<LoadedModel> model_;
};

// Thread-safe registry of fitted models keyed by name@version. The newest
// registered version of a name is its *serving* version (what plain "name"
// resolves to); older versions stay resolvable by explicit name@version
// until unloaded. Hot swap = Load(name, new_version, path) followed by
// Unload(name, old_version, drain_timeout), which blocks until every
// in-flight handle on the old version is released.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Loads a Save()d artifact (checksum-verified) and makes it the serving
  // version of `name`. AlreadyExists if name@version is registered.
  Status Load(const std::string& name, const std::string& version,
              const std::string& path);

  // Adopts an already-fitted in-process engine under name@version (tests,
  // fit-then-serve in one process). Same serving-version semantics as Load.
  Status Add(const std::string& name, const std::string& version,
             std::unique_ptr<GrimpEngine> engine);

  // Resolves "name" (serving version) or "name@version" (explicit pin) to
  // a live handle. NotFound if the model or version is not registered.
  Result<ModelHandle> Acquire(const std::string& spec);

  // Removes name@version and blocks until its live handles drain (new
  // Acquires can no longer find it). DeadlineExceeded if handles remain
  // after `drain_timeout_seconds`; the version stays removed either way,
  // and outstanding handles remain valid until released.
  Status Unload(const std::string& name, const std::string& version,
                double drain_timeout_seconds);

  struct Entry {
    std::string name;
    std::string version;
    std::string path;
    int64_t live_handles = 0;
    bool serving = false;
  };
  std::vector<Entry> List() const;

  // Number of registered (name, version) pairs.
  int64_t size() const;

 private:
  friend class ModelHandle;

  Status Insert(std::shared_ptr<LoadedModel> model);
  // Called by ModelHandle::Release so Unload's drain wait can wake up.
  void NotifyHandleReleased();

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  // name -> versions in registration order; back() is the serving version.
  std::map<std::string, std::vector<std::shared_ptr<LoadedModel>>> models_;
};

}  // namespace grimp

#endif  // GRIMP_SERVE_MODEL_REGISTRY_H_
