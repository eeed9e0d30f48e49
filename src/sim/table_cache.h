// Persistent on-disk cache of frozen C(p, a) tables.
//
// SLO jobs are overwhelmingly *recurring* (Section 2.3: the same plan re-executes run
// after run), so the expensive offline precompute — ~140 Monte Carlo simulations per
// job — keeps producing the same table for the same inputs. The cache stores each
// frozen table in one file named by a 64-bit FNV-1a key the caller derives from
// everything the build depends on: the job graph, the (scaled) profile, the progress
// indicator, and the model configuration (grid, runs, buckets, simulator knobs,
// seed). The key is structural: CompletionTableCacheKey streams those fields through
// a Hasher (below) rather than hashing a formatted description, so fingerprinting a
// recurring job costs far less than the load it guards. Thread count is deliberately
// NOT part of the key: parallel and serial builds are bit-identical by construction
// (see completion_model.h), so they share entries.
//
// Every operation returns a CacheStatus carrying a reason code — hit, miss, corrupt,
// io-error, stored, disabled — instead of a silent bool, and mirrors that outcome
// into the attached Observer as a trace event plus counters (table_cache.hits,
// .misses, .corrupt, .io_errors, .stores, .evictions). A hit deserializes the frozen
// table and skips simulation entirely; every non-hit is a build. Writes go through a
// temp file + rename so a crashed writer never leaves a torn entry behind.
//
// Eviction: with `max_bytes` set, every Store prunes least-recently-used `.cpa`
// entries (file mtime order; hits touch their entry) until the directory fits the
// budget. The most recent entry is never evicted, so a single oversized table still
// caches.

#ifndef SRC_SIM_TABLE_CACHE_H_
#define SRC_SIM_TABLE_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/obs/observer.h"
#include "src/sim/completion_table.h"

namespace jockey {

class FaultInjector;

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

// 64-bit FNV-1a over `bytes`, chained from `seed` (pass the previous hash to fold
// multiple fields into one key).
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = kFnvOffsetBasis);
uint64_t HashString(const std::string& s, uint64_t seed = kFnvOffsetBasis);

// Scalars whose every byte belongs to the value (long double carries padding).
template <typename T>
concept HashableScalar =
    (std::is_arithmetic_v<T> || std::is_enum_v<T>) && !std::is_same_v<T, long double>;

// Folds fields into one FNV-1a hash, in call order. Each Add hashes exactly one
// field's value bytes — a scalar or enum, a length-prefixed string, or a
// length-prefixed vector of scalars — never a whole struct, so padding bytes can
// never enter a fingerprint. Lengths fold as uint64_t. Values fold in host byte
// order, so fingerprints are stable across processes on one platform (which is
// all the on-disk cache and the in-memory decision cache need).
class Hasher {
 public:
  explicit Hasher(uint64_t seed = kFnvOffsetBasis) : h_(seed) {}

  template <HashableScalar T>
  Hasher& Add(T value) {
    h_ = HashBytes(&value, sizeof(value), h_);
    return *this;
  }
  Hasher& Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    h_ = HashBytes(s.data(), s.size(), h_);
    return *this;
  }
  template <HashableScalar T>
    requires(!std::is_same_v<T, bool>)  // std::vector<bool> has no contiguous bytes
  Hasher& Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    h_ = HashBytes(values.data(), values.size() * sizeof(T), h_);
    return *this;
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_;
};

// The outcome of one cache operation. `code` reuses the trace-event taxonomy
// (trace_event.h) so statuses and emitted events can never disagree.
struct CacheStatus {
  CacheCode code = CacheCode::kDisabled;
  // Human-readable detail for io_error / corrupt outcomes; empty otherwise.
  std::string message;

  bool ok() const { return code == CacheCode::kHit || code == CacheCode::kStored; }
};

struct TableCacheOptions {
  // Total .cpa bytes the directory may hold; 0 disables pruning.
  uint64_t max_bytes = 0;
  // Receives lookup/store/evict trace events and counters; default-disabled.
  Observer observer;
  // Fault injection (fault_injector.h): when set and a table_fault window covers
  // time 0 (cache traffic is offline, stamped at simulated time 0), Load() reports
  // kIoError without touching the entry — exercising callers' rebuild paths. Must
  // outlive the cache. nullptr detaches.
  const FaultInjector* fault_injector = nullptr;
};

class TableCache {
 public:
  // `dir` is created lazily on the first Store(). An empty dir disables the cache
  // (Load and Store report CacheCode::kDisabled and touch nothing).
  explicit TableCache(std::string dir, TableCacheOptions options = TableCacheOptions());

  const std::string& dir() const { return dir_; }
  bool enabled() const { return !dir_.empty(); }

  std::string PathForKey(uint64_t key) const;

  struct LoadResult {
    CacheStatus status;
    // Set exactly when status.code == kHit.
    std::optional<CompletionTable> table;
  };

  // Fetches the frozen table under `key`. A hit refreshes the entry's LRU position
  // when pruning is configured; corrupt or unreadable entries report their reason
  // code and the caller rebuilds (the entry will be overwritten by the next Store).
  LoadResult Load(uint64_t key) const;

  // Persists a frozen table under `key`, then prunes to `max_bytes` if configured.
  // Best-effort: callers proceed on any outcome.
  CacheStatus Store(uint64_t key, const CompletionTable& table) const;

  // Evicts least-recently-used entries until the directory holds at most
  // `max_bytes` of .cpa data (keeping at least the newest entry). Returns the
  // number of entries evicted. No-op when pruning is not configured.
  int PruneToLimit() const;

 private:
  std::string dir_;
  TableCacheOptions options_;
};

}  // namespace jockey

#endif  // SRC_SIM_TABLE_CACHE_H_
