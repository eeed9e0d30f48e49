#include "src/sim/completion_table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

namespace jockey {

namespace {

// Binary framing for Save/Load. Little-endian host assumption, as with the rest of
// the text/binary artifacts this reproduction writes and reads on the same machine.
constexpr char kMagic[8] = {'J', 'C', 'K', 'T', 'B', 'L', '0', '1'};

template <typename T>
void WritePod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return is.good();
}

// Bytes between the read position and the end of `is`; nullopt if it cannot seek.
std::optional<uint64_t> BytesLeft(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1) || !is.seekg(0, std::ios::end)) {
    return std::nullopt;
  }
  const std::istream::pos_type end = is.tellg();
  if (end == std::istream::pos_type(-1) || !is.seekg(here) || end < here) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(end - here);
}

}  // namespace

CompletionTable::CompletionTable(std::vector<int> allocations, int num_buckets)
    : allocations_(std::move(allocations)), num_buckets_(num_buckets) {
  assert(!allocations_.empty());
  assert(num_buckets_ >= 1);
  for (size_t i = 1; i < allocations_.size(); ++i) {
    assert(allocations_[i] > allocations_[i - 1] && "allocation grid must increase");
  }
  cells_.resize(static_cast<size_t>(num_buckets_) * allocations_.size());
}

int CompletionTable::BucketOf(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  int b = static_cast<int>(p * num_buckets_);
  return std::min(b, num_buckets_ - 1);
}

void CompletionTable::AddSample(double p, int alloc_index, double remaining_seconds) {
  assert(!frozen_ && "cannot add samples to a frozen table");
  assert(alloc_index >= 0 && alloc_index < static_cast<int>(allocations_.size()));
  cells_[CellIndex(BucketOf(p), alloc_index)].Add(remaining_seconds);
}

int CompletionTable::ResolveFallbackBucket(int bucket, int ai,
                                           const std::vector<char>& populated) const {
  if (populated[CellIndex(bucket, ai)]) {
    return bucket;
  }
  // The bucket may be unobserved at this allocation (e.g. very late progress at a
  // tiny allocation between two samples). Search outward; a lower bucket's remaining
  // time over-estimates (safe), a higher bucket's under-estimates, so prefer lower.
  for (int d = 1; d < num_buckets_; ++d) {
    if (bucket - d >= 0 && populated[CellIndex(bucket - d, ai)]) {
      return bucket - d;
    }
    if (bucket + d < num_buckets_ && populated[CellIndex(bucket + d, ai)]) {
      return bucket + d;
    }
  }
  return -1;  // column is completely empty
}

void CompletionTable::Freeze() {
  if (frozen_) {
    return;
  }
  std::vector<char> populated(cells_.size(), 0);
  for (size_t i = 0; i < cells_.size(); ++i) {
    populated[i] = cells_[i].count() > 0 ? 1 : 0;
  }
  // First pass: lay the populated cells' sorted samples into one flat buffer.
  frozen_total_samples_ = 0;
  for (const auto& cell : cells_) {
    frozen_total_samples_ += cell.count();
  }
  frozen_samples_.clear();
  frozen_samples_.reserve(frozen_total_samples_);
  std::vector<CellRange> own_range(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    own_range[i].offset = frozen_samples_.size();
    own_range[i].count = cells_[i].count();
    const std::vector<double>& samples = cells_[i].samples();
    size_t begin = frozen_samples_.size();
    frozen_samples_.insert(frozen_samples_.end(), samples.begin(), samples.end());
    std::sort(frozen_samples_.begin() + static_cast<ptrdiff_t>(begin), frozen_samples_.end());
  }
  // Second pass: resolve the empty-bucket fallback once, so queries never search.
  frozen_cells_.assign(cells_.size(), CellRange{});
  for (int b = 0; b < num_buckets_; ++b) {
    for (int ai = 0; ai < static_cast<int>(allocations_.size()); ++ai) {
      int source = ResolveFallbackBucket(b, ai, populated);
      if (source >= 0) {
        frozen_cells_[CellIndex(b, ai)] = own_range[CellIndex(source, ai)];
      }
    }
  }
  cells_.clear();
  cells_.shrink_to_fit();
  frozen_ = true;
}

double CompletionTable::CellQuantile(int bucket, int ai, double quantile) const {
  if (frozen_) {
    const CellRange& range = frozen_cells_[CellIndex(bucket, ai)];
    if (range.count == 0) {
      return 0.0;
    }
    const double* samples = frozen_samples_.data() + range.offset;
    if (range.count == 1) {
      return samples[0];
    }
    // Same linear-interpolated quantile as EmpiricalDistribution::Quantile, over the
    // pre-sorted range: two lookups plus interpolation, no allocation.
    double q = std::clamp(quantile, 0.0, 1.0);
    double pos = q * static_cast<double>(range.count - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, range.count - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  }

  auto cell = [&](int b) -> const EmpiricalDistribution& { return cells_[CellIndex(b, ai)]; };
  if (cell(bucket).count() > 0) {
    return cell(bucket).Quantile(quantile);
  }
  for (int d = 1; d < num_buckets_; ++d) {
    if (bucket - d >= 0 && cell(bucket - d).count() > 0) {
      return cell(bucket - d).Quantile(quantile);
    }
    if (bucket + d < num_buckets_ && cell(bucket + d).count() > 0) {
      return cell(bucket + d).Quantile(quantile);
    }
  }
  return 0.0;  // column is completely empty
}

double CompletionTable::Predict(double p, double allocation, double quantile) const {
  int bucket = BucketOf(p);
  double a = std::clamp(allocation, static_cast<double>(allocations_.front()),
                        static_cast<double>(allocations_.back()));
  // Locate the surrounding grid columns.
  size_t hi = 0;
  while (hi < allocations_.size() && static_cast<double>(allocations_[hi]) < a) {
    ++hi;
  }
  if (hi == 0) {
    return CellQuantile(bucket, 0, quantile);
  }
  if (hi >= allocations_.size()) {
    return CellQuantile(bucket, static_cast<int>(allocations_.size()) - 1, quantile);
  }
  size_t lo = hi - 1;
  double a_lo = static_cast<double>(allocations_[lo]);
  double a_hi = static_cast<double>(allocations_[hi]);
  double frac = (a - a_lo) / (a_hi - a_lo);
  double q_lo = CellQuantile(bucket, static_cast<int>(lo), quantile);
  double q_hi = CellQuantile(bucket, static_cast<int>(hi), quantile);
  return q_lo * (1.0 - frac) + q_hi * frac;
}

size_t CompletionTable::TotalSamples() const {
  if (frozen_) {
    return frozen_total_samples_;
  }
  size_t total = 0;
  for (const auto& c : cells_) {
    total += c.count();
  }
  return total;
}

void CompletionTable::SaveSummary(std::ostream& os, const std::vector<double>& quantiles) const {
  os << "bucket";
  for (int a : allocations_) {
    for (double q : quantiles) {
      os << ",a" << a << "_q" << q;
    }
  }
  os << "\n";
  for (int b = 0; b < num_buckets_; ++b) {
    os << b;
    for (size_t ai = 0; ai < allocations_.size(); ++ai) {
      for (double q : quantiles) {
        os << "," << CellQuantile(b, static_cast<int>(ai), q);
      }
    }
    os << "\n";
  }
}

void CompletionTable::Save(std::ostream& os) const {
  assert(frozen_ && "only frozen tables serialize");
  os.write(kMagic, sizeof(kMagic));
  WritePod(os, static_cast<uint32_t>(num_buckets_));
  WritePod(os, static_cast<uint32_t>(allocations_.size()));
  for (int a : allocations_) {
    WritePod(os, static_cast<int32_t>(a));
  }
  WritePod(os, static_cast<uint64_t>(frozen_total_samples_));
  WritePod(os, static_cast<uint64_t>(frozen_samples_.size()));
  os.write(reinterpret_cast<const char*>(frozen_samples_.data()),
           static_cast<std::streamsize>(frozen_samples_.size() * sizeof(double)));
  for (const CellRange& range : frozen_cells_) {
    WritePod(os, static_cast<uint64_t>(range.offset));
    WritePod(os, static_cast<uint64_t>(range.count));
  }
}

std::optional<CompletionTable> CompletionTable::Load(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  if (!is.good() || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    return std::nullopt;
  }
  uint32_t num_buckets = 0;
  uint32_t num_allocs = 0;
  if (!ReadPod(is, &num_buckets) || !ReadPod(is, &num_allocs) || num_buckets == 0 ||
      num_allocs == 0 || num_buckets > 1u << 20 || num_allocs > 1u << 20) {
    return std::nullopt;
  }
  // Everything after this point must fit in the stream before anything is sized
  // from the header: the grid, the two sample counts, the samples, and one
  // (offset, count) pair per cell. The factors are bounded above, so no sum wraps.
  const std::optional<uint64_t> left = BytesLeft(is);
  const uint64_t num_cells = uint64_t{num_buckets} * num_allocs;
  const uint64_t fixed_bytes = uint64_t{num_allocs} * sizeof(int32_t) + 2 * sizeof(uint64_t) +
                               num_cells * 2 * sizeof(uint64_t);
  if (!left.has_value() || fixed_bytes > *left) {
    return std::nullopt;
  }
  std::vector<int> allocations(num_allocs);
  for (uint32_t i = 0; i < num_allocs; ++i) {
    int32_t a = 0;
    if (!ReadPod(is, &a) || (i > 0 && a <= allocations[i - 1])) {
      return std::nullopt;
    }
    allocations[i] = a;
  }
  uint64_t total_samples = 0;
  uint64_t buffer_size = 0;
  if (!ReadPod(is, &total_samples) || !ReadPod(is, &buffer_size) ||
      buffer_size > (1ull << 32) || total_samples > buffer_size ||
      fixed_bytes + buffer_size * sizeof(double) > *left) {
    return std::nullopt;
  }
  CompletionTable table(std::move(allocations), static_cast<int>(num_buckets));
  table.frozen_samples_.resize(buffer_size);
  is.read(reinterpret_cast<char*>(table.frozen_samples_.data()),
          static_cast<std::streamsize>(buffer_size * sizeof(double)));
  if (!is.good() && buffer_size > 0) {
    return std::nullopt;
  }
  table.frozen_cells_.resize(num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    uint64_t offset = 0;
    uint64_t count = 0;
    if (!ReadPod(is, &offset) || !ReadPod(is, &count) || count > buffer_size ||
        offset > buffer_size - count) {
      return std::nullopt;
    }
    table.frozen_cells_[i] = CellRange{static_cast<size_t>(offset), static_cast<size_t>(count)};
  }
  table.frozen_total_samples_ = static_cast<size_t>(total_samples);
  table.cells_.clear();
  table.cells_.shrink_to_fit();
  table.frozen_ = true;
  return table;
}

}  // namespace jockey
