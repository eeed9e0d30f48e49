// Seeded byte-mutation test over the three flat-JSONL readers: the trace reader
// (ReadJsonlTrace), the fault-plan loader (FaultPlan::Load) and the time-series
// loader (ReadTimeSeriesJsonl).
//
// Each checked-in corpus under tests/data/mutation/ is mutated deterministically
// (bit flips, inserted, deleted and duplicated bytes, truncation, swapped digits and
// numbers replaced by extreme or non-decimal spellings), and every reader's verdict
// on every mutant is folded into one digest: the accepted records re-serialized by
// the writer, or the line, field and message of the failure. The pinned digest
// fixes both the accepted set and the diagnostics, so a reader rewrite that keeps
// it has changed neither. Under ASan and UBSan (float-cast-overflow included) the
// same run checks that no mutant crashes a reader or reaches undefined behaviour.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "src/fault/fault_plan.h"
#include "src/obs/jsonl.h"
#include "src/obs/timeseries/timeseries.h"
#include "src/sim/table_cache.h"

namespace jockey {
namespace {

constexpr int kMutantsPerCorpus = 3000;

std::string ReadCorpus(const std::string& name) {
  std::ifstream in(std::string(JOCKEY_TEST_DATA_DIR) + "/mutation/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Deterministic byte-level mutations. std::mt19937_64's output sequence is fixed by
// the standard, and positions come from plain modulo arithmetic (not a distribution,
// whose algorithm is implementation-defined), so mutants are identical everywhere.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const int ops = 1 + static_cast<int>(Below(3));
    for (int i = 0; i < ops; ++i) {
      MutateOnce(s);
    }
    return s;
  }

 private:
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : rng_() % n; }

  void MutateOnce(std::string& s) {
    if (s.empty()) {
      s.push_back(RandomByte());
      return;
    }
    const size_t at = Below(s.size());
    switch (Below(7)) {
      case 0:  // flip one bit
        s[at] = static_cast<char>(s[at] ^ (1 << Below(8)));
        break;
      case 1:  // insert one byte
        s.insert(at, 1, RandomByte());
        break;
      case 2:  // delete a short run
        s.erase(at, 1 + Below(8));
        break;
      case 3: {  // duplicate a short run somewhere else
        std::string run = s.substr(at, 1 + Below(32));
        s.insert(Below(s.size() + 1), run);
        break;
      }
      case 4:  // truncate
        s.resize(at);
        break;
      case 5: {  // swap a digit for another
        size_t d = s.find_first_of("0123456789", at);
        if (d != std::string::npos) {
          s[d] = static_cast<char>('0' + Below(10));
        }
        break;
      }
      default: {  // replace a number with an extreme or non-decimal spelling
        static const char* const kNumbers[] = {
            "1e300",       "-1e300",      "nan",        "-inf",      "1e-320",
            "2147483648",  "-2147483649", "1e19",       "-0.5",      "2.5",
            "0x1p3",       "+1",          "1e400",      "-1e-400",   "infinity",
            "9007199254740993", "18446744073709551616", "1.7976931348623157e308"};
        size_t d = s.find_first_of("0123456789", at);
        if (d != std::string::npos) {
          size_t end = s.find_first_not_of("0123456789.e+-", d);
          s.replace(d, (end == std::string::npos ? s.size() : end) - d,
                    kNumbers[Below(std::size(kNumbers))]);
        }
        break;
      }
    }
  }

  char RandomByte() {
    // Mostly JSON-significant bytes, which reach deeper into the readers than noise.
    static const char kAlphabet[] = "{}[]\":,\\ \t\r\n0123456789eE.-+ntfalsu";
    if (Below(4) == 0) {
      return static_cast<char>(Below(256));
    }
    return kAlphabet[Below(sizeof(kAlphabet) - 1)];
  }

  std::mt19937_64 rng_;
};

// Per-reader verdict tallies, reported alongside the digest so a digest change can
// be read at a glance.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

void FoldTraceVerdict(const std::string& text, Hasher& h, Tally& tally) {
  for (bool strict : {false, true}) {
    std::istringstream in(text);
    TraceReadResult result = ReadJsonlTrace(in, strict);
    h.Add(static_cast<uint64_t>(result.events.size()));
    for (const TraceEvent& event : result.events) {
      h.Add(ToJsonLine(event));
    }
    h.Add(result.malformed_lines);
    if (result.first_issue.has_value()) {
      h.Add(result.first_issue->line_number).Add(result.first_issue->field);
      h.Add(result.first_issue->message);
    }
    if (!strict) {
      (result.malformed_lines == 0 ? tally.accepted : tally.rejected)++;
    }
  }
}

void FoldFaultPlanVerdict(const std::string& text, Hasher& h, Tally& tally) {
  std::istringstream in(text);
  std::string error;
  std::optional<FaultPlan> plan = FaultPlan::Load(in, &error);
  h.Add(plan.has_value());
  if (plan.has_value()) {
    std::ostringstream out;
    plan->Save(out);
    h.Add(out.str());
    tally.accepted++;
  } else {
    h.Add(error);
    tally.rejected++;
  }
}

void FoldTimeSeriesVerdict(const std::string& text, Hasher& h, Tally& tally) {
  std::istringstream in(text);
  TimeSeriesReadResult result = ReadTimeSeriesJsonl(in);
  h.Add(result.series.has_value());
  if (result.series.has_value()) {
    std::ostringstream out;
    WriteTimeSeriesJsonl(out, *result.series);
    h.Add(out.str());
    tally.accepted++;
  } else {
    h.Add(result.line).Add(result.message);
    tally.rejected++;
  }
}

template <typename Fold>
uint64_t MutationDigest(const std::string& corpus, uint64_t seed, Fold fold, Tally& tally) {
  Hasher h;
  Mutator mutator(seed);
  for (int i = 0; i < kMutantsPerCorpus; ++i) {
    fold(mutator.Mutate(corpus), h, tally);
  }
  return h.value();
}

// The unmutated corpora are valid and re-serialize to their own bytes, and the
// trace corpus carries every event kind — otherwise the mutants would not reach
// every parser clause.
TEST(ReaderMutationTest, CorporaRoundTripAndCoverEveryKind) {
  const std::string trace = ReadCorpus("trace.jsonl");
  std::istringstream trace_in(trace);
  TraceReadResult events = ReadJsonlTrace(trace_in, /*strict=*/true);
  ASSERT_EQ(events.malformed_lines, 0);
  std::string rewritten;
  std::set<EventKind> kinds;
  for (const TraceEvent& event : events.events) {
    rewritten += ToJsonLine(event) + "\n";
    kinds.insert(event.kind());
  }
  EXPECT_EQ(rewritten, trace);
  EXPECT_EQ(kinds.size(), static_cast<size_t>(EventKind::kControlDecisionCached) + 1);

  const std::string plan_text = ReadCorpus("fault_plan.jsonl");
  std::istringstream plan_in(plan_text);
  std::optional<FaultPlan> plan = FaultPlan::Load(plan_in);
  ASSERT_TRUE(plan.has_value());
  std::ostringstream plan_out;
  plan->Save(plan_out);
  EXPECT_EQ(plan_out.str(), plan_text);

  const std::string series_text = ReadCorpus("timeseries.jsonl");
  std::istringstream series_in(series_text);
  TimeSeriesReadResult series = ReadTimeSeriesJsonl(series_in);
  ASSERT_TRUE(series.series.has_value()) << series.line << ": " << series.message;
  std::ostringstream series_out;
  WriteTimeSeriesJsonl(series_out, *series.series);
  EXPECT_EQ(series_out.str(), series_text);
}

TEST(ReaderMutationTest, TraceReaderVerdictsArePinned) {
  Tally tally;
  uint64_t digest = MutationDigest(ReadCorpus("trace.jsonl"), 1, FoldTraceVerdict, tally);
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_EQ(digest, 0xeca584d16508793bULL) << std::hex << digest << std::dec << " accepted "
                            << tally.accepted << " rejected " << tally.rejected;
}

TEST(ReaderMutationTest, FaultPlanLoaderVerdictsArePinned) {
  Tally tally;
  uint64_t digest =
      MutationDigest(ReadCorpus("fault_plan.jsonl"), 2, FoldFaultPlanVerdict, tally);
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_EQ(digest, 0x47fdda28b5c2dac1ULL) << std::hex << digest << std::dec << " accepted "
                            << tally.accepted << " rejected " << tally.rejected;
}

TEST(ReaderMutationTest, TimeSeriesLoaderVerdictsArePinned) {
  Tally tally;
  uint64_t digest =
      MutationDigest(ReadCorpus("timeseries.jsonl"), 3, FoldTimeSeriesVerdict, tally);
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_EQ(digest, 0x987464d7452adb76ULL) << std::hex << digest << std::dec << " accepted "
                            << tally.accepted << " rejected " << tally.rejected;
}

}  // namespace
}  // namespace jockey
