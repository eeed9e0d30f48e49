#include "src/core/jockey.h"

#include "src/sim/table_cache.h"

namespace jockey {

Jockey::Jockey(const JobGraph& graph, const RunTrace& training_trace, JockeyConfig config)
    : graph_(&graph), profile_(JobProfile::FromTrace(graph, training_trace)),
      config_(std::move(config)) {
  Build(&training_trace);
}

Jockey::Jockey(const JobGraph& graph, JobProfile profile, JockeyConfig config)
    : graph_(&graph), profile_(std::move(profile)), config_(std::move(config)) {
  Build(nullptr);
}

void Jockey::Build(const RunTrace* training_trace) {
  if (config_.largest_input_scale != 1.0) {
    profile_ = profile_.ScaledBy(config_.largest_input_scale);
  }
  indicator_ = MakeIndicator(config_.indicator, *graph_, profile_, training_trace);
  CompletionModelConfig model_config = config_.model;
  if (!model_config.cache_dir.empty() && training_trace != nullptr) {
    // The minstage indicators bake the training trace's stage schedule into their
    // constants, which the cache key cannot see through the profile alone; fold a
    // fingerprint of the trace into the key so a different training run is a miss.
    // The fingerprint hashes the trace's saved text, so a tool holding only the
    // trace file can recompute it.
    model_config.cache_extra_tag = HashString(training_trace->ToText());
  }
  table_ = std::make_shared<CompletionTable>(
      BuildCompletionTable(*graph_, profile_, *indicator_, model_config, &table_build_stats_));
  amdahl_ = std::make_shared<AmdahlModel>(*graph_, profile_);
}

std::unique_ptr<JockeyController> Jockey::MakeController(PiecewiseLinear utility) const {
  return MakeController(std::move(utility), config_.control);
}

std::unique_ptr<JockeyController> Jockey::MakeController(PiecewiseLinear utility,
                                                         const ControlLoopConfig& control) const {
  // Fallback-chain constructor: the table drives every healthy decision, and the
  // Amdahl model (always trained alongside) is inert ballast unless degraded mode
  // detects table faults — so this changes nothing for fault-free runs.
  return std::make_unique<JockeyController>(indicator_, table_, amdahl_, std::move(utility),
                                            control);
}

std::unique_ptr<JockeyController> Jockey::MakeController(double deadline_seconds) const {
  return MakeController(DeadlineUtility(deadline_seconds));
}

std::unique_ptr<JockeyController> Jockey::MakeAmdahlController(PiecewiseLinear utility) const {
  return MakeAmdahlController(std::move(utility), config_.control);
}

std::unique_ptr<JockeyController> Jockey::MakeAmdahlController(
    PiecewiseLinear utility, const ControlLoopConfig& control) const {
  return std::make_unique<JockeyController>(indicator_, amdahl_, std::move(utility), control);
}

std::unique_ptr<JockeyController> Jockey::MakeAmdahlController(double deadline_seconds) const {
  return MakeAmdahlController(DeadlineUtility(deadline_seconds));
}

int Jockey::InitialAllocation(double deadline_seconds) const {
  return MakeController(deadline_seconds)->InitialAllocation();
}

double Jockey::PredictCompletionSeconds(double allocation) const {
  return table_->Predict(0.0, allocation, config_.control.prediction_quantile);
}

double Jockey::FeasibleDeadlineSeconds() const { return profile_.CriticalPathSeconds(*graph_); }

bool Jockey::WouldFit(double deadline_seconds, int available_tokens) const {
  double predicted =
      config_.control.slack * PredictCompletionSeconds(static_cast<double>(available_tokens));
  return predicted <= deadline_seconds;
}

}  // namespace jockey
