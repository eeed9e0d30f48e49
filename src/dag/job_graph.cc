#include "src/dag/job_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace jockey {

bool StageSpec::IsBarrier() const {
  return std::any_of(inputs.begin(), inputs.end(), [](const StageEdge& e) {
    return e.pattern == CommPattern::kAllToAll;
  });
}

JobGraph::JobGraph(std::string name, std::vector<StageSpec> stages)
    : name_(std::move(name)), stages_(std::move(stages)) {}

int JobGraph::num_tasks() const {
  int total = 0;
  for (const auto& s : stages_) {
    total += s.num_tasks;
  }
  return total;
}

int JobGraph::num_barrier_stages() const {
  int total = 0;
  for (const auto& s : stages_) {
    if (s.IsBarrier()) {
      ++total;
    }
  }
  return total;
}

bool JobGraph::Validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  if (stages_.empty()) {
    return fail("job has no stages");
  }
  for (size_t i = 0; i < stages_.size(); ++i) {
    const auto& s = stages_[i];
    if (s.num_tasks <= 0) {
      return fail("stage " + s.name + " has non-positive task count");
    }
    for (const auto& e : s.inputs) {
      if (e.from < 0 || e.from >= num_stages()) {
        return fail("stage " + s.name + " has an edge from an invalid stage id");
      }
      if (e.from == static_cast<int>(i)) {
        return fail("stage " + s.name + " depends on itself");
      }
    }
  }
  // Kahn's algorithm detects cycles.
  if (TopologicalOrder().size() != stages_.size()) {
    return fail("job graph contains a cycle");
  }
  if (error != nullptr) {
    error->clear();
  }
  return true;
}

std::vector<int> JobGraph::TopologicalOrder() const {
  std::vector<int> in_degree(stages_.size(), 0);
  auto consumers = ConsumerLists();
  for (size_t i = 0; i < stages_.size(); ++i) {
    in_degree[i] = static_cast<int>(stages_[i].inputs.size());
  }
  std::vector<int> order;
  order.reserve(stages_.size());
  std::vector<int> ready;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (in_degree[i] == 0) {
      ready.push_back(static_cast<int>(i));
    }
  }
  // Process in ascending id order for determinism.
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<int>());
    int s = ready.back();
    ready.pop_back();
    order.push_back(s);
    for (int c : consumers[static_cast<size_t>(s)]) {
      if (--in_degree[static_cast<size_t>(c)] == 0) {
        ready.push_back(c);
      }
    }
  }
  return order;
}

std::vector<int> JobGraph::SourceStages() const {
  std::vector<int> out;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].inputs.empty()) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> JobGraph::SinkStages() const {
  std::vector<bool> has_consumer(stages_.size(), false);
  for (const auto& s : stages_) {
    for (const auto& e : s.inputs) {
      has_consumer[static_cast<size_t>(e.from)] = true;
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (!has_consumer[i]) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<std::vector<int>> JobGraph::ConsumerLists() const {
  std::vector<std::vector<int>> consumers(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    for (const auto& e : stages_[i].inputs) {
      consumers[static_cast<size_t>(e.from)].push_back(static_cast<int>(i));
    }
  }
  return consumers;
}

std::vector<double> JobGraph::LongestPathToEnd(const std::vector<double>& per_stage_cost) const {
  assert(per_stage_cost.size() == stages_.size());
  std::vector<double> longest(stages_.size(), 0.0);
  auto order = TopologicalOrder();
  // Walk consumers-last so each stage's value is cost + max over consumers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int s = *it;
    double best_consumer = 0.0;
    // Find consumers by scanning edges (graphs here are small: <=~200 stages).
    for (size_t c = 0; c < stages_.size(); ++c) {
      for (const auto& e : stages_[c].inputs) {
        if (e.from == s) {
          best_consumer = std::max(best_consumer, longest[c]);
        }
      }
    }
    longest[static_cast<size_t>(s)] = per_stage_cost[static_cast<size_t>(s)] + best_consumer;
  }
  return longest;
}

double JobGraph::CriticalPath(const std::vector<double>& per_stage_cost) const {
  auto longest = LongestPathToEnd(per_stage_cost);
  double best = 0.0;
  for (double v : longest) {
    best = std::max(best, v);
  }
  return best;
}

std::vector<int> JobGraph::InputTasksFor(int stage_id, int index, const StageEdge& edge) const {
  const auto [lo, hi] = InputRange(stage_id, index, edge);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (int i = lo; i < hi; ++i) {
    out.push_back(i);
  }
  return out;
}

std::pair<int, int> JobGraph::InputRange(int stage_id, int index, const StageEdge& edge) const {
  int n_p = stage(edge.from).num_tasks;
  if (edge.pattern == CommPattern::kAllToAll) {
    return {0, n_p};
  }
  // Proportional slice: consumer task `index` of n_c tasks reads producer tasks in
  // [index * n_p / n_c, (index + 1) * n_p / n_c), at least one task.
  int n_c = stage(stage_id).num_tasks;
  int lo = static_cast<int>(static_cast<int64_t>(index) * n_p / n_c);
  int hi = static_cast<int>(static_cast<int64_t>(index + 1) * n_p / n_c);
  if (hi <= lo) {
    hi = lo + 1;
  }
  lo = std::min(lo, n_p - 1);
  hi = std::min(hi, n_p);
  return {lo, hi};
}

std::string JobGraph::ToDot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n";
  os << "  rankdir=TB;\n";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const auto& s = stages_[i];
    // Node area tracks task count, as in the paper's Fig 3 rendering.
    double size = 0.3 + 0.25 * std::log10(1.0 + s.num_tasks);
    os << "  s" << i << " [label=\"" << s.name << "\\n" << s.num_tasks << "\""
       << (s.IsBarrier() ? ", shape=triangle, style=filled, fillcolor=lightblue"
                         : ", shape=circle")
       << ", width=" << size << "];\n";
  }
  for (size_t i = 0; i < stages_.size(); ++i) {
    for (const auto& e : stages_[i].inputs) {
      os << "  s" << e.from << " -> s" << i
         << (e.pattern == CommPattern::kAllToAll ? " [style=bold]" : "") << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace jockey
