#include "src/dag/dependency_tracker.h"

#include <cassert>

namespace jockey {

DependencyTracker::DependencyTracker(const JobGraph& graph) : graph_(&graph) {
  int s_count = graph.num_stages();
  task_base_.resize(static_cast<size_t>(s_count));
  stage_total_.resize(static_cast<size_t>(s_count));
  for (int s = 0; s < s_count; ++s) {
    task_base_[static_cast<size_t>(s)] = total_tasks_;
    stage_total_[static_cast<size_t>(s)] = graph.stage(s).num_tasks;
    total_tasks_ += graph.stage(s).num_tasks;
  }
  stage_of_.resize(static_cast<size_t>(total_tasks_));
  for (int s = 0; s < s_count; ++s) {
    for (int i = 0; i < graph.stage(s).num_tasks; ++i) {
      stage_of_[static_cast<size_t>(task_base_[static_cast<size_t>(s)] + i)] = s;
    }
  }
  barrier_consumers_.resize(static_cast<size_t>(s_count));
  initial_wait_count_.assign(static_cast<size_t>(total_tasks_), 0);

  // Calls visit(producer, consumer) for every one-to-one dependency, in the order
  // that fixes each producer's wake order.
  auto for_each_one_to_one = [&](auto&& visit) {
    for (int c = 0; c < s_count; ++c) {
      const StageSpec& consumer = graph.stage(c);
      for (const StageEdge& edge : consumer.inputs) {
        if (edge.pattern == CommPattern::kAllToAll) {
          continue;
        }
        for (int i = 0; i < consumer.num_tasks; ++i) {
          const auto [lo, hi] = graph.InputRange(c, i, edge);
          for (int p = lo; p < hi; ++p) {
            visit(FlatId(edge.from, p), FlatId(c, i));
          }
        }
      }
    }
  };
  // Pass 1: count each producer's consumers (offset p + 1) and each consumer's waits.
  consumer_begin_.assign(static_cast<size_t>(total_tasks_) + 1, 0);
  for_each_one_to_one([&](int producer, int consumer) {
    ++consumer_begin_[static_cast<size_t>(producer) + 1];
    ++initial_wait_count_[static_cast<size_t>(consumer)];
  });
  for (size_t t = 0; t < static_cast<size_t>(total_tasks_); ++t) {
    consumer_begin_[t + 1] += consumer_begin_[t];
  }
  // Pass 2: fill, advancing a per-producer cursor.
  consumers_.resize(static_cast<size_t>(consumer_begin_.back()));
  std::vector<int> cursor(consumer_begin_.begin(), consumer_begin_.end() - 1);
  for_each_one_to_one([&](int producer, int consumer) {
    consumers_[static_cast<size_t>(cursor[static_cast<size_t>(producer)]++)] = consumer;
  });

  for (int c = 0; c < s_count; ++c) {
    const StageSpec& consumer = graph.stage(c);
    for (const StageEdge& edge : consumer.inputs) {
      if (edge.pattern == CommPattern::kAllToAll) {
        barrier_consumers_[static_cast<size_t>(edge.from)].push_back(c);
        for (int i = 0; i < consumer.num_tasks; ++i) {
          ++initial_wait_count_[static_cast<size_t>(FlatId(c, i))];
        }
      }
    }
  }
}

DependencyTracker::State::State(const DependencyTracker& tracker)
    : tracker_(&tracker),
      wait_count_(tracker.initial_wait_count_),
      stage_done_(tracker.stage_total_.size(), 0) {
  for (int t = 0; t < tracker.total_tasks(); ++t) {
    if (wait_count_[static_cast<size_t>(t)] == 0) {
      newly_ready_.push_back(t);
    }
  }
}

void DependencyTracker::State::Unblock(int flat_task) {
  if (--wait_count_[static_cast<size_t>(flat_task)] == 0) {
    newly_ready_.push_back(flat_task);
  }
}

void DependencyTracker::State::MarkDone(int flat_task) {
  int s = tracker_->StageOf(flat_task);
  ++done_total_;
  int done = ++stage_done_[static_cast<size_t>(s)];
  assert(done <= tracker_->StageTotal(s) && "task completed more than once");
  if (done == tracker_->StageTotal(s)) {
    for (int c : tracker_->barrier_consumers_[static_cast<size_t>(s)]) {
      int base = tracker_->task_base_[static_cast<size_t>(c)];
      for (int i = 0; i < tracker_->StageTotal(c); ++i) {
        Unblock(base + i);
      }
    }
  }
  for (int consumer : tracker_->ConsumersOf(flat_task)) {
    Unblock(consumer);
  }
}

std::vector<int> DependencyTracker::State::TakeNewlyReady() {
  std::vector<int> out;
  out.swap(newly_ready_);
  return out;
}

void DependencyTracker::State::TakeNewlyReadyInto(std::vector<int>& out) {
  out.insert(out.end(), newly_ready_.begin(), newly_ready_.end());
  newly_ready_.clear();
}

double DependencyTracker::State::FracComplete(int stage) const {
  return static_cast<double>(stage_done_[static_cast<size_t>(stage)]) /
         static_cast<double>(tracker_->StageTotal(stage));
}

std::vector<double> DependencyTracker::State::FracCompleteAll() const {
  std::vector<double> out(stage_done_.size());
  for (size_t s = 0; s < stage_done_.size(); ++s) {
    out[s] = static_cast<double>(stage_done_[s]) /
             static_cast<double>(tracker_->stage_total_[s]);
  }
  return out;
}

}  // namespace jockey
