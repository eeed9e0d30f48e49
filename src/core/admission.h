// Admission control for SLO jobs (Section 1).
//
// "Jockey's job model can be used to check whether a newly submitted job would 'fit'
// in the cluster — that is, that all previously accepted SLO jobs would still be able
// to meet their deadlines — before permitting it to run."
//
// AdmissionController keeps a ledger of token reservations over time. A new SLO job
// is admitted if some reservation level r satisfies both conditions: the job's
// slack-adjusted worst-case completion at r tokens meets its deadline, and r fits
// under the budget alongside every overlapping reservation for its whole duration.
// Reservations expire at their deadline (the paper's jobs release tokens when done;
// the deadline is the guaranteed-by bound).

#ifndef SRC_CORE_ADMISSION_H_
#define SRC_CORE_ADMISSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/jockey.h"
#include "src/util/sim_time.h"

namespace jockey {

struct Reservation {
  std::string job_name;
  SimTime start = 0.0;
  SimTime end = 0.0;  // the job's deadline: tokens are guaranteed until then
  int tokens = 0;
};

struct AdmissionDecision {
  bool admitted = false;
  int reserved_tokens = 0;  // minimum reservation that fits and meets the deadline
  std::string reason;       // populated for rejections
};

class AdmissionController {
 public:
  // `total_tokens` is the guaranteed-token budget available to SLO jobs.
  explicit AdmissionController(int total_tokens);

  // Considers a job submitted at `now` with the given deadline (absolute time =
  // now + deadline_seconds). On admission the reservation is recorded.
  AdmissionDecision Admit(const std::string& job_name, const Jockey& model, SimTime now,
                          double deadline_seconds);

  // Drops reservations that ended at or before `now` (jobs completed or expired).
  void ReleaseExpired(SimTime now);

  // Explicitly releases a job's reservation (it finished early).
  void Release(const std::string& job_name);

  // Peak tokens reserved during [start, end) by current reservations.
  int PeakReserved(SimTime start, SimTime end) const;

  int total_tokens() const { return total_tokens_; }
  const std::vector<Reservation>& reservations() const { return reservations_; }

 private:
  int total_tokens_;
  std::vector<Reservation> reservations_;
};

}  // namespace jockey

#endif  // SRC_CORE_ADMISSION_H_
