// The benchmark's readers: ServingFrontEnd::SubmitView requests from an
// open-loop generator running beside the writer, or closed-loop refreshes
// of the evolved views once the writer has stopped.

#ifndef EVE_PERFBENCH_READERS_H_
#define EVE_PERFBENCH_READERS_H_

#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frontend.h"
#include "stats.h"

namespace perfbench {

/// Every read offered, split by outcome.  A read is one view query, made
/// as part of a refresh that reads every alive view; it is timed from the
/// refresh's start.  A read that is refused, fails or answers later than
/// the latency limit counts against read_ok_ratio.
struct ReadResult {
  Samples ok_ms;        ///< Reads answered OK, limit or not.
  Samples late_ms;      ///< Open loop: how late the generator submitted.
  Samples queue_depth;  ///< Open loop: admission queue depth at submit.
  int64_t offered = 0;
  int64_t ok_within_limit = 0;
  int64_t ok_over_limit = 0;
  int64_t refused_lag = 0;   ///< kUnavailable: pinned epoch lags.
  int64_t refused_shed = 0;  ///< kUnavailable: shed at admission.
  /// kNotFound: the view died between submission and the epoch the read
  /// pinned (the generator stops reading a view once the writer sees it
  /// die).
  int64_t view_died = 0;
  int64_t failed = 0;  ///< Any other error.
  double refresh_s = 0;  ///< Closed loop: time inside the timed refreshes.
  std::vector<std::string> failures;  ///< First few errors, by message.

  /// Counts one read that answered with `status` after `latency_ms`.
  void Classify(const eve::Status& status, double latency_ms,
                double limit_ms);
  double OkRatio() const {
    return offered > 0 ? static_cast<double>(ok_within_limit) / offered : 0;
  }
};

/// Open loop: at `refreshes_per_s`, submits one SubmitView per alive view
/// (a refresh), until Stop().  Each read is timed from its refresh's due
/// time to its own answer, so a stall also delays the refreshes due during
/// it.  A collector polls the replies every 50 us, so an answer is stamped
/// soon after it arrives, whichever worker served it.
class OpenLoopReader {
 public:
  OpenLoopReader(eve::ServingFrontEnd& frontend, std::vector<std::string> views,
                 double refreshes_per_s, double limit_ms);
  ~OpenLoopReader();
  OpenLoopReader(const OpenLoopReader&) = delete;
  OpenLoopReader& operator=(const OpenLoopReader&) = delete;

  /// Stops reading `view` (the writer saw it die).
  void RemoveView(const std::string& view);

  /// Stops submitting, waits for every reply, joins both threads.
  ReadResult Stop();

 private:
  struct Refresh {
    Clock::time_point due;
    std::vector<std::future<eve::ServeResult>> replies;
    size_t outstanding = 0;
  };

  void Generate();
  void Collect();

  eve::ServingFrontEnd& frontend_;
  const double refreshes_per_s_;
  const double limit_ms_;
  ReadResult result_;  ///< late_ms / queue_depth: generator; rest: collector.

  std::mutex mu_;
  std::vector<std::string> views_;
  std::deque<Refresh> submitted_;  ///< Handed from generator to collector.
  bool stopping_ = false;
  bool generator_done_ = false;

  std::thread generator_;
  std::thread collector_;
};

/// Closed loop: makes `refreshes` refreshes through `frontend`, each
/// submitting one SubmitView per view in `views` and waiting for every
/// answer before the next.  Each read is timed from its refresh's start to
/// the moment its answer is taken, in submission order.  First, untimed,
/// each view's served answer is checked against a fresh recompute over
/// `system`'s live space, which the caller must not mutate meanwhile.
ReadResult ClosedLoopRefreshes(const eve::EveSystem& system,
                               eve::ServingFrontEnd& frontend,
                               const std::vector<std::string>& views,
                               int refreshes, double limit_ms);

}  // namespace perfbench

#endif  // EVE_PERFBENCH_READERS_H_
