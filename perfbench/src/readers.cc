#include "readers.h"

#include <utility>
#include <vector>

namespace perfbench {

void ReadResult::Classify(const eve::Status& status, double latency_ms,
                          double limit_ms) {
  ++offered;
  if (status.ok()) {
    ok_ms.Add(latency_ms);
    if (latency_ms <= limit_ms) {
      ++ok_within_limit;
    } else {
      ++ok_over_limit;
    }
    return;
  }
  if (status.code() == eve::StatusCode::kUnavailable) {
    // Both lag refusals (the pre-execution check and the watchdog) say
    // the request "pinned" an old epoch; every other kUnavailable is
    // admission shedding.
    if (status.message().find("pinned") != std::string::npos) {
      ++refused_lag;
    } else {
      ++refused_shed;
    }
    return;
  }
  if (status.code() == eve::StatusCode::kNotFound &&
      status.message().find("not alive") != std::string::npos) {
    ++view_died;
    return;
  }
  ++failed;
  if (failures.size() < 8) failures.push_back(status.ToString());
}

OpenLoopReader::OpenLoopReader(eve::ServingFrontEnd& frontend,
                               std::vector<std::string> views,
                               double refreshes_per_s, double limit_ms)
    : frontend_(frontend),
      refreshes_per_s_(refreshes_per_s),
      limit_ms_(limit_ms),
      views_(std::move(views)),
      generator_([this] { Generate(); }),
      collector_([this] { Collect(); }) {}

OpenLoopReader::~OpenLoopReader() { (void)Stop(); }

void OpenLoopReader::RemoveView(const std::string& view) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(views_, view);
}

ReadResult OpenLoopReader::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  if (generator_.joinable()) generator_.join();
  if (collector_.joinable()) collector_.join();
  return result_;
}

void OpenLoopReader::Generate() {
  const Clock::time_point origin = Clock::now();
  for (int64_t j = 0;; ++j) {
    Refresh refresh;
    refresh.due = origin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   j / refreshes_per_s_));
    std::this_thread::sleep_until(refresh.due);
    std::vector<std::string> views;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || views_.empty()) break;
      views = views_;
    }
    result_.late_ms.Add(MillisBetween(refresh.due, Clock::now()));
    result_.queue_depth.Add(static_cast<double>(frontend_.queue_depth()));
    for (std::string& view : views) {
      refresh.replies.push_back(frontend_.SubmitView(std::move(view)));
    }
    refresh.outstanding = refresh.replies.size();
    std::lock_guard<std::mutex> lock(mu_);
    submitted_.push_back(std::move(refresh));
  }
  std::lock_guard<std::mutex> lock(mu_);
  generator_done_ = true;
}

void OpenLoopReader::Collect() {
  std::vector<Refresh> open;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Refresh& r : submitted_) open.push_back(std::move(r));
      submitted_.clear();
      if (open.empty() && generator_done_) return;
    }
    bool progressed = false;
    for (Refresh& r : open) {
      for (std::future<eve::ServeResult>& reply : r.replies) {
        if (!reply.valid() || reply.wait_for(std::chrono::seconds(0)) !=
                                  std::future_status::ready) {
          continue;
        }
        const eve::ServeResult result = reply.get();  // Invalidates reply.
        result_.Classify(result.status, MillisBetween(r.due, Clock::now()),
                         limit_ms_);
        --r.outstanding;
        progressed = true;
      }
    }
    std::erase_if(open, [](const Refresh& r) { return r.outstanding == 0; });
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

ReadResult ClosedLoopRefreshes(const eve::EveSystem& system,
                               eve::ServingFrontEnd& frontend,
                               const std::vector<std::string>& views,
                               int refreshes, double limit_ms) {
  ReadResult out;
  // Untimed: every served answer must equal a fresh recompute.
  const eve::ViewMaintainer maintainer(system.space(),
                                       system.options().maintainer);
  for (const std::string& name : views) {
    const eve::ServeResult served = frontend.QueryView(name);
    const auto def = system.GetViewDefinition(name);
    const auto fresh = def.ok() ? maintainer.Recompute(*def)
                                : eve::Result<eve::Relation>(def.status());
    if (!served.status.ok() || !fresh.ok() ||
        !eve::SetEquals(served.relation, *fresh)) {
      out.failures.push_back("served read of " + name +
                             " differs from a fresh recompute");
    }
  }

  std::vector<std::future<eve::ServeResult>> replies;
  for (int j = 0; j < refreshes; ++j) {
    const Clock::time_point start = Clock::now();
    for (const std::string& name : views) {
      replies.push_back(frontend.SubmitView(name));
    }
    for (std::future<eve::ServeResult>& reply : replies) {
      const eve::Status status = reply.get().status;
      out.Classify(status, MillisBetween(start, Clock::now()), limit_ms);
    }
    replies.clear();
    out.refresh_s += 1e-3 * MillisBetween(start, Clock::now());
  }
  return out;
}

}  // namespace perfbench
