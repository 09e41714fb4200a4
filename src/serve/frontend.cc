#include "serve/frontend.h"

#include <algorithm>
#include <utility>

#include "common/backoff.h"
#include "common/fault_injection.h"
#include "esql/parser.h"

namespace eve {

namespace {

/// How many publications `pinned` trails `published` by, saturating at 0.
/// Publish installs a snapshot before it advances CurrentSequence(), and
/// the watchdog reads CurrentSequence() before it walks the in-flight
/// requests, so a pinned sequence can run ahead of `published`; unsigned
/// subtraction would turn that into a huge lag.
uint64_t EpochLag(uint64_t published, uint64_t pinned) {
  return published > pinned ? published - pinned : 0;
}

/// Runs the admission fault site; a non-OK return is the injected fault.
Status AdmitFaultPoint() {
  EVE_FAULT_POINT("serve.admit");
  return Status::OK();
}

/// Runs the execution fault site (before any snapshot is pinned, so an
/// injected failure has no partial effects to undo; a kInternal injection
/// exercises the retry-with-backoff path end to end).
Status ExecuteFaultPoint() {
  EVE_FAULT_POINT("serve.execute");
  return Status::OK();
}

}  // namespace

ServingFrontEnd::ServingFrontEnd(EveSystem& system, ServingOptions options)
    : system_(system),
      options_(options),
      high_water_(options.high_water != 0
                      ? options.high_water
                      : std::max<size_t>(1, options.queue_capacity * 3 / 4)),
      queue_(options.queue_capacity) {
  const int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

ServingFrontEnd::~ServingFrontEnd() { Shutdown(); }

void ServingFrontEnd::Shutdown() {
  // Close admission first: new Submits shed with kUnavailable while the
  // workers drain what was already admitted (Pop returns the queued items
  // before signalling closed-and-drained).
  if (stopping_.exchange(true)) {
    // A concurrent/second Shutdown: the first caller joins the threads.
    return;
  }
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

std::future<ServeResult> ServingFrontEnd::Submit(std::string esql) {
  Request request;
  request.esql = std::move(esql);
  return Enqueue(std::move(request));
}

std::future<ServeResult> ServingFrontEnd::SubmitView(std::string view_name) {
  Request request;
  request.view_name = std::move(view_name);
  return Enqueue(std::move(request));
}

std::future<ServeResult> ServingFrontEnd::Enqueue(Request request) {
  std::future<ServeResult> future = request.done.get_future();
  const auto reject = [&](Status status,
                          std::chrono::nanoseconds retry_after) {
    ServeResult result;
    result.status = std::move(status);
    result.retry_after = retry_after;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
    }
    request.done.set_value(std::move(result));
    return std::move(future);
  };

  if (const Status faulted = AdmitFaultPoint(); !faulted.ok()) {
    return reject(faulted, options_.retry_after);
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return reject(Status::Unavailable("serving front end is shutting down"),
                  options_.retry_after);
  }
  // Load shedding: past high-water the queue is considered overloaded and
  // the client is told to back off, long before the hard capacity bound.
  if (queue_.size() >= high_water_) {
    return reject(
        Status::Unavailable("admission queue past high-water; retry later"),
        options_.retry_after);
  }
  // The deadline starts at admission, so time spent queued counts against
  // it -- an overloaded system fails requests instead of serving them
  // arbitrarily late.
  if (options_.default_deadline.count() > 0) {
    request.has_deadline = true;
    request.deadline = ExecContext::Clock::now() + options_.default_deadline;
  }
  auto boxed = std::make_unique<Request>(std::move(request));
  if (!queue_.TryPush(std::move(boxed))) {
    // Raced to full/closed between the high-water probe and the push.
    // TryPush does not consume on failure, so the promise is still ours.
    ServeResult result;
    result.status = Status::Unavailable("admission queue full; retry later");
    result.retry_after = options_.retry_after;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
    }
    boxed->done.set_value(std::move(result));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.admitted;
  }
  return future;
}

void ServingFrontEnd::WorkerLoop() {
  while (true) {
    std::optional<std::unique_ptr<Request>> item = queue_.Pop();
    if (!item.has_value()) return;  // Closed and drained.
    Request& request = **item;
    request.done.set_value(Process(request));
  }
}

ServeResult ServingFrontEnd::Process(Request& request) {
  ExponentialBackoff backoff(options_.initial_backoff, options_.max_backoff);
  ServeResult result;
  int attempts = 0;
  while (true) {
    result = ExecuteOnce(request);
    ++attempts;
    // Only kInternal is retried: it may implicate the cached plan, which
    // PlanCache::Execute already quarantined, so the retry replans from
    // scratch.  Governance errors blame the caller's limits and
    // kUnavailable is the client's retry, not ours.
    if (result.status.code() != StatusCode::kInternal ||
        attempts > options_.max_retries ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }
    std::this_thread::sleep_for(backoff.Next());
  }
  result.attempts = attempts;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (result.status.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  return result;
}

ServeResult ServingFrontEnd::ExecuteOnce(const Request& request) {
  ServeResult result;
  if (const Status faulted = ExecuteFaultPoint(); !faulted.ok()) {
    result.status = faulted;
    return result;
  }

  // Pin the current epoch: one wait-free atomic load; everything below
  // reads only this immutable snapshot.
  const std::shared_ptr<const SystemSnapshot> snap =
      system_.snapshots().Current();
  if (snap == nullptr) {
    result.status = Status::Unavailable("no epoch published yet");
    result.retry_after = options_.retry_after;
    return result;
  }
  result.epoch = snap->epoch();
  result.sequence = snap->sequence();

  // Pre-check the lag so a request admitted during a burst of evolutions
  // fails fast instead of executing against an ancient epoch.
  const uint64_t published = system_.snapshots().CurrentSequence();
  if (EpochLag(published, snap->sequence()) > options_.max_epoch_lag) {
    result.status = Status::Unavailable(
        "pinned epoch lags the publisher; resubmit against a fresh epoch");
    result.retry_after = options_.retry_after;
    return result;
  }

  // Register with the watchdog for the duration of the execution.
  auto inflight = std::make_shared<InFlight>();
  inflight->pinned_sequence = snap->sequence();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.push_back(inflight);
  }

  ExecContext ctx;
  ctx.WithCancelToken(&inflight->cancel);
  if (request.has_deadline) ctx.WithDeadline(request.deadline);

  Result<Relation> executed = [&]() -> Result<Relation> {
    ViewDefinition def;
    if (!request.view_name.empty()) {
      EVE_ASSIGN_OR_RETURN(def, snap->View(request.view_name));
    } else {
      EVE_ASSIGN_OR_RETURN(def, ParseViewDefinition(request.esql));
    }
    return plan_cache_.Execute(def, *snap, options_.exec, ctx);
  }();

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(std::find(inflight_.begin(), inflight_.end(), inflight));
  }

  if (executed.ok()) {
    result.relation = std::move(executed).value();
    return result;
  }
  if (executed.status().code() == StatusCode::kCancelled &&
      inflight->watchdog_fired.load(std::memory_order_acquire)) {
    // The watchdog cancelled us for pinning an epoch too far behind:
    // surface it as the retryable degradation signal, not a caller error.
    result.status = Status::Unavailable(
        "request pinned an epoch more than " +
        std::to_string(options_.max_epoch_lag) +
        " publications behind; resubmit against a fresh epoch");
    result.retry_after = options_.retry_after;
    return result;
  }
  result.status = executed.status();
  return result;
}

void ServingFrontEnd::WatchdogLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(options_.watchdog_period);
    const uint64_t published = system_.snapshots().CurrentSequence();
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const std::shared_ptr<InFlight>& f : inflight_) {
      if (f->watchdog_fired.load(std::memory_order_relaxed)) continue;
      if (EpochLag(published, f->pinned_sequence) <= options_.max_epoch_lag) {
        continue;
      }
      f->watchdog_fired.store(true, std::memory_order_release);
      f->cancel.Cancel();
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.watchdog_kills;
    }
  }
}

ServingStats ServingFrontEnd::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace eve
