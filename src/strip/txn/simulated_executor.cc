#include "strip/txn/simulated_executor.h"

#include <algorithm>

#include "strip/obs/metrics.h"
#include "strip/obs/rule_cost.h"
#include "strip/obs/trace_ring.h"
#include "strip/testing/fault_injector.h"

namespace strip {

ExecutorStats::ExecutorStats(MetricsRegistry& metrics)
    : tasks_run(*metrics.counter("executor.tasks_run")),
      tasks_failed(*metrics.counter("executor.tasks_failed")),
      busy_micros(*metrics.counter("executor.busy_micros")) {}

Timestamp ExecuteTaskBody(TaskControlBlock& task, Timestamp now,
                          ExecutorStats& stats, const ExecutorObs& obs) {
  task.start_time = now;
  if (obs.trace != nullptr) {
    obs.trace->Record(TraceEventKind::kStart, task.id(), now,
                      task.function_name.c_str(), task.trace.trace_id);
  }
  Timestamp queue_wait = std::max<Timestamp>(
      0, now - std::max(task.enqueue_time, task.release_time));
  if (obs.queue_wait_us != nullptr) obs.queue_wait_us->Observe(queue_wait);
  StopWatch watch;
  Status st = task.work ? task.work(task) : Status::OK();
  int64_t nanos = watch.ElapsedNanos();
  Timestamp cost = task.fixed_cost_micros >= 0 ? task.fixed_cost_micros
                                               : (nanos + 500) / 1000;
  task.cpu_nanos = task.fixed_cost_micros >= 0
                       ? task.fixed_cost_micros * 1000
                       : nanos;
  task.cpu_micros = cost;
  task.result = st;
  stats.tasks_run.Add();
  if (!st.ok()) stats.tasks_failed.Add();
  stats.busy_micros.Add(static_cast<uint64_t>(cost));
  if (obs.run_us != nullptr) obs.run_us->Observe(cost);
  // Per-rule breakdown: where did this firing's latency go, and what did
  // it cost? Read after `work` returned, so the plain cost fields the body
  // accumulated (lock waits, scanned rows, folded deltas) are complete.
  if (obs.rule_cost != nullptr && !task.function_name.empty()) {
    const RuleCostHandles* h = obs.rule_cost->Handles(task.function_name);
    h->queue_wait_us->Observe(queue_wait);
    h->lock_wait_us->Observe(task.lock_wait_micros);
    h->exec_us->Observe(cost);
    h->cpu_micros->Add(static_cast<uint64_t>(cost));
    if (task.rows_scanned > 0) h->rows_scanned->Add(task.rows_scanned);
    if (task.deltas_folded > 0) h->deltas_folded->Add(task.deltas_folded);
    if (task.lock_restarts > 0) h->lock_aborts->Add(task.lock_restarts);
  }
  return cost;
}

void SimulatedExecutor::Submit(TaskPtr task) {
  task->enqueue_time = clock_.Now();
  if (obs_.trace != nullptr) {
    obs_.trace->Record(TraceEventKind::kSubmit, task->id(), clock_.Now(),
                       task->function_name.c_str(), task->trace.trace_id);
  }
  if (injector_ != nullptr) {
    // Deterministic cost: measured wall-nanos would make virtual time (and
    // so the whole schedule) nondeterministic under a chaos seed.
    if (task->fixed_cost_micros < 0) {
      task->fixed_cost_micros = injector_->AssignCost(task->id());
    }
    // Late timer promotion: the task is released behind schedule.
    if (task->release_time > clock_.Now()) {
      task->release_time += injector_->ExtraReleaseDelay(task->id());
    }
  }
  if (task->release_time > clock_.Now()) {
    if (obs_.trace != nullptr) {
      obs_.trace->Record(TraceEventKind::kDelayed, task->id(),
                         task->release_time, "", task->trace.trace_id);
    }
    delay_.Push(std::move(task));
  } else {
    if (obs_.trace != nullptr) {
      obs_.trace->Record(TraceEventKind::kReady, task->id(), clock_.Now(),
                         "", task->trace.trace_id);
    }
    ready_.Push(std::move(task));
  }
}

bool SimulatedExecutor::StepOnce() {
  // Release everything due at the current virtual time.
  for (TaskPtr& t : delay_.PopReleased(clock_.Now())) {
    if (obs_.trace != nullptr) {
      obs_.trace->Record(TraceEventKind::kReady, t->id(), clock_.Now(), "",
                         t->trace.trace_id);
    }
    ready_.Push(std::move(t));
  }
  if (ready_.empty()) return false;
  TaskPtr task = ready_.Pop();
  if (!task->TryStart()) return true;  // defensive: already ran
  if (injector_ != nullptr) {
    // Worker stall: burn virtual time before the task body, shifting the
    // start (and everything scheduled behind it) later.
    clock_.Advance(injector_->StallBeforeRun(task->id()));
  }
  Timestamp cost = ExecuteTaskBody(*task, clock_.Now(), stats_, obs_);
  if (advance_clock_by_cost_) clock_.Advance(cost);
  task->finish_time = clock_.Now();
  if (obs_.trace != nullptr) {
    obs_.trace->Record(TraceEventKind::kFinish, task->id(), clock_.Now(),
                       task->function_name.c_str(), task->trace.trace_id);
  }
  if (observer_) observer_(*task);
  return true;
}

void SimulatedExecutor::Drain(Timestamp horizon) {
  for (;;) {
    if (StepOnce()) continue;
    // Idle: jump to the next release if it is within the horizon.
    Timestamp next = delay_.NextRelease();
    if (next == kNoDeadline || next > horizon) return;
    clock_.AdvanceTo(next);
  }
}

bool SimulatedExecutor::RunOneStep() {
  if (StepOnce()) return true;
  Timestamp next = delay_.NextRelease();
  if (next == kNoDeadline) return false;
  clock_.AdvanceTo(next);
  return StepOnce();
}

void SimulatedExecutor::RunUntil(Timestamp t) {
  Drain(t);
  clock_.AdvanceTo(t);
  // Tasks released exactly at t by the final advance.
  Drain(t);
}

void SimulatedExecutor::RunUntilQuiescent() {
  Drain(kNoDeadline);
}

}  // namespace strip
