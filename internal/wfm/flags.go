package wfm

import "flag"

// RegisterFlags binds the manager's tuning flags straight into o. The
// values o holds at the call are the flags' defaults, so a binary states
// its defaults once, as the Options literal it registers; a new tunable
// is one field plus one line here. The drive, client, journal, cache,
// observers and hooks are not tunings and stay the caller's to set.
//
// -schedule is a string flag, so -h and a bad value read as they always
// have: call resolve once fs is parsed to set o.Scheduling from it.
func (o *Options) RegisterFlags(fs *flag.FlagSet) (resolve func() error) {
	schedule := fs.String("schedule", o.Scheduling.String(), "scheduling mode: phases (paper barriers) or dependency (event-driven)")
	fs.Float64Var(&o.TimeScale, "time-scale", o.TimeScale, "nominal-second to wall-second factor")
	fs.Float64Var(&o.PhaseDelay, "phase-delay", o.PhaseDelay, "inter-phase delay, nominal seconds")
	fs.IntVar(&o.MaxParallel, "max-parallel", o.MaxParallel, "max simultaneous HTTP invocations")
	fs.IntVar(&o.Retries, "retries", o.Retries, "retry transient invocation failures this many times")
	fs.Float64Var(&o.RetryBackoff, "retry-backoff", o.RetryBackoff, "base retry backoff, nominal seconds (full-jitter exponential)")
	fs.Float64Var(&o.RetryBackoffMax, "retry-backoff-max", o.RetryBackoffMax, "backoff ceiling, nominal seconds (0: 30)")
	fs.Float64Var(&o.TaskTimeout, "task-timeout", o.TaskTimeout, "whole-task deadline across all attempts, nominal seconds (0: none)")

	fs.BoolVar(&o.Breaker.Enabled, "breaker", o.Breaker.Enabled, "enable the per-endpoint circuit breaker")
	fs.Float64Var(&o.Breaker.FailureThreshold, "breaker-threshold", o.Breaker.FailureThreshold, "failure rate that opens the breaker (0: 0.5)")
	fs.IntVar(&o.Breaker.Window, "breaker-window", o.Breaker.Window, "sliding window of attempts per endpoint (0: 20)")
	fs.Float64Var(&o.Breaker.Cooldown, "breaker-cooldown", o.Breaker.Cooldown, "open-state cooldown before probing, nominal seconds (0: 5)")

	fs.BoolVar(&o.Batching.Enabled, "batch", o.Batching.Enabled, "coalesce same-endpoint invocations into framed /invoke-batch POSTs")
	fs.IntVar(&o.Batching.MaxTasks, "batch-tasks", o.Batching.MaxTasks, "max sub-tasks per batch (0: 64)")
	fs.IntVar(&o.Batching.MaxBytes, "batch-bytes", o.Batching.MaxBytes, "max summed payload bytes per batch (0: 1 MiB)")
	fs.Float64Var(&o.Batching.Linger, "batch-linger", o.Batching.Linger, "batch linger window, nominal seconds (0: 0.005)")

	return func() (err error) {
		o.Scheduling, err = ParseScheduling(*schedule)
		return err
	}
}
