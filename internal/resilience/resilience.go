// Package resilience is the failure-handling substrate of the pipeline:
// context-aware retries with jittered exponential backoff and per-call
// budgets, a circuit breaker, and a supervisor that keeps restartable
// jobs alive without hot restart loops. The paper's operational reality
// (§VI: lossy, bursty telemetry, routine pipeline outages) makes these
// mechanisms prerequisites for every scale-out step — a sink hiccup must
// cost a retry, not a pipeline.
//
// Error taxonomy: an error is *transient* (worth retrying or restarting)
// when any error in its chain implements `Transient() bool` returning
// true — the contract fault injectors and infrastructure errors opt into.
// Context cancellation and deadline expiry are never transient: they are
// the caller saying stop. Everything else is *fatal* by default, because
// retrying a programming error only hides it.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// TransientError is the opt-in marker for retryable failures. Errors
// returned by the faults injector and transient infrastructure errors
// implement it; Retry and Supervisor consult it through IsTransient.
type TransientError interface {
	Transient() bool
}

// IsTransient reports whether any error in err's chain marks itself
// transient. Context cancellation and deadline expiry are never
// transient, even if a wrapper claims otherwise.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}

// marked wraps an error with a transient marker.
type marked struct{ err error }

func (m *marked) Error() string   { return m.err.Error() }
func (m *marked) Unwrap() error   { return m.err }
func (m *marked) Transient() bool { return true }

// MarkTransient returns err marked transient (nil stays nil). Use it at
// the boundary where a failure is known to be worth retrying — an
// overloaded sink, a connection reset — so classification stays with the
// code that has the context to decide.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err}
}

// Policy tunes Retry. The zero value selects the defaults noted per
// field; NoRetry disables retrying entirely.
type Policy struct {
	// MaxAttempts caps total attempts, first call included (default 5).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff delay (default 100ms).
	MaxDelay time.Duration
	// Budget caps the wall clock spent across all attempts; once
	// exceeded, the last error is returned without further attempts
	// (0 = no budget).
	Budget time.Duration
	// OnRetry, when non-nil, observes every retry: the attempt number
	// just failed (1-based), its error, and the upcoming backoff delay.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// NoRetry is the single-attempt policy: failures surface immediately.
var NoRetry = Policy{MaxAttempts: 1}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// jitterRng randomizes backoff delays. Retry determinism is not a goal
// (the chaos injector owns its own seeded stream); this one is guarded
// so concurrent retries are race-free.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(1))
)

// jittered draws a delay uniformly from [d/2, d], de-synchronizing retry
// storms from concurrent callers.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	jitterMu.Lock()
	f := jitterRng.Float64()
	jitterMu.Unlock()
	return d - time.Duration(f*0.5*float64(d))
}

// Retry runs fn until it succeeds, returns an error IsTransient rejects,
// the attempt/budget limits run out, or ctx is done, doubling the delay
// between attempts up to MaxDelay. The returned error is fn's last error
// (or ctx.Err() when cancelled while backing off).
func Retry(ctx context.Context, p Policy, fn func() error) error {
	p = p.withDefaults()
	start := time.Now()
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt >= p.MaxAttempts || !IsTransient(err) {
			return err
		}
		if p.Budget > 0 && time.Since(start) >= p.Budget {
			return err
		}
		d := jittered(delay)
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		delay *= 2
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
