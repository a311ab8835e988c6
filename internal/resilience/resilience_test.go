package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fastPolicy keeps test retries in the microsecond range.
func fastPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond}
}

var errBoom = errors.New("boom")

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Fatal("nil is transient")
	}
	if IsTransient(errBoom) {
		t.Fatal("plain error is transient")
	}
	if !IsTransient(MarkTransient(errBoom)) {
		t.Fatal("marked error not transient")
	}
	if !IsTransient(MarkTransient(errors.New("wrapped"))) {
		t.Fatal("marked transient lost")
	}
	// Context errors are never transient, even marked.
	if IsTransient(MarkTransient(context.Canceled)) {
		t.Fatal("cancellation classified transient")
	}
	if IsTransient(MarkTransient(context.DeadlineExceeded)) {
		t.Fatal("deadline classified transient")
	}
	// Transient marker survives fmt wrapping.
	wrapped := errors.Join(errors.New("outer"), MarkTransient(errBoom))
	if !IsTransient(wrapped) {
		t.Fatal("marker not found through wrapping")
	}
}

func TestRetryMasksTransients(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), fastPolicy(), func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errBoom)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryFatalStopsImmediately(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), fastPolicy(), func() error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls, retries := 0, 0
	p := fastPolicy()
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		retries++
		if attempt != retries {
			t.Fatalf("attempt=%d retries=%d", attempt, retries)
		}
		if delay < 0 || delay > p.MaxDelay {
			t.Fatalf("delay out of range: %v", delay)
		}
	}
	err := Retry(context.Background(), p, func() error {
		calls++
		return MarkTransient(errBoom)
	})
	if !errors.Is(err, errBoom) || calls != p.MaxAttempts || retries != p.MaxAttempts-1 {
		t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
	}
}

func TestRetryBudget(t *testing.T) {
	p := Policy{MaxAttempts: 100, BaseDelay: 5 * time.Millisecond, Budget: time.Millisecond}
	calls := 0
	start := time.Now()
	err := Retry(context.Background(), p, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return MarkTransient(errBoom)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err=%v", err)
	}
	if calls > 3 {
		t.Fatalf("budget did not stop retries: %d calls in %v", calls, time.Since(start))
	}
}

func TestRetryContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, p, func() error { return MarkTransient(errBoom) })
	}()
	time.Sleep(5 * time.Millisecond) // let it enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("retry did not observe cancellation")
	}
}

func TestNoRetry(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), NoRetry, func() error {
		calls++
		return MarkTransient(errBoom)
	})
	if !errors.Is(err, errBoom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Name: "sink", FailureThreshold: 2, Cooldown: time.Second})
	b.SetClock(func() time.Time { return now })

	// Two consecutive failures trip it.
	for i := 0; i < 2; i++ {
		if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Open circuit rejects without calling fn, and the rejection is
	// transient so retries back off instead of giving up.
	called := false
	err := b.Do(func() error { called = true; return nil })
	if !errors.Is(err, ErrBreakerOpen) || called {
		t.Fatalf("err=%v called=%v", err, called)
	}
	if !IsTransient(err) {
		t.Fatal("breaker rejection not transient")
	}
	// Past the cooldown a probe goes through; success closes the circuit.
	now = now.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	st := b.Stats()
	if st.Name != "sink" || st.Opens != 1 || st.Rejected != 1 || st.LastErr == "" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	b.SetClock(func() time.Time { return now })
	_ = b.Do(func() error { return errBoom })
	now = now.Add(2 * time.Second)
	// Failed probe re-trips immediately.
	_ = b.Do(func() error { return errBoom })
	if st := b.Stats(); st.Opens != 2 || st.State != "open" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorRestartsThenSucceeds(t *testing.T) {
	var restarts []int
	s := NewSupervisor(SupervisorConfig{
		Name: "job", MaxRestarts: 5, Window: time.Minute,
		Backoff:   Policy{BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond},
		OnRestart: func(n int, err error) { restarts = append(restarts, n) },
	})
	calls := 0
	err := s.Run(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return MarkTransient(errBoom)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	st := s.Stats()
	if st.Restarts != 2 || st.State != "stopped" || len(restarts) != 2 {
		t.Fatalf("stats=%+v restarts=%v", st, restarts)
	}
}

func TestSupervisorFatalStops(t *testing.T) {
	s := NewSupervisor(SupervisorConfig{Backoff: Policy{BaseDelay: 50 * time.Microsecond}})
	calls := 0
	err := s.Run(context.Background(), func(ctx context.Context) error {
		calls++
		return errBoom // not transient: fatal
	})
	if !errors.Is(err, errBoom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if st := s.Stats(); st.State != "failed" || st.Restarts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorRestartStormDamping(t *testing.T) {
	s := NewSupervisor(SupervisorConfig{
		Name: "hot", MaxRestarts: 3, Window: time.Minute,
		Backoff: Policy{BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond},
	})
	calls := 0
	start := time.Now()
	err := s.Run(context.Background(), func(ctx context.Context) error {
		calls++
		return MarkTransient(errBoom)
	})
	if !errors.Is(err, ErrRestartStorm) {
		t.Fatalf("err=%v, want restart storm", err)
	}
	// MaxRestarts restarts plus the initial run = 4 incarnations total,
	// and the damper must decide fast (the backoff budget, not Window).
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("damping took %v", elapsed)
	}
	st := s.Stats()
	if st.State != "failed" || st.Restarts != 3 || st.LastErr == "" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorClockFastForward(t *testing.T) {
	// With an injectable clock that advances past the damping window on
	// every failure, restart instants age out before the storm threshold
	// and the supervisor restarts indefinitely — the cluster failover
	// tests rely on exactly this fast-forward instead of sleeping.
	var fake struct {
		mu  sync.Mutex
		now time.Time
	}
	fake.now = time.Unix(0, 0)
	clock := func() time.Time {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		return fake.now
	}
	advance := func(d time.Duration) {
		fake.mu.Lock()
		fake.now = fake.now.Add(d)
		fake.mu.Unlock()
	}

	s := NewSupervisor(SupervisorConfig{
		Name: "ff", MaxRestarts: 2, Window: time.Hour,
		Backoff: Policy{BaseDelay: 50 * time.Microsecond, MaxDelay: 100 * time.Microsecond},
		Clock:   clock,
	})
	calls := 0
	err := s.Run(context.Background(), func(ctx context.Context) error {
		calls++
		if calls >= 10 {
			return nil
		}
		advance(2 * time.Hour) // each failure lands in a fresh window
		return MarkTransient(errBoom)
	})
	if err != nil {
		t.Fatalf("fast-forwarded supervisor stormed: %v (calls=%d)", err, calls)
	}
	if calls != 10 {
		t.Fatalf("calls = %d, want 10 (9 restarts, all damped away by the clock)", calls)
	}

	// Frozen clock: the same failure rate is a storm, decided purely by
	// the injected clock — both paths must consult it (the regression was
	// one code path still reading time.Now directly, which under a frozen
	// fake clock made storm decisions depend on wall time).
	s2 := NewSupervisor(SupervisorConfig{
		Name: "frozen", MaxRestarts: 2, Window: time.Hour,
		Backoff: Policy{BaseDelay: 50 * time.Microsecond, MaxDelay: 100 * time.Microsecond},
		Clock:   clock,
	})
	calls = 0
	err = s2.Run(context.Background(), func(ctx context.Context) error {
		calls++
		return MarkTransient(errBoom)
	})
	if !errors.Is(err, ErrRestartStorm) || calls != 3 {
		t.Fatalf("frozen clock: err=%v calls=%d, want storm after 3 incarnations", err, calls)
	}
}
