package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen reports a call rejected because the circuit is open.
// Do returns it marked transient: once the sink heals, the half-open
// probe closes the circuit, so a retry after the cooldown can succeed.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states: closed passes calls, open rejects them, half-open lets
// probe calls through to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a circuit breaker. Zero values select defaults.
type BreakerConfig struct {
	// Name labels the breaker in stats and health output.
	Name string
	// FailureThreshold is how many consecutive failures open the circuit
	// (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit rejects calls before allowing
	// a half-open probe (default 1s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker: after
// FailureThreshold failures in a row it rejects calls with
// ErrBreakerOpen (failing fast instead of hammering a dead sink), and
// after Cooldown it lets a probe through, whose success closes it again.
// Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	opens    int64     // times the circuit has opened
	rejected int64     // calls rejected while open
	lastErr  error
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// SetClock replaces the breaker clock (deterministic tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// Do runs fn through the breaker: rejected immediately with
// ErrBreakerOpen while the circuit is open, otherwise fn's error is
// recorded to drive the state machine and returned as-is. A nil breaker
// runs fn.
func (b *Breaker) Do(fn func() error) error {
	if b == nil {
		return fn()
	}
	b.mu.Lock()
	if b.state == BreakerOpen {
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejected++
			b.mu.Unlock()
			return MarkTransient(ErrBreakerOpen)
		}
		b.state = BreakerHalfOpen
	}
	b.mu.Unlock()

	err := fn()

	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = BreakerClosed
		b.failures = 0
		return nil
	}
	b.lastErr = err
	switch b.state {
	case BreakerHalfOpen:
		b.trip()
	default:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
	return err
}

// trip opens the circuit; b.mu must be held.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.opens++
	b.failures = 0
}

// State returns the breaker's current position, accounting for cooldown
// expiry (an open breaker past its cooldown reports half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// BreakerStats is a breaker metrics snapshot.
type BreakerStats struct {
	Name     string
	State    string
	Opens    int64 // times the circuit opened
	Rejected int64 // calls rejected while open
	LastErr  string
}

// Stats returns current breaker counters.
func (b *Breaker) Stats() BreakerStats {
	st := BreakerStats{Name: b.cfg.Name, State: b.State().String()}
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Opens = b.opens
	st.Rejected = b.rejected
	if b.lastErr != nil {
		st.LastErr = b.lastErr.Error()
	}
	return st
}
