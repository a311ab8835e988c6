package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrRestartStorm reports a supervisor that gave up: the supervised job
// kept failing faster than its damping window allows.
var ErrRestartStorm = errors.New("resilience: restart storm, supervisor giving up")

// SupervisorConfig tunes a Supervisor. Zero values select defaults.
type SupervisorConfig struct {
	// Name labels the supervisor in stats and health output.
	Name string
	// MaxRestarts is how many restarts are allowed inside Window before
	// the supervisor gives up with ErrRestartStorm (default 5).
	MaxRestarts int
	// Window is the sliding interval MaxRestarts is counted over
	// (default 1 minute) — the restart-storm damper: a job that fails
	// once an hour restarts forever, one that fails every millisecond
	// stops after MaxRestarts instead of hot-looping.
	Window time.Duration
	// Backoff shapes the delay between restarts (Policy delay fields
	// only; its attempt limits are ignored — Window/MaxRestarts govern).
	Backoff Policy
	// OnRestart, when non-nil, observes every restart decision: the
	// restart ordinal (1-based) and the error that caused it.
	OnRestart func(restart int, err error)
	// Clock supplies the damping window's notion of now (default
	// time.Now). Failover tests fast-forward it so a restart storm — or
	// its absence — is decided deterministically instead of by wall time.
	Clock func() time.Time
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	c.Backoff = c.Backoff.withDefaults()
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// SupervisorState describes where a supervised job is in its lifecycle.
type SupervisorState int

// Supervisor lifecycle states.
const (
	SupervisorIdle SupervisorState = iota
	SupervisorRunning
	SupervisorBackoff
	SupervisorStopped // finished cleanly or cancelled
	SupervisorFailed  // fatal error or restart storm
)

func (s SupervisorState) String() string {
	switch s {
	case SupervisorRunning:
		return "running"
	case SupervisorBackoff:
		return "backoff"
	case SupervisorStopped:
		return "stopped"
	case SupervisorFailed:
		return "failed"
	default:
		return "idle"
	}
}

// Supervisor runs a restartable job: each failure classified transient
// triggers a backed-off restart, damped so a persistent failure cannot
// hot-loop — at most MaxRestarts restarts per Window, then the
// supervisor fails with ErrRestartStorm wrapping the last job error.
// The job itself is responsible for resuming from durable state (the
// sproc jobs restart from their checkpoints).
type Supervisor struct {
	cfg SupervisorConfig

	mu       sync.Mutex
	state    SupervisorState
	restarts int64
	lastErr  error
}

// NewSupervisor returns an idle supervisor.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// Run invokes start, restarting it on transient failure until it
// returns nil, fails fatally, exhausts the damping budget, or ctx is
// done. start is called once per incarnation with the same ctx, so a
// restartable job must re-acquire its resources inside start.
func (s *Supervisor) Run(ctx context.Context, start func(ctx context.Context) error) error {
	s.setState(SupervisorRunning)
	var recent []time.Time // restart instants inside the damping window
	delay := s.cfg.Backoff.BaseDelay
	for {
		err := start(ctx)
		if err == nil || ctx.Err() != nil {
			s.finish(SupervisorStopped, err)
			return err
		}
		s.noteErr(err)
		if !IsTransient(err) {
			s.finish(SupervisorFailed, err)
			return err
		}
		// Damping: drop restart instants that aged out of the window; if
		// the window is still full, this is a restart storm.
		now := s.cfg.Clock()
		keep := recent[:0]
		for _, t := range recent {
			if now.Sub(t) < s.cfg.Window {
				keep = append(keep, t)
			}
		}
		recent = keep
		if len(recent) >= s.cfg.MaxRestarts {
			storm := fmt.Errorf("%w: %s failed %d times in %v: %v",
				ErrRestartStorm, s.cfg.Name, len(recent)+1, s.cfg.Window, err)
			s.finish(SupervisorFailed, storm)
			return storm
		}
		recent = append(recent, now)
		n := s.addRestart()
		if s.cfg.OnRestart != nil {
			s.cfg.OnRestart(n, err)
		}
		s.setState(SupervisorBackoff)
		select {
		case <-ctx.Done():
			s.finish(SupervisorStopped, ctx.Err())
			return ctx.Err()
		case <-time.After(jittered(delay)):
		}
		delay *= 2
		if delay > s.cfg.Backoff.MaxDelay {
			delay = s.cfg.Backoff.MaxDelay
		}
		s.setState(SupervisorRunning)
	}
}

func (s *Supervisor) setState(st SupervisorState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

func (s *Supervisor) noteErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

func (s *Supervisor) finish(st SupervisorState, err error) {
	s.mu.Lock()
	s.state = st
	if err != nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

func (s *Supervisor) addRestart() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restarts++
	return int(s.restarts)
}

// SupervisorStats is a supervisor metrics snapshot.
type SupervisorStats struct {
	Name     string
	State    string
	Restarts int64
	LastErr  string
}

// Stats returns current supervisor counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SupervisorStats{Name: s.cfg.Name, State: s.state.String(), Restarts: s.restarts}
	if s.lastErr != nil {
		st.LastErr = s.lastErr.Error()
	}
	return st
}
