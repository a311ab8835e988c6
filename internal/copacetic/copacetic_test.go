package copacetic

import (
	"fmt"
	"testing"
	"time"

	"odakit/internal/logsearch"
	"odakit/internal/schema"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func ev(min int, host, sev, msg string) schema.Event {
	return schema.Event{
		Ts: t0.Add(time.Duration(min) * time.Minute), System: "compass",
		Source: "syslog", Host: host, Severity: sev, Message: msg,
	}
}

func engineWith(t *testing.T, events []schema.Event, rules ...Rule) *Engine {
	t.Helper()
	logs := logsearch.New()
	for i := range events {
		logs.Add(events[i])
	}
	e := NewEngine(logs)
	for _, r := range rules {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestRuleValidation(t *testing.T) {
	e := NewEngine(logsearch.New())
	if err := e.AddRule(Rule{}); err == nil {
		t.Fatal("empty rule accepted")
	}
	if err := e.AddRule(Rule{Name: "x", Window: time.Minute}); err == nil {
		t.Fatal("conditionless rule accepted")
	}
	if err := e.AddRule(Rule{Name: "x", Events: []EventCond{{Terms: []string{"a"}}}}); err == nil {
		t.Fatal("zero window accepted")
	}
	ok := Rule{Name: "x", Window: time.Minute, Events: []EventCond{{Terms: []string{"a"}}}}
	if err := e.AddRule(ok); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(ok); err == nil {
		t.Fatal("duplicate rule accepted")
	}
}

func TestEventCountCondition(t *testing.T) {
	var events []schema.Event
	for i := 0; i < 4; i++ {
		events = append(events, ev(i, "login01", "info", fmt.Sprintf("session opened for user%02d", i)))
	}
	e := engineWith(t, events, Rule{
		Name: "burst", Window: 10 * time.Minute, Severity: "warning",
		Events: []EventCond{{Terms: []string{"session", "opened"}, MinCount: 5}},
	})
	// 4 < 5: no alert.
	if alerts := e.Evaluate(t0.Add(5 * time.Minute)); len(alerts) != 0 {
		t.Fatalf("premature alert: %+v", alerts)
	}
	// One more pushes it over.
	e.logs.Add(ev(5, "login01", "info", "session opened for user99"))
	alerts := e.Evaluate(t0.Add(6 * time.Minute))
	if len(alerts) != 1 || alerts[0].Rule != "burst" || alerts[0].Severity != "warning" {
		t.Fatalf("alerts = %+v", alerts)
	}
	if len(alerts[0].Evidence) == 0 {
		t.Fatal("alert lacks evidence")
	}
}

func TestPerHostCondition(t *testing.T) {
	var events []schema.Event
	// 6 sessions spread across hosts: no single host reaches 5.
	for i := 0; i < 6; i++ {
		events = append(events, ev(i, fmt.Sprintf("login%02d", i%3), "info", "session opened for user01"))
	}
	rule := Rule{
		Name: "per-host", Window: 10 * time.Minute, Severity: "warning",
		Events: []EventCond{{Terms: []string{"session", "opened"}, MinCount: 5, PerHost: true}},
	}
	e := engineWith(t, events, rule)
	if alerts := e.Evaluate(t0.Add(7 * time.Minute)); len(alerts) != 0 {
		t.Fatalf("spread sessions alerted: %+v", alerts)
	}
	// Concentrate 5 on one host.
	for i := 0; i < 5; i++ {
		e.logs.Add(ev(7, "login00", "info", "session opened for user02"))
	}
	if alerts := e.Evaluate(t0.Add(8 * time.Minute)); len(alerts) != 1 {
		t.Fatalf("concentrated sessions did not alert")
	}
}

func TestWindowExpiry(t *testing.T) {
	var events []schema.Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(i, "login01", "info", "session opened"))
	}
	e := engineWith(t, events, Rule{
		Name: "burst", Window: 10 * time.Minute, Severity: "warning",
		Events: []EventCond{{Terms: []string{"session"}, MinCount: 5}},
	})
	if len(e.Evaluate(t0.Add(9*time.Minute))) != 1 {
		t.Fatal("in-window events did not alert")
	}
	// An hour later the same events are outside the window.
	if len(e.Evaluate(t0.Add(time.Hour))) != 0 {
		t.Fatal("stale events alerted")
	}
}

func TestCombinationRule(t *testing.T) {
	// The paper's signature: availability + state + behavior combined.
	events := []schema.Event{
		ev(0, "switch0001", "error", "link flap on port 3, retraining"),
		ev(1, "switch0002", "error", "link flap on port 9, retraining"),
		ev(2, "login01", "info", "session opened for user07"),
	}
	probeCalls := 0
	rule := Rule{
		Name: "combo", Window: 15 * time.Minute, Severity: "critical",
		Events: []EventCond{
			{Terms: []string{"link", "flap"}, Severity: "error", MinCount: 2},
			{Terms: []string{"session", "opened"}, MinCount: 1},
		},
		Probes: []StateProbe{{
			Name: "fabric-degraded",
			Check: func(now time.Time) (bool, string) {
				probeCalls++
				return true, "congestion above threshold"
			},
		}},
	}
	e := engineWith(t, events, rule)
	alerts := e.Evaluate(t0.Add(5 * time.Minute))
	if len(alerts) != 1 {
		t.Fatalf("combination did not fire: %+v", alerts)
	}
	if probeCalls != 1 {
		t.Fatalf("probe calls = %d", probeCalls)
	}
	if len(alerts[0].Evidence) != 3 {
		t.Fatalf("evidence = %v", alerts[0].Evidence)
	}

	// A failing probe suppresses the alert even with matching events.
	rule2 := rule
	rule2.Name = "combo2"
	rule2.Probes = []StateProbe{{Name: "never", Check: func(time.Time) (bool, string) { return false, "" }}}
	if err := e.AddRule(rule2); err != nil {
		t.Fatal(err)
	}
	alerts = e.Evaluate(t0.Add(6 * time.Minute))
	for _, a := range alerts {
		if a.Rule == "combo2" {
			t.Fatal("failing probe fired")
		}
	}
}

func TestAlertsAccumulateAndStats(t *testing.T) {
	events := []schema.Event{ev(0, "h", "error", "machine check exception bank=1")}
	e := engineWith(t, events, Rule{
		Name: "any-error", Window: time.Hour, Severity: "notice",
		Events: []EventCond{{Severity: "error"}},
	})
	e.Evaluate(t0.Add(time.Minute))
	e.Evaluate(t0.Add(2 * time.Minute))
	if got := len(e.Alerts()); got != 2 {
		t.Fatalf("accumulated alerts = %d", got)
	}
	st := e.Stats()
	if st.Rules != 1 || st.Checks != 2 || st.Alerts != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDefaultRulesRegisterAndFire(t *testing.T) {
	logs := logsearch.New()
	e := NewEngine(logs)
	for _, r := range DefaultRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Rules()) != 3 {
		t.Fatalf("rules = %d", len(e.Rules()))
	}
	// Feed an error storm: the hardware-error-storm rule must fire.
	for i := 0; i < 12; i++ {
		logs.Add(ev(0, fmt.Sprintf("node%05d", i), "error", "ecc double-bit error dimm=2 addr=0xbeef"))
	}
	alerts := e.Evaluate(t0.Add(time.Minute))
	found := false
	for _, a := range alerts {
		if a.Rule == "hardware-error-storm" && a.Severity == "critical" {
			found = true
		}
	}
	if !found {
		t.Fatalf("error storm not detected: %+v", alerts)
	}
}
