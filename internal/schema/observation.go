package schema

import "time"

// The canonical long-format record of the paper's "Bronze" state: each row
// encapsulates an individual sensor observation (§V-A). Observations flow
// from telemetry generators through the STREAM broker into the medallion
// pipeline.

// Observation is one numeric sensor reading.
type Observation struct {
	Ts        time.Time // sample timestamp
	System    string    // originating system, e.g. "compass"
	Source    string    // data source, e.g. "power_temp", "gpu"
	Component string    // node or component id, e.g. "node0421"
	Metric    string    // metric name, e.g. "node_power_w"
	Value     float64
}

// Event is one unstructured log or event record (syslog & events source).
type Event struct {
	Ts       time.Time
	System   string
	Source   string // e.g. "syslog", "resource_manager"
	Host     string
	Severity string // "info", "warn", "error", "fatal"
	Message  string
}

// ObservationSchema is the Bronze long-format schema.
var ObservationSchema = New(
	Field{Name: "ts", Kind: KindTime},
	Field{Name: "system", Kind: KindString},
	Field{Name: "source", Kind: KindString},
	Field{Name: "component", Kind: KindString},
	Field{Name: "metric", Kind: KindString},
	Field{Name: "value", Kind: KindFloat},
)

// EventSchema is the Bronze schema for log/event records.
var EventSchema = New(
	Field{Name: "ts", Kind: KindTime},
	Field{Name: "system", Kind: KindString},
	Field{Name: "source", Kind: KindString},
	Field{Name: "host", Kind: KindString},
	Field{Name: "severity", Kind: KindString},
	Field{Name: "message", Kind: KindString},
)

// Row converts the observation to a row conforming to ObservationSchema.
// It inlines: the row is a constant-size make, so a caller that does not
// keep it — EncodeRow(o.Row()) — holds it on its own stack, and the
// record leaves behind only the bytes it encodes to.
func (o Observation) Row() Row {
	r := make(Row, 6)
	fillObservationRow(r, &o)
	return r
}

// fillObservationRow is Row's body, kept out of line so Row stays within
// the inlining budget.
//
//go:noinline
func fillObservationRow(r Row, o *Observation) {
	r[0], r[1], r[2] = Time(o.Ts), Str(o.System), Str(o.Source)
	r[3], r[4], r[5] = Str(o.Component), Str(o.Metric), Float(o.Value)
}

// ObservationFromRow is the inverse of Observation.Row.
func ObservationFromRow(r Row) Observation {
	return Observation{
		Ts:        r[0].TimeVal(),
		System:    r[1].StrVal(),
		Source:    r[2].StrVal(),
		Component: r[3].StrVal(),
		Metric:    r[4].StrVal(),
		Value:     r[5].FloatVal(),
	}
}

// Row converts the event to a row conforming to EventSchema.
func (e Event) Row() Row {
	return Row{Time(e.Ts), Str(e.System), Str(e.Source), Str(e.Host), Str(e.Severity), Str(e.Message)}
}

// EventFromRow is the inverse of Event.Row.
func EventFromRow(r Row) Event {
	return Event{
		Ts:       r[0].TimeVal(),
		System:   r[1].StrVal(),
		Source:   r[2].StrVal(),
		Host:     r[3].StrVal(),
		Severity: r[4].StrVal(),
		Message:  r[5].StrVal(),
	}
}
