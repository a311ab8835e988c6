package sproc

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"odakit/internal/schema"
)

// Checkpoint layer: after every sunk micro-batch the job's loop persists
// its consumer offsets with the job's watermark, emitted horizon, and
// open-window state. On restart the job resumes from the checkpoint — the "advanced failure
// and recovery mechanisms that can be difficult to re-engineer from
// scratch" the paper adopts stream processing for (§V-B). Semantics are
// at-least-once across the sink/checkpoint boundary; sinks in this
// codebase (tsdb rollup, OCEAN object keyed by window) are idempotent.

type ckptAggState struct {
	Count  int64     `json:"c"`
	Sum    ckptFloat `json:"s"`
	Min    ckptFloat `json:"mn"`
	Max    ckptFloat `json:"mx"`
	First  ckptFloat `json:"f"`
	Last   ckptFloat `json:"l"`
	HasVal bool      `json:"h"`
}

// ckptFloat is a float64 that survives JSON when it is not finite: one
// ±Inf observation in an open window (or the NaN an Inf − Inf sum leaves)
// must not make every later checkpoint fail to marshal. Finite values are
// written exactly as a plain float64 is, so the file format did not move.
type ckptFloat float64

func (f ckptFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON reads either form: a JSON number is a float literal
// ParseFloat accepts, and so are the three quoted names.
func (f *ckptFloat) UnmarshalJSON(data []byte) error {
	v, err := strconv.ParseFloat(strings.Trim(string(data), `"`), 64)
	*f = ckptFloat(v)
	return err
}

type ckptGroup struct {
	Key    string         `json:"k"` // base64 of schema row codec bytes
	States []ckptAggState `json:"s"`
}

type ckptWindow struct {
	Start  int64       `json:"w"`
	Groups []ckptGroup `json:"g"`
}

type ckptFile struct {
	Name    string           `json:"name"`
	Offsets []int64          `json:"offsets"`
	PartWM  map[string]int64 `json:"part_wm"` // per-partition watermarks
	Emitted int64            `json:"emitted"`
	Windows []ckptWindow     `json:"windows"`
}

// Snapshot serializes the job's state at offsets (plane.Operator).
func (j *Job) Snapshot(offsets map[string][]int64) ([]byte, error) {
	j.mu.Lock()
	ck := ckptFile{
		Name:    j.cfg.Name,
		Offsets: offsets[j.cfg.Topic],
		PartWM:  make(map[string]int64, len(j.partWM)),
		Emitted: j.emitted,
	}
	for p, wm := range j.partWM {
		ck.PartWM[strconv.Itoa(p)] = wm
	}
	for wStart, t := range j.winState {
		w := ckptWindow{Start: wStart}
		for _, g := range t.order {
			cg := ckptGroup{Key: base64.StdEncoding.EncodeToString([]byte(g.kb))}
			for _, s := range g.states {
				cg.States = append(cg.States, ckptAggState{
					Count: s.count, Sum: ckptFloat(s.sum), Min: ckptFloat(s.min), Max: ckptFloat(s.max),
					First: ckptFloat(s.first), Last: ckptFloat(s.last), HasVal: s.hasVal,
				})
			}
			w.Groups = append(w.Groups, cg)
		}
		ck.Windows = append(ck.Windows, w)
	}
	j.mu.Unlock()
	return json.Marshal(ck)
}

// Restore rebuilds the watermarks, the emitted horizon and the open
// windows a Snapshot wrote, and returns its offsets (plane.Operator).
func (j *Job) Restore(data []byte) (map[string][]int64, error) {
	var ck ckptFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("sproc: checkpoint parse: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.partWM = make(map[int]int64, len(ck.PartWM))
	for p, wm := range ck.PartWM {
		pi, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("sproc: checkpoint partition key: %w", err)
		}
		j.partWM[pi] = wm
	}
	j.emitted = ck.Emitted
	j.winState = make(map[int64]*groupTable, len(ck.Windows))
	for _, w := range ck.Windows {
		t := newGroupTable(j.plan.keyIdx, len(j.plan.aggIdx))
		for _, cg := range w.Groups {
			kb, err := base64.StdEncoding.DecodeString(cg.Key)
			if err != nil {
				return nil, fmt.Errorf("sproc: checkpoint key decode: %w", err)
			}
			// Rebuild the key row from its codec bytes (one value per
			// encoded row segment).
			var key schema.Row
			rest := kb
			for len(rest) > 0 {
				row, n, err := schema.DecodeRow(rest)
				if err != nil {
					return nil, fmt.Errorf("sproc: checkpoint key row: %w", err)
				}
				key = append(key, row...)
				rest = rest[n:]
			}
			states := make([]aggState, len(cg.States))
			for i, s := range cg.States {
				states[i] = aggState{
					count: s.Count, sum: float64(s.Sum), min: float64(s.Min), max: float64(s.Max),
					first: float64(s.First), last: float64(s.Last), hasVal: s.HasVal,
				}
			}
			t.insert(string(kb), key, states)
		}
		j.winState[w.Start] = t
	}
	return map[string][]int64{j.cfg.Topic: ck.Offsets}, nil
}
