package sproc

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"odakit/internal/atomicfile"
	"odakit/internal/schema"
)

// Checkpoint layer: after every sunk micro-batch the job persists its
// consumer offsets, watermark, emitted horizon, and open-window state.
// On restart the job resumes from the checkpoint — the "advanced failure
// and recovery mechanisms that can be difficult to re-engineer from
// scratch" the paper adopts stream processing for (§V-B). Semantics are
// at-least-once across the sink/checkpoint boundary; sinks in this
// codebase (tsdb rollup, OCEAN object keyed by window) are idempotent.

type ckptAggState struct {
	Count  int64   `json:"c"`
	Sum    float64 `json:"s"`
	Min    float64 `json:"mn"`
	Max    float64 `json:"mx"`
	First  float64 `json:"f"`
	Last   float64 `json:"l"`
	HasVal bool    `json:"h"`
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

func (j *Job) checkpointPath() string {
	return filepath.Join(j.cfg.CheckpointDir, j.cfg.Name+".ckpt.json")
}

// checkpoint persists job state; a no-op without a checkpoint dir.
func (j *Job) checkpoint() error {
	if j.cfg.CheckpointDir == "" {
		return nil
	}
	j.mu.Lock()
	ck := ckptFile{
		Name:    j.cfg.Name,
		Offsets: j.reader.Offsets()[j.cfg.Topic],
		PartWM:  make(map[string]int64, len(j.partWM)),
		Emitted: j.emitted,
	}
	for p, wm := range j.partWM {
		ck.PartWM[strconv.Itoa(p)] = wm
	}
	for wStart, groups := range j.winState {
		w := ckptWindow{Start: wStart}
		for k, g := range groups {
			cg := ckptGroup{Key: base64.StdEncoding.EncodeToString([]byte(k))}
			for _, s := range g.states {
				cg.States = append(cg.States, ckptAggState{
					Count: s.count, Sum: s.sum, Min: s.min, Max: s.max,
					First: s.first, Last: s.last, HasVal: s.hasVal,
				})
			}
			w.Groups = append(w.Groups, cg)
		}
		ck.Windows = append(ck.Windows, w)
	}
	j.mu.Unlock()

	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("sproc: checkpoint marshal: %w", err)
	}
	if err := os.MkdirAll(j.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("sproc: checkpoint dir: %w", err)
	}
	// Atomic write-fsync-rename so a crash mid-write never corrupts the
	// checkpoint (a rename without fsync can survive while its data does
	// not).
	if err := atomicfile.WriteFile(j.checkpointPath(), data, 0o644); err != nil {
		return fmt.Errorf("sproc: checkpoint write: %w", err)
	}
	return nil
}

// restore loads the checkpoint if one exists, seeking the reader to the
// saved offsets and rebuilding open-window state. Torn writes from a
// crash (*.tmp leftovers) are swept first; the rename-based protocol
// guarantees the checkpoint file itself is always a complete version.
func (j *Job) restore() error {
	if _, err := atomicfile.CleanTemps(j.cfg.CheckpointDir); err != nil && !os.IsNotExist(errors.Unwrap(err)) {
		return err
	}
	data, err := os.ReadFile(j.checkpointPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sproc: checkpoint read: %w", err)
	}
	var ck ckptFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("sproc: checkpoint parse: %w", err)
	}
	if err := j.reader.Seek(map[string][]int64{j.cfg.Topic: ck.Offsets}); err != nil {
		return fmt.Errorf("sproc: checkpoint seek: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.partWM = make(map[int]int64, len(ck.PartWM))
	for p, wm := range ck.PartWM {
		pi, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("sproc: checkpoint partition key: %w", err)
		}
		j.partWM[pi] = wm
	}
	j.emitted = ck.Emitted
	j.winState = make(map[int64]map[string]*winGroup, len(ck.Windows))
	for _, w := range ck.Windows {
		groups := make(map[string]*winGroup, len(w.Groups))
		for _, cg := range w.Groups {
			kb, err := base64.StdEncoding.DecodeString(cg.Key)
			if err != nil {
				return fmt.Errorf("sproc: checkpoint key decode: %w", err)
			}
			// Rebuild the key row from its codec bytes (one value per
			// encoded row segment).
			var key schema.Row
			rest := kb
			for len(rest) > 0 {
				row, n, err := schema.DecodeRow(rest)
				if err != nil {
					return fmt.Errorf("sproc: checkpoint key row: %w", err)
				}
				key = append(key, row...)
				rest = rest[n:]
			}
			g := &winGroup{key: key}
			for _, s := range cg.States {
				g.states = append(g.states, aggState{
					count: s.Count, sum: s.Sum, min: s.Min, max: s.Max,
					first: s.First, last: s.Last, hasVal: s.HasVal,
				})
			}
			groups[string(kb)] = g
		}
		j.winState[w.Start] = groups
	}
	j.metrics.Recovered = true
	return nil
}
