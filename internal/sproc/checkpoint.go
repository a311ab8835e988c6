package sproc

import (
	"encoding/json"
	"fmt"
)

// Checkpoint layer: after every sunk micro-batch the job's loop persists
// its consumer offsets with the per-partition watermarks and the view's
// open windows, in cq's own checkpoint form of a view. On restart the job
// resumes from the checkpoint — the "advanced failure and recovery
// mechanisms that can be difficult to re-engineer from scratch" the paper
// adopts stream processing for (§V-B). Semantics are at-least-once across
// the sink/checkpoint boundary; sinks in this codebase (tsdb rollup,
// OCEAN object keyed by window) are idempotent.

// ckptFormat is the checkpoint format this build writes and reads. The
// files before it (no format field) held the windows as JSON aggregation
// states of the job's own.
const ckptFormat = 1

type ckptFile struct {
	Format  int             `json:"format"`
	Name    string          `json:"name"`
	Offsets []int64         `json:"offsets"`
	PartWM  map[int]int64   `json:"part_wm"` // per-partition watermarks
	View    json.RawMessage `json:"view"`    // cq.View.Checkpoint
}

// Snapshot serializes the job's state at offsets (plane.Operator).
func (j *Job) Snapshot(offsets map[string][]int64) ([]byte, error) {
	view, err := j.cfg.View.Checkpoint()
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return json.Marshal(ckptFile{Format: ckptFormat, Name: j.cfg.Name, Offsets: offsets[j.cfg.Topic], PartWM: j.partWM, View: view})
}

// Restore rebuilds the watermarks and the view's open windows a Snapshot
// wrote, and returns its offsets (plane.Operator).
func (j *Job) Restore(data []byte) (map[string][]int64, error) {
	var ck ckptFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("sproc: checkpoint %s: parse: %w", j.path, err)
	}
	if ck.Format != ckptFormat {
		return nil, fmt.Errorf("sproc: checkpoint %s is format %d, this build reads format %d: delete it to rebuild the job from the stream",
			j.path, ck.Format, ckptFormat)
	}
	if err := j.cfg.View.Restore(ck.View); err != nil {
		return nil, fmt.Errorf("sproc: checkpoint %s: %w", j.path, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if ck.PartWM != nil {
		j.partWM = ck.PartWM
	}
	return map[string][]int64{j.cfg.Topic: ck.Offsets}, nil
}
