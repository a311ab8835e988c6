package wal

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"odakit/internal/atomicfile"
	"odakit/internal/faults"
)

const (
	manifestName = "manifest.json"
	segSuffix    = ".seg"
)

// manifestSegment describes one segment file. Sealed segments are
// immutable and trusted to exactly Bytes valid bytes; the final,
// unsealed segment is the append target and is scanned frame-by-frame
// on open.
type manifestSegment struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes,omitempty"`
	Sealed bool   `json:"sealed,omitempty"`
}

type manifestFile struct {
	Segments []manifestSegment `json:"segments"`
}

func segName(i int) string { return fmt.Sprintf("%010d%s", i, segSuffix) }

func segIndex(name string) int {
	i, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
	if err != nil {
		return -1
	}
	return i
}

func readManifest(dir string) (*manifestFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		// A corrupt manifest is recoverable: fall back to the directory
		// listing (all segments unsealed, fully rescanned).
		return nil, nil
	}
	return &m, nil
}

// listSegs lists the segment files of a node's log directory. The log
// is the directory's only content: a subdirectory is a stream's log of
// the older one-directory-per-stream layout (t/<topic>/<partition>,
// lake/<stripe>), which this log cannot read, so it is refused by name.
func listSegs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			return nil, fmt.Errorf("wal: %s holds %s/, a per-stream log directory of an older WAL layout that this version does not read; delete %s to start an empty log",
				dir, e.Name(), dir)
		}
		if strings.HasSuffix(e.Name(), segSuffix) && segIndex(e.Name()) >= 0 {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// recover rebuilds the segment list from disk and truncates the torn
// tail. Sealed segments must decode fully to their manifest-recorded
// length; the unsealed tail (and any segment the manifest never
// recorded — a crash can land between segment creation and the
// manifest write) is scanned and cut at the first bad frame. Anything
// after a truncation point — including whole later segments — is
// dropped, so the surviving log is a clean frame-aligned prefix. The
// scan also finds each stream's last reset.
func (w *NodeWAL) recover() error {
	dir := w.cfg.Dir
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	onDisk, err := listSegs(dir)
	if err != nil {
		return err
	}
	known := make(map[string]manifestSegment)
	if m != nil {
		for _, s := range m.Segments {
			known[s.Name] = s
		}
	}
	var segs []manifestSegment
	truncated := false
	pos := int64(0)
	for _, name := range onDisk {
		path := filepath.Join(dir, name)
		if truncated {
			// Everything after a truncation point is gone.
			w.truncatedBytes.Add(fileSize(path))
			_ = os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rec, isKnown := known[name]
		limit := int64(len(data))
		if isKnown && rec.Sealed && rec.Bytes < limit {
			limit = rec.Bytes
		}
		valid := int64(w.scan(data[:limit], pos))
		bad := valid < limit || (isKnown && rec.Sealed && int64(len(data)) < rec.Bytes)
		if int64(len(data)) != valid {
			if err := os.Truncate(path, valid); err != nil {
				return err
			}
			w.truncatedBytes.Add(int64(len(data)) - valid)
			w.truncatedTails.Add(1)
		}
		segs = append(segs, manifestSegment{Name: name, Bytes: valid})
		pos += valid
		if bad {
			// This segment lost data: it becomes the new unsealed tail and
			// every later segment is dropped.
			truncated = true
		}
	}
	if len(segs) == 0 {
		segs = append(segs, manifestSegment{Name: segName(0)})
	}
	// All but the last are sealed at their now-verified lengths.
	for i := range segs[:len(segs)-1] {
		segs[i].Sealed = true
	}
	tail := &segs[len(segs)-1]
	tail.Sealed = false
	f, err := os.OpenFile(filepath.Join(dir, tail.Name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.segs, w.f, w.size = segs, f, tail.Bytes
	w.staged, w.durable = pos, pos
	tail.Bytes = 0 // only meaningful for sealed segments
	// A clean open recomputes exactly what the manifest already records;
	// rewriting it would put two fsyncs on every open, and so on restart
	// latency. Persist only when recovery learned something: a
	// truncation, an adopted or dropped segment, or no readable manifest
	// at all.
	if m != nil && slices.Equal(m.Segments, segs) {
		return nil
	}
	return w.writeManifestLocked()
}

// scan validates the frames at the front of one segment's data, which
// starts at position pos, without building their entries, notes each
// reset, and returns the length of the valid prefix.
func (w *NodeWAL) scan(data []byte, pos int64) int {
	n := 0
	for {
		p, ln, ok := nextFrame(data[n:])
		if !ok {
			return n
		}
		f, ok := decodeFrame(p, true)
		if !ok {
			return n
		}
		if f.Reset {
			w.resets[f.Stream] = pos + int64(n)
		}
		n += ln
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (w *NodeWAL) writeManifestLocked() error {
	b, err := json.Marshal(manifestFile{Segments: w.segs})
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(w.cfg.Dir, manifestName), b, 0o644)
}

// rotateLocked seals the active segment and opens the next one. The
// order is crash-safe: the sealed data is already durable, the new file
// exists before the manifest records it, and recover adopts segments
// the manifest never saw. syncMu held.
func (w *NodeWAL) rotateLocked() error {
	next := segName(segIndex(w.segs[len(w.segs)-1].Name) + 1)
	nf, err := os.OpenFile(filepath.Join(w.cfg.Dir, next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	tail := &w.segs[len(w.segs)-1]
	tail.Sealed, tail.Bytes = true, w.size
	w.segs = append(w.segs, manifestSegment{Name: next})
	if err := w.writeManifestLocked(); err != nil {
		w.segs = w.segs[:len(w.segs)-1]
		tail.Sealed, tail.Bytes = false, 0
		nf.Close()
		return err
	}
	w.f.Close()
	w.f, w.size = nf, 0
	w.rotations.Add(1)
	return nil
}

// Replay streams every entry of the node log, in log order, through fn
// with its stream: one sequential pass that recovery demultiplexes. A
// stream's entries before its last reset are skipped. It reads from
// disk, as Log.Replay does. A non-nil error from fn aborts the replay.
func (w *NodeWAL) Replay(fn func(stream string, e Entry) error) (int, error) {
	return w.replay("", fn)
}

// replay walks the flushed log; only, when set, keeps one stream and
// skips decoding every other stream's frames.
func (w *NodeWAL) replay(only string, fn func(stream string, e Entry) error) (int, error) {
	target := only
	if only == "" {
		target = NodeLog
	}
	// The segment list and the resets are read together, so a reset
	// this snapshot misses lies past every byte the replay reads.
	w.syncMu.Lock()
	w.mu.Lock()
	closed := w.closed
	segs, tailSize, resets := slices.Clone(w.segs), w.size, maps.Clone(w.resets)
	w.mu.Unlock()
	w.syncMu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if err := w.faults.Fire(faults.OpWALReplay, target); err != nil {
		return 0, err
	}
	total, pos := 0, int64(0)
	defer func() { w.replayedEntries.Add(int64(total)) }()
	for i, s := range segs {
		limit := s.Bytes
		if i == len(segs)-1 {
			limit = tailSize // the tail's flushed prefix; the buffer is not on disk
		}
		data, err := os.ReadFile(filepath.Join(w.cfg.Dir, s.Name))
		if err != nil {
			return total, err
		}
		data = data[:min(limit, int64(len(data)))]
		n := 0
		for {
			p, ln, ok := nextFrame(data[n:])
			if !ok {
				break
			}
			at := pos + int64(n)
			n += ln
			_, tag, stream, ok := frameHead(p)
			if !ok || tag == tagReset || only != "" && string(stream) != only {
				continue
			}
			if r, ok := resets[string(stream)]; ok && at < r {
				continue
			}
			f, ok := decodeFrame(p, false)
			if !ok {
				break
			}
			for _, e := range f.Entries {
				if err := fn(f.Stream, e); err != nil {
					w.replayedBytes.Add(int64(n))
					return total, err
				}
				total++
			}
		}
		w.replayedBytes.Add(int64(n))
		pos += limit
	}
	return total, nil
}
