// Package objstore implements the object store behind the OCEAN tier
// (Fig 5): the role MinIO plays in the paper — bucketed, versioned object
// storage for ever-appended, parquet-style compressed tabular data.
//
// A Store is in-memory by default; give it a directory and every current
// object version is also persisted as a file, surviving restarts. Objects
// support Put (new version), Append (the OCEAN "ever-appended" pattern,
// valid for OCF because OCF streams concatenate), and per-bucket lifecycle
// rules that expire objects into a caller-supplied sink — the hook the
// GLACIER tier uses to freeze aged Bronze data.
package objstore

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"odakit/internal/atomicfile"
	"odakit/internal/faults"
)

// Errors returned by the store.
var (
	ErrNoBucket     = errors.New("objstore: no such bucket")
	ErrBucketExists = errors.New("objstore: bucket already exists")
	ErrNoObject     = errors.New("objstore: no such object")
	ErrNoVersion    = errors.New("objstore: no such version")
	ErrBucketBusy   = errors.New("objstore: bucket not empty")
)

// ObjectInfo describes one object version.
type ObjectInfo struct {
	Bucket   string
	Key      string
	Version  int64
	Size     int64
	Modified time.Time
}

type object struct {
	versions []version // oldest first; last is current
}

type version struct {
	id       int64
	data     []byte
	modified time.Time
}

type bucket struct {
	objects map[string]*object
	// lifecycle
	maxAge time.Duration
}

// Store is a multi-bucket object store, safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]*bucket
	dir     string // "" = memory only
	nextVer int64
	now     func() time.Time

	// MaxVersions bounds retained versions per object (default 4).
	MaxVersions int

	faults faults.Hook // fired before Put, Append, Get and Head take the store lock
	// instr holds the live obs counters (see instrument.go); nil — the
	// default — costs one branch per op.
	instr *instruments
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (s *Store) SetFaultHook(h func(op, target string) error) { s.faults.SetFaultHook(h) }

// New returns a store. If dir is non-empty, current object versions are
// persisted under it and reloaded by Open.
func New(dir string) (*Store, error) {
	s := &Store{
		buckets: make(map[string]*bucket), dir: dir,
		now: time.Now, MaxVersions: 4,
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("objstore: %w", err)
		}
	}
	return s, nil
}

// Open loads a persisted store from dir.
func Open(dir string) (*Store, error) {
	s, err := New(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("objstore: open: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bname := e.Name()
		if err := s.CreateBucket(bname); err != nil {
			return nil, err
		}
		// Sweep torn writes from a crash before loading: a *.tmp sibling is
		// never valid data (atomicfile renames only after fsync).
		if _, err := atomicfile.CleanTemps(filepath.Join(dir, bname)); err != nil {
			return nil, err
		}
		files, err := os.ReadDir(filepath.Join(dir, bname))
		if err != nil {
			return nil, fmt.Errorf("objstore: open bucket %s: %w", bname, err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			key, err := decodeKey(f.Name())
			if err != nil {
				continue // not one of ours
			}
			data, err := os.ReadFile(filepath.Join(dir, bname, f.Name()))
			if err != nil {
				return nil, fmt.Errorf("objstore: open object: %w", err)
			}
			if _, err := s.Put(bname, key, data); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// SetClock replaces the store clock (deterministic tests and lifecycle).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Keys are hex-encoded in filenames so any key (slashes, spaces) is safe.
func encodeKey(key string) string { return hex.EncodeToString([]byte(key)) + ".obj" }

func decodeKey(name string) (string, error) {
	name = strings.TrimSuffix(name, ".obj")
	b, err := hex.DecodeString(name)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// CreateBucket makes a new bucket.
func (s *Store) CreateBucket(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("objstore: invalid bucket name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %s", ErrBucketExists, name)
	}
	s.buckets[name] = &bucket{objects: make(map[string]*object)}
	if s.dir != "" {
		if err := os.MkdirAll(filepath.Join(s.dir, name), 0o755); err != nil {
			return fmt.Errorf("objstore: %w", err)
		}
	}
	return nil
}

// EnsureBucket creates the bucket if absent.
func (s *Store) EnsureBucket(name string) error {
	err := s.CreateBucket(name)
	if errors.Is(err, ErrBucketExists) {
		return nil
	}
	return err
}

// DeleteBucket removes an empty bucket.
func (s *Store) DeleteBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBucket, name)
	}
	if len(b.objects) > 0 {
		return fmt.Errorf("%w: %s", ErrBucketBusy, name)
	}
	delete(s.buckets, name)
	if s.dir != "" {
		return os.RemoveAll(filepath.Join(s.dir, name))
	}
	return nil
}

// Buckets returns sorted bucket names.
func (s *Store) Buckets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Put stores data as a new version of the object and returns its info.
func (s *Store) Put(bucketName, key string, data []byte) (ObjectInfo, error) {
	if err := s.faults.Fire(faults.OpStorePut, bucketName+"/"+key); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instr != nil {
		s.instr.puts.Inc()
		s.instr.putBytes.Add(int64(len(data)))
	}
	return s.putLocked(bucketName, key, append([]byte(nil), data...))
}

func (s *Store) putLocked(bucketName, key string, data []byte) (ObjectInfo, error) {
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok {
		obj = &object{}
		b.objects[key] = obj
	}
	s.nextVer++
	v := version{id: s.nextVer, data: data, modified: s.now()}
	obj.versions = append(obj.versions, v)
	if len(obj.versions) > s.MaxVersions {
		obj.versions = obj.versions[len(obj.versions)-s.MaxVersions:]
	}
	if s.dir != "" {
		// Crash-safe persist: a process killed mid-write must not leave a
		// torn object file for the next Open to load as truth.
		path := filepath.Join(s.dir, bucketName, encodeKey(key))
		if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
			return ObjectInfo{}, fmt.Errorf("objstore: persist: %w", err)
		}
	}
	return ObjectInfo{Bucket: bucketName, Key: key, Version: v.id, Size: int64(len(data)), Modified: v.modified}, nil
}

// Append extends the current version of an object with data, creating it
// if absent. This is the OCEAN ever-appended write path: appending OCF
// bytes to an OCF object yields a valid OCF object.
func (s *Store) Append(bucketName, key string, data []byte) (ObjectInfo, error) {
	if err := s.faults.Fire(faults.OpStoreAppend, bucketName+"/"+key); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instr != nil {
		s.instr.appends.Inc()
		s.instr.putBytes.Add(int64(len(data)))
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	var prev []byte
	if obj, ok := b.objects[key]; ok && len(obj.versions) > 0 {
		prev = obj.versions[len(obj.versions)-1].data
	}
	merged := make([]byte, 0, len(prev)+len(data))
	merged = append(merged, prev...)
	merged = append(merged, data...)
	return s.putLocked(bucketName, key, merged)
}

// Get returns the current version of an object.
func (s *Store) Get(bucketName, key string) ([]byte, ObjectInfo, error) {
	if err := s.faults.Fire(faults.OpStoreGet, bucketName+"/"+key); err != nil {
		return nil, ObjectInfo{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok || len(obj.versions) == 0 {
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	v := obj.versions[len(obj.versions)-1]
	if s.instr != nil {
		s.instr.gets.Inc()
		s.instr.gotBytes.Add(int64(len(v.data)))
	}
	return append([]byte(nil), v.data...), ObjectInfo{
		Bucket: bucketName, Key: key, Version: v.id, Size: int64(len(v.data)), Modified: v.modified,
	}, nil
}

// Head returns the current version's info without its data: what a
// reader that keeps something derived from an object checks that version
// against. It copies nothing and counts no get.
func (s *Store) Head(bucketName, key string) (ObjectInfo, error) {
	if err := s.faults.Fire(faults.OpStoreHead, bucketName+"/"+key); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok || len(obj.versions) == 0 {
		return ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	v := obj.versions[len(obj.versions)-1]
	return ObjectInfo{Bucket: bucketName, Key: key, Version: v.id, Size: int64(len(v.data)), Modified: v.modified}, nil
}

// GetVersion returns a specific retained version of an object.
func (s *Store) GetVersion(bucketName, key string, versionID int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	for _, v := range obj.versions {
		if v.id == versionID {
			return append([]byte(nil), v.data...), nil
		}
	}
	return nil, fmt.Errorf("%w: %s/%s@%d", ErrNoVersion, bucketName, key, versionID)
}

// Versions lists retained version infos for an object, oldest first.
func (s *Store) Versions(bucketName, key string) ([]ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	out := make([]ObjectInfo, 0, len(obj.versions))
	for _, v := range obj.versions {
		out = append(out, ObjectInfo{Bucket: bucketName, Key: key, Version: v.id, Size: int64(len(v.data)), Modified: v.modified})
	}
	return out, nil
}

// List returns current-version infos for keys with the prefix, sorted.
func (s *Store) List(bucketName, prefix string) ([]ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	var out []ObjectInfo
	for key, obj := range b.objects {
		if !strings.HasPrefix(key, prefix) || len(obj.versions) == 0 {
			continue
		}
		v := obj.versions[len(obj.versions)-1]
		out = append(out, ObjectInfo{Bucket: bucketName, Key: key, Version: v.id, Size: int64(len(v.data)), Modified: v.modified})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete removes an object and all of its versions.
func (s *Store) Delete(bucketName, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	if _, ok := b.objects[key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	delete(b.objects, key)
	if s.dir != "" {
		return os.Remove(filepath.Join(s.dir, bucketName, encodeKey(key)))
	}
	return nil
}

// BucketStats summarizes a bucket's footprint.
type BucketStats struct {
	Bucket       string
	Objects      int
	CurrentBytes int64 // current versions only
	TotalBytes   int64 // all retained versions
}

// Stats returns the footprint of a bucket.
func (s *Store) Stats(bucketName string) (BucketStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return BucketStats{}, fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	st := BucketStats{Bucket: bucketName, Objects: len(b.objects)}
	for _, obj := range b.objects {
		for i, v := range obj.versions {
			st.TotalBytes += int64(len(v.data))
			if i == len(obj.versions)-1 {
				st.CurrentBytes += int64(len(v.data))
			}
		}
	}
	return st, nil
}

// SetLifecycle sets a max-age rule on a bucket; objects whose current
// version is older expire on the next ApplyLifecycle.
func (s *Store) SetLifecycle(bucketName string, maxAge time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBucket, bucketName)
	}
	b.maxAge = maxAge
	return nil
}

// ApplyLifecycle expires aged objects in every bucket with a rule. For
// each expiring object, sink (if non-nil) receives the object before
// deletion — the GLACIER freeze hook. A sink error keeps the object.
func (s *Store) ApplyLifecycle(sink func(info ObjectInfo, data []byte) error) (expired int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for bname, b := range s.buckets {
		if b.maxAge <= 0 {
			continue
		}
		for key, obj := range b.objects {
			if len(obj.versions) == 0 {
				continue
			}
			cur := obj.versions[len(obj.versions)-1]
			if now.Sub(cur.modified) <= b.maxAge {
				continue
			}
			info := ObjectInfo{Bucket: bname, Key: key, Version: cur.id, Size: int64(len(cur.data)), Modified: cur.modified}
			if sink != nil {
				if serr := sink(info, cur.data); serr != nil {
					err = serr
					continue
				}
			}
			delete(b.objects, key)
			if s.dir != "" {
				_ = os.Remove(filepath.Join(s.dir, bname, encodeKey(key)))
			}
			expired++
		}
	}
	return expired, err
}
