package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"odakit/internal/faults"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := memStore(t)
	if err := s.CreateBucket("silver"); err != nil {
		t.Fatal(err)
	}
	info, err := s.Put("silver", "power/2024/06/01.ocf", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 7 || info.Version == 0 {
		t.Fatalf("info = %+v", info)
	}
	data, got, err := s.Get("silver", "power/2024/06/01.ocf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("payload")) || got.Version != info.Version {
		t.Fatalf("get = %q %+v", data, got)
	}
}

func TestGetCopiesData(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("b")
	orig := []byte("immutable")
	_, _ = s.Put("b", "k", orig)
	orig[0] = 'X' // caller mutation must not affect the store
	data, _, _ := s.Get("b", "k")
	if string(data) != "immutable" {
		t.Fatalf("store affected by caller mutation: %q", data)
	}
	data[0] = 'Y' // reader mutation must not affect the store
	data2, _, _ := s.Get("b", "k")
	if string(data2) != "immutable" {
		t.Fatalf("store affected by reader mutation: %q", data2)
	}
}

func TestBucketLifecycle(t *testing.T) {
	s := memStore(t)
	if err := s.CreateBucket("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("a"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("dup create: %v", err)
	}
	if err := s.EnsureBucket("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("bad/name"); err == nil {
		t.Fatal("slash in bucket name should be rejected")
	}
	if err := s.CreateBucket(""); err == nil {
		t.Fatal("empty bucket name should be rejected")
	}
	_, _ = s.Put("a", "k", []byte("x"))
	if err := s.DeleteBucket("a"); !errors.Is(err, ErrBucketBusy) {
		t.Fatalf("delete non-empty: %v", err)
	}
	_ = s.Delete("a", "k")
	if err := s.DeleteBucket("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBucket("a"); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestVersioning(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("b")
	var versions []int64
	for i := 0; i < 3; i++ {
		info, err := s.Put("b", "k", []byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, info.Version)
	}
	for i, v := range versions {
		data, err := s.GetVersion("b", "k", v)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte('a'+i) {
			t.Fatalf("version %d data = %q", v, data)
		}
	}
	if _, err := s.GetVersion("b", "k", 9999); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("missing version: %v", err)
	}
	infos, err := s.Versions("b", "k")
	if err != nil || len(infos) != 3 {
		t.Fatalf("versions = %v, %v", infos, err)
	}
}

func TestVersionCap(t *testing.T) {
	s := memStore(t)
	s.MaxVersions = 2
	_ = s.CreateBucket("b")
	var first int64
	for i := 0; i < 5; i++ {
		info, _ := s.Put("b", "k", []byte{byte(i)})
		if i == 0 {
			first = info.Version
		}
	}
	if _, err := s.GetVersion("b", "k", first); !errors.Is(err, ErrNoVersion) {
		t.Fatal("oldest version should have been dropped")
	}
	infos, _ := s.Versions("b", "k")
	if len(infos) != 2 {
		t.Fatalf("retained %d versions, want 2", len(infos))
	}
}

func TestAppend(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("ocean")
	if _, err := s.Append("ocean", "stream.ocf", []byte("AB")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("ocean", "stream.ocf", []byte("CD")); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Get("ocean", "stream.ocf")
	if err != nil || string(data) != "ABCD" {
		t.Fatalf("appended = %q, %v", data, err)
	}
	if _, err := s.Append("ghost", "k", nil); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("append to missing bucket: %v", err)
	}
}

func TestListWithPrefix(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("b")
	keys := []string{"power/01", "power/02", "gpu/01"}
	for _, k := range keys {
		_, _ = s.Put("b", k, []byte("x"))
	}
	got, err := s.List("b", "power/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "power/01" || got[1].Key != "power/02" {
		t.Fatalf("list = %+v", got)
	}
	all, _ := s.List("b", "")
	if len(all) != 3 {
		t.Fatalf("list all = %d", len(all))
	}
	if _, err := s.List("ghost", ""); !errors.Is(err, ErrNoBucket) {
		t.Fatal("list missing bucket should error")
	}
}

func TestStats(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("b")
	_, _ = s.Put("b", "k1", make([]byte, 100))
	_, _ = s.Put("b", "k1", make([]byte, 150)) // second version
	_, _ = s.Put("b", "k2", make([]byte, 50))
	st, err := s.Stats("b")
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 2 || st.CurrentBytes != 200 || st.TotalBytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateBucket("silver")
	_, _ = s.Put("silver", "a/b c/d.ocf", []byte("persisted"))
	_, _ = s.Put("silver", "plain", []byte("two"))

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := re.Get("silver", "a/b c/d.ocf")
	if err != nil || string(data) != "persisted" {
		t.Fatalf("reopened get = %q, %v", data, err)
	}
	infos, _ := re.List("silver", "")
	if len(infos) != 2 {
		t.Fatalf("reopened list = %+v", infos)
	}
	// Delete removes the file too.
	if err := re.Delete("silver", "plain"); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := re2.Get("silver", "plain"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
}

func TestLifecycleExpiry(t *testing.T) {
	s := memStore(t)
	clock := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return clock })
	_ = s.CreateBucket("bronze")
	_ = s.CreateBucket("keep")
	_, _ = s.Put("bronze", "old", []byte("aged"))
	_, _ = s.Put("keep", "old", []byte("kept")) // no rule on this bucket
	clock = clock.Add(48 * time.Hour)
	_, _ = s.Put("bronze", "fresh", []byte("new"))
	if err := s.SetLifecycle("bronze", 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	var frozen []string
	n, err := s.ApplyLifecycle(func(info ObjectInfo, data []byte) error {
		frozen = append(frozen, fmt.Sprintf("%s/%s=%s", info.Bucket, info.Key, data))
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("expired %d, %v", n, err)
	}
	if len(frozen) != 1 || frozen[0] != "bronze/old=aged" {
		t.Fatalf("frozen = %v", frozen)
	}
	if _, _, err := s.Get("bronze", "old"); !errors.Is(err, ErrNoObject) {
		t.Fatal("expired object should be gone")
	}
	if _, _, err := s.Get("bronze", "fresh"); err != nil {
		t.Fatal("fresh object should survive")
	}
	if _, _, err := s.Get("keep", "old"); err != nil {
		t.Fatal("bucket without rule should be untouched")
	}
}

func TestLifecycleSinkErrorKeepsObject(t *testing.T) {
	s := memStore(t)
	clock := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return clock })
	_ = s.CreateBucket("b")
	_, _ = s.Put("b", "k", []byte("x"))
	_ = s.SetLifecycle("b", time.Hour)
	clock = clock.Add(2 * time.Hour)
	n, err := s.ApplyLifecycle(func(ObjectInfo, []byte) error { return errors.New("tape full") })
	if n != 0 || err == nil {
		t.Fatalf("expired %d, err %v; want 0 and sink error", n, err)
	}
	if _, _, err := s.Get("b", "k"); err != nil {
		t.Fatal("object should survive failed freeze")
	}
}

func TestMissingObjectErrors(t *testing.T) {
	s := memStore(t)
	_ = s.CreateBucket("b")
	if _, _, err := s.Get("b", "nope"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("get missing: %v", err)
	}
	if err := s.Delete("b", "nope"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("delete missing: %v", err)
	}
	if _, _, err := s.Get("ghost", "k"); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("get missing bucket: %v", err)
	}
	if _, err := s.Versions("b", "nope"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("versions missing: %v", err)
	}
	if err := s.SetLifecycle("ghost", time.Hour); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("lifecycle missing bucket: %v", err)
	}
}

func TestKeyEncoding(t *testing.T) {
	keys := []string{"simple", "with/slashes", "with spaces", "üñïçødé", ""}
	for _, k := range keys {
		enc := encodeKey(k)
		got, err := decodeKey(enc)
		if err != nil || got != k {
			t.Fatalf("key %q round trip: %q, %v", k, got, err)
		}
	}
}

// TestParkedPutHookStallsNoGet: the fault hook fires before Put takes the
// store lock, so a put parked in its hook (an injected latency) leaves a
// Get of another object free to return.
func TestParkedPutHookStallsNoGet(t *testing.T) {
	s := memStore(t)
	if err := s.CreateBucket("ocean"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("ocean", "lake/seg-0.ocf", []byte("cold segment")); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	s.SetFaultHook(func(op, target string) error {
		if op == faults.OpStorePut && target == "ocean/lake/seg-1.ocf" {
			close(parked)
			<-release
		}
		return nil
	})
	put := make(chan error, 1)
	go func() {
		_, err := s.Put("ocean", "lake/seg-1.ocf", []byte("offload"))
		put <- err
	}()
	<-parked
	get := make(chan error, 1)
	go func() {
		_, _, err := s.Get("ocean", "lake/seg-0.ocf")
		get <- err
	}()
	select {
	case err := <-get:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a Get of another object waited on a put parked in its fault hook")
	}
	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
}
