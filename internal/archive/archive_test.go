package archive

import (
	"errors"
	"testing"
	"time"
)

func clockArchive() (*Archive, *time.Time) {
	a := New()
	clock := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	a.SetClock(func() time.Time { return clock })
	return a, &clock
}

func TestFreezeRecallRead(t *testing.T) {
	a, clock := clockArchive()
	info := a.Freeze("bronze/perf/2024-05.ocf", []byte("cold data"))
	if info.Size != 9 {
		t.Fatalf("info = %+v", info)
	}
	// Reading without recall fails.
	if _, err := a.Read(info.Key); !errors.Is(err, ErrNotRecalled) {
		t.Fatalf("read before recall: %v", err)
	}
	rs, err := a.Recall(info.Key)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != RecallPending || rs.Wait != a.RecallLatency {
		t.Fatalf("recall = %+v, want pending for %v", rs, a.RecallLatency)
	}
	// Still pending until the latency passes.
	if _, err := a.Read(info.Key); !errors.Is(err, ErrRecallAgain) {
		t.Fatalf("read during recall: %v", err)
	}
	*clock = clock.Add(a.RecallLatency + time.Minute)
	data, err := a.Read(info.Key)
	if err != nil || string(data) != "cold data" {
		t.Fatalf("read after recall = %q, %v", data, err)
	}
}

func TestRecallIdempotent(t *testing.T) {
	a, clock := clockArchive()
	a.Freeze("k", []byte("x"))
	r1, err := a.Recall("k")
	if err != nil {
		t.Fatal(err)
	}
	*clock = clock.Add(time.Minute)
	r2, err := a.Recall("k")
	if err != nil || r2.State != RecallPending || r2.Wait != r1.Wait-time.Minute {
		t.Fatalf("second recall = %+v, %v; want the first one's progress, a minute on from %+v", r2, err, r1)
	}
	if st := a.Stats(); st.Recalls != 1 {
		t.Fatalf("recalls = %d, want 1", st.Recalls)
	}
}

func TestRefreezeOverwrites(t *testing.T) {
	a, clock := clockArchive()
	a.Freeze("k", []byte("v1"))
	a.Freeze("k", []byte("longer v2"))
	st := a.Stats()
	if st.Items != 1 || st.Bytes != 9 {
		t.Fatalf("stats = %+v", st)
	}
	_, _ = a.Recall("k")
	*clock = clock.Add(a.RecallLatency)
	data, _ := a.Read("k")
	if string(data) != "longer v2" {
		t.Fatalf("data = %q", data)
	}
}

func TestMissingItem(t *testing.T) {
	a, _ := clockArchive()
	if _, err := a.Recall("ghost"); !errors.Is(err, ErrNoItem) {
		t.Fatalf("recall missing: %v", err)
	}
	if _, err := a.Read("ghost"); !errors.Is(err, ErrNoItem) {
		t.Fatalf("read missing: %v", err)
	}
	if err := a.Delete("ghost"); !errors.Is(err, ErrNoItem) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestListAndDelete(t *testing.T) {
	a, clock := clockArchive()
	a.Freeze("bronze/a", []byte("1"))
	a.Freeze("bronze/b", []byte("22"))
	a.Freeze("silver/c", []byte("333"))
	got := a.List("bronze/")
	if len(got) != 2 || got[0].Key != "bronze/a" || got[1].Key != "bronze/b" {
		t.Fatalf("list = %+v", got)
	}
	if got[0].Recalled {
		t.Fatal("unrecalled item should not be marked recalled")
	}
	_, _ = a.Recall("bronze/a")
	*clock = clock.Add(a.RecallLatency)
	got = a.List("bronze/")
	if !got[0].Recalled {
		t.Fatal("recalled item should be marked recalled")
	}
	if err := a.Delete("bronze/a"); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Items != 2 || st.Expirations != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatusLifecycle(t *testing.T) {
	a, clock := clockArchive()
	if _, err := a.Status("missing"); !errors.Is(err, ErrNoItem) {
		t.Fatalf("status of missing key: %v", err)
	}
	a.Freeze("k", []byte("x"))
	st, err := a.Status("k")
	if err != nil || st.State != RecallNone || st.Wait != 0 {
		t.Fatalf("fresh item status = %+v, %v", st, err)
	}
	rs, _ := a.Recall("k")
	st, err = a.Status("k")
	if err != nil || st.State != RecallPending || st != rs || st.Wait != a.RecallLatency {
		t.Fatalf("pending status = %+v, %v (recall left %+v)", st, err, rs)
	}
	// Status must not block or advance the recall.
	if _, err := a.Read("k"); !errors.Is(err, ErrRecallAgain) {
		t.Fatalf("read while pending: %v", err)
	}
	*clock = clock.Add(a.RecallLatency)
	st, err = a.Status("k")
	if err != nil || st.State != RecallStaged || st.Wait != 0 {
		t.Fatalf("staged status = %+v, %v", st, err)
	}
	if st.State.String() != "staged" || RecallPending.String() != "pending" || RecallNone.String() != "none" {
		t.Fatal("RecallState strings")
	}
	if _, err := a.Read("k"); err != nil {
		t.Fatalf("read after staging: %v", err)
	}
}
