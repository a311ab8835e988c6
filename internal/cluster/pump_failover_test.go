package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// TestChaosClusterPumpFailoverResume is the S3 property: a continuous-
// query pump reading bronze through the cluster survives a broker
// failover with no duplicated and no lost applies. The pump crashes
// (abandoned mid-stream after its source's leader is killed), a new pump
// restores from the checkpoint against the promoted leader, and the
// rebuilt view must stay byte-identical to a reference pump reading the
// same records from a plain single broker — because the cluster's high
// watermark only exposes quorum-committed records, the checkpointed
// cursor can never point past what the promoted leader holds.
func TestChaosClusterPumpFailoverResume(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	const topic = "bronze.alpha"
	cfgTopic := stream.TopicConfig{Partitions: 4}

	c := build(t, 3, Config{RF: 2})
	if err := c.CreateTopic(topic, cfgTopic); err != nil {
		t.Fatal(err)
	}
	ref := stream.NewBroker()
	if err := ref.CreateTopic(topic, cfgTopic); err != nil {
		t.Fatal(err)
	}

	engCfg := cq.Config{RollupInterval: 15 * time.Second, SegmentDuration: time.Minute}
	spec := cq.Spec{Name: "power", Window: 5 * time.Minute, GroupBy: []string{"component", "metric"}}
	refEng := cq.NewEngine(engCfg)
	refView, err := refEng.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	cluEng := cq.NewEngine(engCfg)
	if _, err := cluEng.Register(spec); err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	pumpCfg := cq.PumpConfig{Topics: []string{topic}, CheckpointDir: ckptDir, BatchSize: 64}
	refPump, err := cq.NewPumpSource(refEng, ref, cq.PumpConfig{Topics: []string{topic}, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	cluPump, err := cq.NewPumpSource(cluEng, c, pumpCfg)
	if err != nil {
		t.Fatal(err)
	}

	cur := base
	publishRound := func(n int) {
		comps := []string{"node01", "node02", "node03", "node04", "node05", "node06"}
		mets := []string{"cpu", "mem", "pow"}
		msgs := make([]stream.Message, n)
		for i := range msgs {
			cur = cur.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			o := schema.Observation{
				Ts: cur, System: "sys", Source: "alpha",
				Component: comps[rng.Intn(len(comps))],
				Metric:    mets[rng.Intn(len(mets))],
				Value:     rng.NormFloat64()*10 + 50,
			}
			msgs[i] = stream.Message{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}
		}
		if err := retryFailed(c, topic, msgs, 100); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if _, err := ref.PublishBatch(topic, []stream.Message{m}); err != nil {
				t.Fatalf("ref publish: %v", err)
			}
		}
	}
	drainBoth := func(p *cq.Pump, where string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := refPump.Drain(ctx); err != nil {
			t.Fatalf("%s: reference drain: %v", where, err)
		}
		if err := p.Drain(ctx); err != nil {
			t.Fatalf("%s: cluster drain: %v", where, err)
		}
	}
	assertViewsMatch := func(where string) {
		t.Helper()
		want, _ := refView.Read()
		var got *schema.Frame
		for _, v := range cluEng.Views() {
			f, _ := v.Read()
			got = f
		}
		if got == nil {
			t.Fatalf("%s: cluster engine has no view", where)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: view diverged from reference\nwant: %v\ngot: %v", where, want.Rows(), got.Rows())
		}
	}

	publishRound(100)
	drainBoth(cluPump, "before failover")
	assertViewsMatch("before failover")

	// Find the leader serving partition 0 and crash it.
	tp, err := c.topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	tp.parts[0].mu.Lock()
	victim := tp.parts[0].leader
	tp.parts[0].mu.Unlock()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// More records commit through the failed-over partition while the
	// old pump is gone (crashed with it, mid-stream).
	publishRound(100)

	// A fresh pump restores the checkpoint and resumes on the promoted
	// leaders. The engine is fresh too — all view state must come back
	// from the checkpoint, then the un-checkpointed suffix replays.
	cluEng2 := cq.NewEngine(engCfg)
	cluPump2, err := cq.NewPumpSource(cluEng2, c, pumpCfg)
	if err != nil {
		t.Fatalf("pump restore after failover: %v", err)
	}
	if !cluPump2.Metrics().Recovered {
		t.Fatal("restored pump found no checkpoint")
	}
	cluEng = cluEng2
	drainBoth(cluPump2, "after failover")
	assertViewsMatch("after failover")

	// Full recovery: restart the dead node, repair, keep pumping.
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	publishRound(60)
	drainBoth(cluPump2, "after recovery")
	assertViewsMatch("after recovery")
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}
