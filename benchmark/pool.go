package main

import (
	"fmt"
	"sort"
	"time"
)

// lapSpan is the simulated time one pass over the pool covers. Each lap
// shifts every timestamp by lap × lapSpan, so content never repeats: the
// cluster's staged-batch fingerprint must never see the same batch twice
// and the lake keeps growing the way a live system's does.
const lapSpan = 5 * time.Minute

// poolBatch is one single-topic batch of pre-generated telemetry.
type poolBatch struct {
	topic string
	obs   []observation
}

// pool is the seeded telemetry the timed loops replay. Generation costs
// more per record than the whole single-node ingest path, so it happens
// once, during set-up, and never inside a timed region.
type pool struct {
	batches []poolBatch
	records int
}

// buildPool generates lapSpan of power_temp and gpu telemetry at the
// given scale, cuts each source into whole batches of size records, and
// merges the two batch streams by first timestamp so event time advances
// (roughly) monotonically across topics the way a live feed's does.
func buildPool(seed int64, scale, size int, gpu bool) (*pool, error) {
	power, err := generatePowerTemp(seed, scale, lapSpan)
	if err != nil {
		return nil, fmt.Errorf("generate power_temp: %w", err)
	}
	p := &pool{}
	p.cut(topicPower, power, size)
	if gpu {
		g, err := generateGPU(seed, scale, lapSpan)
		if err != nil {
			return nil, fmt.Errorf("generate gpu: %w", err)
		}
		p.cut(topicGPU, g, size)
	}
	if len(p.batches) == 0 {
		return nil, fmt.Errorf("pool: scale %d yields no whole batch of %d", scale, size)
	}
	sort.SliceStable(p.batches, func(i, j int) bool {
		return p.batches[i].obs[0].Ts.Before(p.batches[j].obs[0].Ts)
	})
	return p, nil
}

// cut appends obs as whole batches; the ragged tail is dropped so every
// batch has exactly size records.
func (p *pool) cut(topic string, obs []observation, size int) {
	for len(obs) >= size {
		p.batches = append(p.batches, poolBatch{topic: topic, obs: obs[:size:size]})
		p.records += size
		obs = obs[size:]
	}
}

// batch returns the k'th batch of the endless lapped stream, copied into
// dst with its timestamps shifted into lap k / len(batches).
func (p *pool) batch(k int, dst []observation) (string, []observation) {
	b := p.batches[k%len(p.batches)]
	shift := time.Duration(k/len(p.batches)) * lapSpan
	dst = append(dst[:0], b.obs...)
	if shift != 0 {
		for i := range dst {
			dst[i].Ts = dst[i].Ts.Add(shift)
		}
	}
	return b.topic, dst
}

// eventTime is the latest event timestamp of batch k (pool batches are
// tick-major, so the last record carries it).
func (p *pool) eventTime(k int) time.Time {
	b := p.batches[k%len(p.batches)]
	return b.obs[len(b.obs)-1].Ts.Add(time.Duration(k/len(p.batches)) * lapSpan)
}

// recordsPerEventSecond converts an event-time lag into records.
func (p *pool) recordsPerEventSecond() float64 {
	return float64(p.records) / lapSpan.Seconds()
}
