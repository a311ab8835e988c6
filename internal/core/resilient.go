package core

import (
	"context"
	"errors"
	"time"

	"odakit/internal/obs"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/stream"
)

// Resilient wrappers for the facility's infrastructure calls: every
// cross-tier write or read that the fault injector can target goes
// through a retry with jittered backoff, so a transient broker, lake, or
// ocean fault costs a retry instead of a pipeline. Fault hooks fire
// before any state changes, which is what makes these retries
// exactly-once: a failed call left nothing behind.
//
// Each wrapper also opens a child span when the context carries a
// sampled trace, and annotates it with every retry consumed — the
// per-stage latency and retry story a dumped trace tells.

// retry runs fn under the facility retry policy, counting consumed
// retries in the facility registry and annotating any sampled span.
func (f *Facility) retry(ctx context.Context, op string, fn func() error) error {
	p := f.Opts.RetryPolicy
	user := p.OnRetry
	sp := obs.SpanFromContext(ctx)
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		f.retries.Inc()
		sp.Annotate("retry", "%s attempt %d: %v", op, attempt, err)
		if user != nil {
			user(attempt, err, delay)
		}
	}
	return resilience.Retry(ctx, p, fn)
}

// publishRetry publishes a batch, retrying transient failures. A partial
// publish (some partitions faulted, or missed quorum) resumes with only
// the Failed remainder, so retries never duplicate records: on either
// plane a failed message is not in the log — a broker never appended it,
// and a cluster replica cuts what no quorum committed before its next
// append.
func (f *Facility) publishRetry(ctx context.Context, topic string, msgs []stream.Message) error {
	ctx, sp := obs.StartSpan(ctx, "stream.publish")
	defer sp.End()
	sp.Annotate("topic", "%s", topic)
	sp.Annotate("records", "%d", len(msgs))
	pending := msgs
	err := f.retry(ctx, "publish "+topic, func() error {
		_, err := f.stream.PublishBatch(topic, pending)
		var pp *stream.PartialPublishError
		if errors.As(err, &pp) {
			pending = pp.Failed
		}
		return err
	})
	if err != nil {
		sp.SetErr(err)
	}
	return err
}

// insertRetry inserts a batch into the LAKE store, retrying transient
// failures (the insert hook rejects before any stripe is touched).
func (f *Facility) insertRetry(ctx context.Context, batch []schema.Observation) error {
	ctx, sp := obs.StartSpan(ctx, "lake.insert")
	defer sp.End()
	sp.Annotate("rows", "%d", len(batch))
	err := f.retry(ctx, "lake insert", func() error {
		return f.lake.InsertBatch(batch)
	})
	if err != nil {
		sp.SetErr(err)
	}
	return err
}

// oceanGet / oceanPut wrap the OCEAN object store with the same retry
// discipline.
func (f *Facility) oceanGet(ctx context.Context, bucket, key string) ([]byte, error) {
	ctx, sp := obs.StartSpan(ctx, "ocean.get")
	defer sp.End()
	sp.Annotate("object", "%s/%s", bucket, key)
	var data []byte
	err := f.retry(ctx, "ocean get", func() error {
		var gerr error
		data, _, gerr = f.Ocean.Get(bucket, key)
		return gerr
	})
	return data, err
}

func (f *Facility) oceanPut(ctx context.Context, bucket, key string, data []byte) error {
	ctx, sp := obs.StartSpan(ctx, "ocean.put")
	defer sp.End()
	sp.Annotate("object", "%s/%s", bucket, key)
	return f.retry(ctx, "ocean put", func() error {
		_, perr := f.Ocean.Put(bucket, key, data)
		return perr
	})
}

// RunSilverSupervised runs the streaming Silver pipeline under a
// supervisor: each incarnation rebuilds the job (a fresh reader
// restored from its checkpoint), transient failures trigger damped
// backed-off restarts, and the pipeline registers itself with
// f.Pipelines so /healthz and the dashboard can see it.
func (f *Facility) RunSilverSupervised(ctx context.Context, cfg SilverPipelineConfig, scfg resilience.SupervisorConfig) error {
	p := sproc.NewPipeline("silver-"+string(cfg.Source), scfg, func() (*sproc.Job, error) {
		return f.NewSilverJob(cfg)
	})
	f.Pipelines.Register(p)
	return p.Run(ctx)
}
